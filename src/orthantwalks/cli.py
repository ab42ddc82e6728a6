"""Verification reports and the command-line surface.

``verify_model`` runs a model's exact identities, predicts its asymptotics
with the engine (or takes stored catalog values), and checks the prediction
against an empirical growth fit (``orthantwalks.fit``), reporting structured
pass/fail/partial results.  Exit codes: 0 pass, 1 fail, 2 partial, 3 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from orthantwalks import catalog as catalog_mod
from orthantwalks.asympt import asympt_full
from orthantwalks.critical import MIN_PREC_BITS, check_critical, contributing_points
from orthantwalks.enumeration import (
    CapacityError,
    count_walks,
    filter_name,
    normalize_filter,
    parse_filter,
)
from orthantwalks.fit import compare_fit, estimate_growth
from orthantwalks.kernel import diag_kernel, diagonal_coeffs, orbit_sum, positive_part_check
from orthantwalks.laurent import DEFAULT_PREC_BITS, GUARD_BITS
from orthantwalks.stepset import (
    StepSet,
    StepSetError,
    UnsupportedModelError,
    build_stepset,
    classify,
    load_stepset,
)

SCHEMA_VERSION = "2"


class UsageError(ValueError):
    pass


# ----------------------------------------------------------- verification

@dataclass
class VerificationReport:
    model: str
    symmetry_class: str
    drift_sign: int
    endpoint: str
    predicted: dict | None
    empirical: dict
    exact_checks: dict
    comparisons: dict
    status: str  # pass | fail | partial
    notes: tuple

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "model": self.model,
            "symmetry_class": self.symmetry_class,
            "drift_sign": self.drift_sign,
            "endpoint": self.endpoint,
            "predicted": self.predicted,
            "empirical": self.empirical,
            "exact_checks": self.exact_checks,
            "comparisons": self.comparisons,
            "status": self.status,
            "notes": list(self.notes),
        }


def default_nmax(dim):
    return {2: 512, 3: 160}.get(dim, 64)


def default_exact_n(dim):
    return 12 if dim <= 3 else 8


def _expansion_payload(exp, digits=16):
    pf = exp.periodic
    payload = {
        "partial": exp.partial,
        "route": exp.route,
        "alpha_base": str(exp.alpha),
        "terms": [
            {
                "rate": mp.nstr(t.rate, digits),
                "rate_exact": str(t.rate_exact),
                "coefficients": [mp.nstr(c, digits) for c in t.coefficients],
                "order_bound": t.order_bound,
            }
            for t in exp.terms
        ],
    }
    if pf is not None:
        payload["rate_modulus"] = mp.nstr(pf.rate_modulus, digits)
        payload["rate_modulus_exact"] = pf.rate_modulus_exact
        payload["alpha"] = str(pf.alpha)
        payload["period"] = pf.period
        payload["constants"] = [mp.nstr(c, digits) for c in pf.constants]
    return payload


def verify_model(s: StepSet, n_max=None, flt="anywhere", prec=DEFAULT_PREC_BITS,
                 exact_n=None, digits=16) -> VerificationReport:
    """Full verification: exact identities, engine prediction, empirical fit."""
    cls = classify(s)
    d = s.dim
    flt = normalize_filter(flt, d)
    n_max = n_max if n_max is not None else default_nmax(d)
    exact_n = exact_n if exact_n is not None else default_exact_n(d)
    notes = []
    exact_checks = {}
    failed = False
    try:
        kern = diag_kernel(s)  # runs the support gate, decompose
    except UnsupportedModelError as ex:
        kern = None
        notes.append(str(ex))
    supported = kern is not None

    if supported:
        axes = () if flt == "anywhere" else tuple(sorted(s.to_canonical_axes(flt[1])))
        diag = diagonal_coeffs(kern, exact_n, boundary_axes=axes)
        oracle = count_walks(s, exact_n, flt).values
        match = [Fraction(x) for x in diag] == [Fraction(x) for x in oracle]
        exact_checks["diagonal_vs_oracle"] = {"max_n": exact_n, "pass": match}
        ppc = positive_part_check(s, min(6, exact_n))
        exact_checks["positive_part"] = {"max_n": ppc.max_n, "pass": ppc.passed}
        failed = failed or not match or not ppc.passed
    else:
        exact_checks["note"] = "kernel identities skipped: unsupported symmetry class"

    predicted = None
    pf = None
    partial = not supported
    if supported:
        exp = asympt_full(s, flt, prec=prec)
        predicted = _expansion_payload(exp, digits)
        partial = exp.partial
        pf = exp.periodic if not exp.partial else None

    stored = None
    if pf is None:
        try:
            entry = catalog_mod.lookup(s)
            key = "anywhere" if flt == "anywhere" else None
            if key is None:
                for col, f in catalog_mod.COLUMN_FILTERS.items():
                    if normalize_filter(f, d) == flt:
                        key = col
                        break
            stored_asym = entry.table1 if key == "anywhere" else \
                (entry.table2 or {}).get(key)
            if stored_asym is not None:
                stored = stored_asym
                notes.append("prediction from stored catalog values (empirical-only)")
        except KeyError:
            pass

    fit = estimate_growth(count_walks(s, n_max, flt, mode="float"))
    empirical = {
        "rho": fit.rho,
        "alpha": fit.alpha,
        "period": fit.period,
        "constants": {str(r): c for r, c in sorted(fit.constants.items())},
        "structural_zeros": list(fit.structural_zeros),
        "converged": fit.converged,
        "n_max": n_max,
    }

    comparisons = {}
    if pf is not None:
        ok, comp = compare_fit(fit, float(pf.rate_modulus), float(pf.alpha),
                               [float(c) for c in pf.constants])
        comparisons["engine_vs_empirical"] = comp
        failed = failed or not ok
    elif stored is not None:
        ok, comp = compare_fit(fit, float(stored.rate_value(prec)), float(stored.alpha),
                               [float(v) for v in stored.constant_values(prec)])
        comparisons["catalog_vs_empirical"] = comp
        failed = failed or not ok
    else:
        notes.append("no prediction available; empirical fit reported unchecked")

    status = "fail" if failed else ("partial" if partial else "pass")
    return VerificationReport(
        model=s.describe(),
        symmetry_class=cls.kind,
        drift_sign=cls.drift_sign,
        endpoint=filter_name(flt, d),
        predicted=predicted,
        empirical=empirical,
        exact_checks=exact_checks,
        comparisons=comparisons,
        status=status,
        notes=tuple(notes),
    )


# ------------------------------------------------------------------ the CLI

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_model(text) -> StepSet:
    if text is None:
        raise UsageError("--model is required")
    if os.path.exists(text):
        return load_stepset(text)
    try:
        return catalog_mod.lookup(text).stepset()
    except KeyError:
        pass
    try:
        return build_stepset(2, [t.strip() for t in text.split(",") if t.strip()])
    except StepSetError as ex:
        raise UsageError(f"cannot resolve model {text!r}: {ex}") from ex


def _emit(payload, fmt, out, rows=None):
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        rows = rows if rows is not None else payload.get("rows", [])
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    elif fmt == "md":
        rows = rows if rows is not None else payload.get("rows", [])
        if not rows:
            text = "(empty)\n"
        else:
            headers = list(rows[0])
            lines = ["| " + " | ".join(headers) + " |",
                     "| " + " | ".join("---" for _ in headers) + " |"]
            for row in rows:
                lines.append("| " + " | ".join(str(row[h]) for h in headers) + " |")
            text = "\n".join(lines) + "\n"
    else:
        raise UsageError(f"unknown format {fmt}")
    if out:
        tmp = out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    else:
        sys.stdout.write(text)


FLAGS = {
    "--model": {"help": "model file path, catalog name, or compass list"},
    "--n": {"type": int, "default": None},
    "--endpoint": {"default": "anywhere", "help": "anywhere | origin | axes=1,2 (1-based)"},
    "--mode": {"choices": ("exact", "float"), "default": "exact"},
    "--order": {"type": int, "default": None, "help": "expansion depth N"},
    "--digits": {"type": int, "default": 16},
    "--threads": {"type": int, "default": 1},
    "--check": {"action": "store_true"},
    "--table": {"choices": ("table1", "table2", "both"), "default": "table1"},
    "--modes": {"default": "symbolic,empirical"},
    "--precision-bits": {"type": int, "default": DEFAULT_PREC_BITS},
    "--format": {"choices": ("json", "csv", "md"), "default": "json"},
    "--out": {"default": None},
}

# each subcommand accepts only the flags it reads, plus SHARED_FLAGS
COMMAND_FLAGS = {
    "count": ("--model", "--n", "--endpoint", "--mode"),
    "diagonal": ("--model", "--n", "--endpoint"),
    "orbitsum": ("--model",),
    "critical": ("--model", "--digits"),
    "asympt": ("--model", "--endpoint", "--order", "--digits"),
    "verify": ("--model", "--n", "--endpoint", "--digits"),
    "catalog": ("--n", "--threads", "--check", "--table", "--modes"),
}
SHARED_FLAGS = ("--precision-bits", "--format", "--out")


def build_parser():
    parser = _Parser(prog="orthantwalks",
                     description="orthant lattice-walk enumeration and asymptotics")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMAND_FLAGS.items():
        # no prefix matching: ``catalog --mode`` must not stand for ``--modes``
        sp = subs.add_parser(name, allow_abbrev=False)
        for flag in flags + SHARED_FLAGS:
            sp.add_argument(flag, **FLAGS[flag])
    return parser


def _cmd_count(args, s):
    n = args.n if args.n is not None else 20
    flt = parse_filter(args.endpoint, s.dim)
    series = count_walks(s, n, flt, mode=args.mode)
    rows = []
    for k in range(n + 1):
        if args.mode == "exact":
            rows.append({"n": k, "count": str(series.values[k])})
        else:
            rows.append({"n": k, "count": repr(series.value(k)),
                         "log_count": repr(series.log_value(k))})
    payload = {"schema_version": SCHEMA_VERSION, "model": s.describe(),
               "endpoint": filter_name(flt, s.dim), "mode": series.mode, "rows": rows}
    if series.mode == "float" and series.underflow:
        payload["underflow"] = True
    return 0, payload


def _cmd_diagonal(args, s):
    n = args.n if args.n is not None else 10
    flt = parse_filter(args.endpoint, s.dim)
    axes = () if flt == "anywhere" else tuple(sorted(s.to_canonical_axes(flt[1])))
    kern = diag_kernel(s)
    coeffs = diagonal_coeffs(kern, n, boundary_axes=axes)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": s.describe(),
        "endpoint": filter_name(flt, s.dim),
        "numerator": repr(kern.G),
        "factors": {k: repr(v) for k, v in kern.factors().items()},
        "rows": [{"n": k, "coefficient": str(c)} for k, c in enumerate(coeffs)],
    }
    return 0, payload


def _cmd_orbitsum(args, s):
    num, den = orbit_sum(s)
    payload = {"schema_version": SCHEMA_VERSION, "model": s.describe(),
               "numerator": repr(num), "denominator": repr(den),
               "rows": [{"numerator": repr(num), "denominator": repr(den)}]}
    return 0, payload


def _cmd_critical(args, s):
    pts = contributing_points(s, args.precision_bits)
    rows = []
    for p in pts:
        rep = check_critical(s, p, prec=args.precision_bits)
        rows.append({
            "coordinates": "(" + ", ".join(mp.nstr(c, args.digits) for c in p.w) + ")",
            "t": mp.nstr(p.t, args.digits),
            "stratum": p.stratum,
            "rate_exact": str(p.rate_exact),
            "abs_w_sq": str(("1",) * (s.dim - 1) + (str(abs(p.wd_squared)),)),
            "abs_t": mp.nstr(abs(p.t), args.digits),
            "max_residual": mp.nstr(max(v for k, v in rep.residuals.items()
                                        if k != "H2_distance"), 3),
            "critical_ok": rep.ok,
        })
    payload = {"schema_version": SCHEMA_VERSION, "model": s.describe(), "rows": rows}
    return 0, payload


def _cmd_asympt(args, s):
    flt = parse_filter(args.endpoint, s.dim)
    exp = asympt_full(s, flt, N=args.order, prec=args.precision_bits)
    payload = {"schema_version": SCHEMA_VERSION, "model": s.describe(),
               "endpoint": filter_name(flt, s.dim)}
    payload.update(_expansion_payload(exp, args.digits))
    pf = exp.periodic
    rows = []
    if pf is not None:
        for r, c in enumerate(pf.constants):
            rows.append({"residue": r, "constant": mp.nstr(c, args.digits),
                         "rate": pf.rate_modulus_exact, "alpha": str(pf.alpha)})
    payload["rows"] = rows
    return (2 if exp.partial else 0), payload


def _cmd_verify(args, s):
    rep = verify_model(s, n_max=args.n, flt=parse_filter(args.endpoint, s.dim),
                       prec=args.precision_bits, digits=args.digits)
    payload = rep.to_dict()
    payload["rows"] = [{"model": rep.model, "endpoint": rep.endpoint,
                        "status": rep.status}]
    code = {"pass": 0, "fail": 1, "partial": 2}[rep.status]
    return code, payload


def _cmd_catalog(args):
    if not args.check:
        rows = []
        for e in catalog_mod.ENTRIES:
            if args.table in ("table1", "both"):
                rows.append({"model": e.name, "class": e.klass, "column": "anywhere",
                             "rate": e.table1.rate, "alpha": str(e.table1.alpha),
                             "constants": " ; ".join(e.table1.constants)})
            if args.table in ("table2", "both") and e.table2:
                for col in ("x_axis", "y_axis", "origin"):
                    sa = e.table2[col]
                    rows.append({"model": e.name, "class": e.klass, "column": col,
                                 "rate": sa.rate, "alpha": str(sa.alpha),
                                 "constants": " ; ".join(sa.constants)})
        return 0, {"schema_version": SCHEMA_VERSION, "rows": rows}
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    n_max = args.n if args.n is not None else 512
    results = catalog_mod.reproduce_tables(args.table, modes, n_max=n_max,
                                           prec=args.precision_bits,
                                           threads=args.threads)
    rows = [{"model": r.model, "table": r.table, "column": r.column,
             "mode": r.mode, "status": r.status} for r in results]
    statuses = {r.status for r in results}
    code = 1 if "fail" in statuses else (2 if "partial" in statuses else 0)
    payload = {"schema_version": SCHEMA_VERSION, "rows": rows,
               "details": [
                   {"model": r.model, "table": r.table, "column": r.column,
                    "mode": r.mode, "status": r.status, "details": r.details}
                   for r in results]}
    return code, payload


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.precision_bits < MIN_PREC_BITS:
            raise UsageError(f"--precision-bits must be at least {MIN_PREC_BITS}")
        for flag, least in (("n", 0), ("order", 1), ("digits", 1), ("threads", 1)):
            value = getattr(args, flag, None)  # absent, or left at a None default
            if value is not None and value < least:
                raise UsageError(f"--{flag} must be at least {least}")
        with mp.workprec(args.precision_bits + GUARD_BITS):
            if args.command == "catalog":
                code, payload = _cmd_catalog(args)
            else:
                s = _resolve_model(args.model)
                handler = {
                    "count": _cmd_count,
                    "diagonal": _cmd_diagonal,
                    "orbitsum": _cmd_orbitsum,
                    "critical": _cmd_critical,
                    "asympt": _cmd_asympt,
                    "verify": _cmd_verify,
                }[args.command]
                code, payload = handler(args, s)
        _emit(payload, args.format, args.out)
        return code
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 3
    except (StepSetError, ValueError, CapacityError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
