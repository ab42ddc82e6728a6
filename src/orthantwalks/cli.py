"""The command-line surface: parsing, dispatch and output.

Each subcommand runs the library (``verify`` runs
``orthantwalks.verify.verify_model``) and writes its report as JSON, CSV or
Markdown.  Exit codes: 0 pass, 1 fail, 2 partial, 3 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

from mpmath import mp

from orthantwalks import catalog as catalog_mod
from orthantwalks.asympt import asympt_full
from orthantwalks.critical import check_critical, contributing_points
from orthantwalks.enumeration import CapacityError, count_walks
# perfbench/instrument.py wraps cli.estimate_growth and cli.verify_model by name,
# and perfbench/workloads.py calls cli.verify_model
from orthantwalks.fit import MIN_FIT_N, estimate_growth  # noqa: F401
from orthantwalks.kernel import diag_kernel, diagonal_coeffs, orbit_sum
from orthantwalks.laurent import DEFAULT_PREC_BITS, GUARD_BITS
from orthantwalks.stepset import (
    StepSet, StepSetError, filter_name, load_stepset, parse_filter, stepset_from_document)
from orthantwalks.verify import SCHEMA_VERSION, expansion_payload, verify_model


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_model(text) -> StepSet:
    if text is None:
        raise UsageError("--model is required")
    if os.path.exists(text):
        return load_stepset(text)
    try:
        return stepset_from_document(text)
    except StepSetError as ex:
        raise UsageError(f"cannot resolve model {text!r}: {ex}") from ex


def _emit(payload, fmt, out):
    rows = payload.get("rows", [])
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    elif fmt == "md":
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
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, out)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    else:
        sys.stdout.write(text)


FLAGS = {
    "--model": {"help": "model file path, catalog name, or compass list"},
    "--n": {"type": int, "default": None},
    "--endpoint": {"default": "anywhere", "help": "anywhere | origin | axes=1,2 (1-based)"},
    "--mode": {"choices": ("exact", "float"), "default": "exact"},
    "--order": {"type": int, "default": None, "help": "expansion depth N"},
    "--digits": {"type": int, "default": 16},
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
    "catalog": ("--n", "--check", "--table", "--modes"),
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


def _endpoint(args, s):
    try:
        return parse_filter(args.endpoint, s.dim)
    except ValueError as ex:
        raise UsageError(f"--endpoint: {ex}") from ex


def _float_count(series, k):
    """A float count as a plain float; past the float range, as a decimal
    mantissa and exponent read off its logarithm (12 significant digits)."""
    try:
        return repr(float(series.value(k)))
    except OverflowError:
        log10 = series.log_value(k) / math.log(10)
        exponent = math.floor(log10)
        mantissa, shift = f"{10 ** (log10 - exponent):.11e}".split("e")
        return f"{mantissa}e+{exponent + int(shift)}"


def _cmd_count(args, s):
    n = args.n if args.n is not None else 20
    flt = _endpoint(args, s)
    series = count_walks(s, n, flt, mode=args.mode)
    rows = []
    for k in range(n + 1):
        if args.mode == "exact":
            rows.append({"n": k, "count": str(series.values[k])})
        else:
            rows.append({"n": k, "count": _float_count(series, k),
                         "log_count": repr(series.log_value(k))})
    payload = {"schema_version": SCHEMA_VERSION, "model": s.describe(),
               "endpoint": filter_name(flt, s.dim), "mode": series.mode, "rows": rows}
    if series.mode == "float" and series.underflow:
        payload["underflow"] = True
    return 0, payload


def _cmd_diagonal(args, s):
    n = args.n if args.n is not None else 10
    flt = _endpoint(args, s)
    kern = diag_kernel(s)
    coeffs = diagonal_coeffs(kern, n, flt)
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
    pts = contributing_points(s)
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
    flt = _endpoint(args, s)
    exp = asympt_full(s, flt, N=args.order, prec=args.precision_bits)
    payload = {"schema_version": SCHEMA_VERSION, "model": s.describe(),
               "endpoint": filter_name(flt, s.dim)}
    payload.update(expansion_payload(exp, args.digits))
    pf = exp.periodic
    rows = []
    if pf is not None:
        for r, c in enumerate(pf.constants):
            rows.append({"residue": r, "constant": mp.nstr(c, args.digits),
                         "rate": pf.rate_modulus_exact, "alpha": str(pf.alpha)})
    payload["rows"] = rows
    return (2 if exp.partial else 0), payload


def _cmd_verify(args, s):
    rep = verify_model(s, n_max=args.n, flt=_endpoint(args, s),
                       prec=args.precision_bits, digits=args.digits)
    payload = rep.to_dict()
    payload["rows"] = [{"model": rep.model, "endpoint": rep.endpoint,
                        "status": rep.status}]
    code = {"pass": 0, "fail": 1, "partial": 2}[rep.status]
    return code, payload


def _cmd_catalog(args):
    modes = tuple(m.strip() for m in args.modes.split(","))
    if not set(modes) <= {"symbolic", "empirical"}:
        raise UsageError(f"--modes takes symbolic and/or empirical, got {args.modes!r}")
    n_max = args.n if args.n is not None else 512
    if args.check and "empirical" in modes and n_max < MIN_FIT_N:
        raise UsageError(f"--n must be at least {MIN_FIT_N}")  # the fitter's shortest series
    if not args.check:
        rows = [{"model": e.name, "class": e.klass, "column": col, "rate": sa.rate,
                 "alpha": str(sa.alpha), "constants": " ; ".join(sa.constants)}
                for e in catalog_mod.ENTRIES for _, col, sa in catalog_mod.cells(e, args.table)]
        return 0, {"schema_version": SCHEMA_VERSION, "rows": rows}
    results = catalog_mod.reproduce_tables(args.table, modes, n_max=n_max,
                                           prec=args.precision_bits)
    rows = [{"model": r.model, "table": r.table, "column": r.column,
             "mode": r.mode, "status": r.status} for r in results]
    statuses = {r.status for r in results}
    code = 1 if "fail" in statuses else (2 if "partial" in statuses else 0)
    payload = {"schema_version": SCHEMA_VERSION, "rows": rows,
               "details": [asdict(r) for r in results]}
    return code, payload


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # verify fits a series: refused below the fitter's shortest before any work
        n_least = MIN_FIT_N if args.command == "verify" else 0
        for flag, least in (("n", n_least), ("order", 1), ("digits", 1), ("precision-bits", 1)):
            value = getattr(args, flag.replace("-", "_"), None)  # absent, or a None default
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
    except (StepSetError, ValueError, CapacityError, OSError, OverflowError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
