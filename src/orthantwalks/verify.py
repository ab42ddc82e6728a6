"""Verification reports: ``verify_model`` checks a model's exact identities
against the enumeration oracle, and its predicted asymptotics (the engine's,
or else ``catalog.stored_cell``) against a growth fit with ``fit.compare``.
``expansion_payload`` is the JSON form of an expansion that the ``asympt``
and ``verify`` reports share.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from mpmath import mp

from orthantwalks.asympt import asympt_full
from orthantwalks.catalog import stored_cell
from orthantwalks.enumeration import count_walks
from orthantwalks.fit import MIN_FIT_N, compare, estimate_growth
from orthantwalks.kernel import diag_kernel, diagonal_coeffs, positive_part_check
from orthantwalks.laurent import DEFAULT_PREC_BITS, GUARD_BITS
from orthantwalks.stepset import (
    StepSet, UnsupportedModelError, check_count, classify, filter_name, normalize_filter)

SCHEMA_VERSION = "2"


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
        return {"schema_version": SCHEMA_VERSION, **asdict(self), "notes": list(self.notes)}


# by dimension: n up to which verify checks the exact identities (8 above 3D),
# and the length of the series it fits (MIN_FIT_N above 3D)
EXACT_N = {2: 12, 3: 12}
FIT_N = {2: 512, 3: 160}


def expansion_payload(exp, digits=16):
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
                "order_bound": len(t.coefficients),
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
                 digits=16) -> VerificationReport:
    """Full verification: exact identities, engine prediction, empirical fit.
    The prediction and its printed numbers are made at ``prec + GUARD_BITS``."""
    cls = classify(s)
    d = s.dim
    flt = normalize_filter(flt, d)
    n_max = FIT_N.get(d, MIN_FIT_N) if n_max is None else check_count(n_max, "n_max")
    exact_n = EXACT_N.get(d, 8)
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
        match = diagonal_coeffs(kern, exact_n, flt) == count_walks(s, exact_n, flt).values
        exact_checks["diagonal_vs_oracle"] = {"max_n": exact_n, "pass": match}
        ppc = positive_part_check(s)
        exact_checks["positive_part"] = {"max_n": ppc.max_n, "pass": ppc.passed}
        failed = failed or not match or not ppc.passed
    else:
        exact_checks["note"] = "kernel identities skipped: unsupported symmetry class"

    # the prediction: the engine's, or else the stored catalog values
    predicted = pf = None
    source = "engine"
    partial = not supported
    with mp.workprec(prec + GUARD_BITS):
        if supported:
            exp = asympt_full(s, flt, prec=prec)
            predicted = expansion_payload(exp, digits)
            partial = exp.partial
            pf = exp.periodic
        if pf is None:
            stored = stored_cell(s, flt)
            if stored is not None:
                pf, source = stored.periodic(), "catalog"
                notes.append("prediction from stored catalog values (empirical-only)")

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
        ok, comp = compare(pf, fit)
        comparisons[f"{source}_vs_empirical"] = comp
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
