"""Empirical growth fitting and its comparison with predicted asymptotics.

``estimate_growth`` estimates (rate, polynomial order, per-residue constants)
from an enumeration series by residue-class-local Richardson extrapolation;
``compare_fit`` checks such a fit against a prediction (engine output or
stored catalog values) with the one set of empirical tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from orthantwalks.enumeration import CountSeries

PERIOD_CANDIDATES = (1, 2, 3, 4, 6, 8)

EMP_LOG_RHO_TOL = 1e-2
EMP_ALPHA_TOL = 0.05
EMP_CONST_TOL = 0.10


@dataclass
class GrowthFit:
    rho: float
    alpha: float
    period: int
    constants: dict  # residue -> leading constant
    structural_zeros: tuple
    converged: bool
    diagnostics: dict


def _neville(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    vals = list(ys)
    n = len(vals)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            vals[i] = (x1 * vals[i] - x0 * vals[i + 1]) / (x1 - x0)
    return vals[0]


def _stride(n_max, p):
    """Difference stride: a multiple of the period that also kills the phase
    oscillation of subdominant terms (roots of unity of small order).  Short
    series use stride 12 so the node ladder keeps enough headroom; 12 is a
    multiple of every phase order arising here (1, 2, 3, 4, 6)."""
    if n_max >= 320 and 24 % p == 0:
        return 24
    if n_max >= 72 and 12 % p == 0:
        return 12
    return math.lcm(p, 4)


CHAIN_FACTORS = (1, 0.87, 0.76, 0.66, 0.57, 0.5, 0.43, 0.37, 0.32, 0.28, 0.24, 0.21)


def _class_chain(logs, r, p, q):
    """Sample indices across the upper tail, all congruent mod the stride q
    (and hence in the residue class r mod p), largest first.  Spacing is mild
    so the extrapolation has enough nodes to model slowly converging
    correction ladders without reaching into small-n territory."""
    n_max = len(logs) - 1
    top = n_max - 2 * q
    top -= (top - r) % p
    out = []
    for f in CHAIN_FACTORS:
        n = min(int((n_max - 2 * q) * f), top)
        n -= (n - top) % q
        if n >= 2 * q and n not in out \
                and all(math.isfinite(logs[n + k * q]) for k in (0, 1, 2)):
            out.append(n)
    return out


def estimate_growth(series: CountSeries) -> GrowthFit:
    """Fit s_n ~ C_r rho^n n^alpha per residue class.

    Period: smallest candidate for which every residue class has a consistent
    zero pattern and stable within-class ratios in the tail.  alpha comes from
    second differences of log s_n taken at a phase-killing stride (both rho
    and the class constant cancel exactly), rho from first differences, and
    the constants follow; each is Richardson extrapolated over a tail node
    ladder.  Extrapolation runs in 1/n by default, switching to 1/sqrt(n)
    when that basis is decisively more self-consistent (correction ladders of
    these models can carry half-integer steps).
    """
    n_max = series.n_max()
    if n_max < 64:
        raise ValueError("series too short for growth estimation (need n_max >= 64)")
    logs = [series.log_value(n) for n in range(n_max + 1)]
    if all(not math.isfinite(v) for v in logs[1:]):
        raise ValueError("series is identically zero")

    def tail_indices(r, p):
        start = max(n_max // 2, 8)
        first = start + ((r - start) % p)
        return range(first, n_max + 1, p)

    chosen = None
    for p in PERIOD_CANDIDATES:
        ok = True
        any_live = False
        for r in range(p):
            idx = list(tail_indices(r, p))
            alive = [math.isfinite(logs[n]) for n in idx]
            if all(not a for a in alive):
                continue
            if not all(alive):
                ok = False
                break
            any_live = True
            ratios = [logs[n + p] - logs[n] for n in idx[:-1]]
            jumps = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
            if jumps and max(jumps[-6:]) > 0.02:
                ok = False
                break
        if ok and any_live:
            chosen = p
            break
    converged = chosen is not None
    p = chosen if converged else PERIOD_CANDIDATES[-1]
    q = _stride(n_max, p)

    structural = []
    alphas, rhos, constants = {}, {}, {}
    for r in range(p):
        idx = list(tail_indices(r, p))
        if all(not math.isfinite(logs[n]) for n in idx):
            structural.append(r)
            continue
        nodes = _class_chain(logs, r, p, q)
        if len(nodes) < 3:
            continue
        a_vals = []
        for n in nodes:
            num = logs[n + 2 * q] - 2 * logs[n + q] + logs[n]
            den = math.log(n + 2 * q) - 2 * math.log(n + q) + math.log(n)
            a_vals.append(num / den)
        trials = {}
        for basis in ("n", "sqrt"):
            xs = [1.0 / n if basis == "n" else n**-0.5 for n in nodes]
            full = _neville(xs, a_vals)
            shallow = _neville(xs[:-1], a_vals[:-1])
            trials[basis] = (abs(full - shallow), full, xs)
        basis = "sqrt" if trials["sqrt"][0] < 0.5 * trials["n"][0] else "n"
        _, alpha_r, xs = trials[basis]
        alphas[r] = alpha_r
        g_vals = [(logs[n + q] - logs[n] - alpha_r * (math.log(n + q) - math.log(n))) / q
                  for n in nodes]
        log_rho = _neville(xs, g_vals)
        rhos[r] = log_rho
        exps = [logs[n] - n * log_rho - alpha_r * math.log(n) for n in nodes]
        if any(abs(e) > 300 for e in exps):
            converged = False
            continue
        constants[r] = _neville(xs, [math.exp(e) for e in exps])

    if not alphas or not constants:
        raise ValueError("no residue class with enough data to fit")
    alpha = sum(alphas.values()) / len(alphas)
    log_rho = sum(rhos.values()) / len(rhos)
    diag = {
        "alpha_spread": max(alphas.values()) - min(alphas.values()),
        "log_rho_spread": max(rhos.values()) - min(rhos.values()),
        "classes": sorted(alphas),
    }
    return GrowthFit(math.exp(log_rho), alpha, p, constants, tuple(structural),
                     converged, diag)


def compare_fit(fit: GrowthFit, rate, alpha, constants):
    """Check a fit against predicted (rate, alpha, per-residue constants).

    The predicted period is ``len(constants)``.  Passes when |log rho_fit -
    log rate| < EMP_LOG_RHO_TOL, |alpha_fit - alpha| < EMP_ALPHA_TOL and
    |C_fit/C - 1| < EMP_CONST_TOL on every nonzero predicted residue class,
    with no fitted constant above 1e-6 of the largest one where the prediction
    is zero.  One period must divide the other.  Returns ``(ok, details)``.
    """
    period = len(constants)
    comp = {"log_rho_err": abs(math.log(fit.rho) - math.log(rate)),
            "alpha_err": abs(fit.alpha - alpha)}
    ok = comp["log_rho_err"] < EMP_LOG_RHO_TOL and comp["alpha_err"] < EMP_ALPHA_TOL
    span = max(period, fit.period)
    if span % period or span % fit.period:
        return False, {"reason": f"fit period {fit.period} incompatible with {period}"}
    cerrs = {}
    scale = max([abs(c) for c in constants] or [1.0])
    for r in range(span):
        want = constants[r % period]
        got = fit.constants.get(r % fit.period)
        if abs(want) < 1e-9 * scale:
            if got is not None and abs(got) > 1e-6 * scale:
                cerrs[str(r)] = float("inf")
                ok = False
            continue
        if got is None:
            cerrs[str(r)] = float("inf")
            ok = False
            continue
        cerrs[str(r)] = abs(got / want - 1)
        ok = ok and cerrs[str(r)] < EMP_CONST_TOL
    comp["constant_rel_errs"] = cerrs
    return ok, comp
