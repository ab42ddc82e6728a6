"""The benchmark's workloads: their inputs, job lists and output checks.

catalog         One ``reproduce_tables("both", ("symbolic", "empirical"),
                n_max=512, threads=2)`` call over all 23 catalog entries: the
                paper's headline reproduction.  The 2D float DP (run in the
                package's thread pool) does most of the work, the saddle engine
                at default depth the rest.
deep-expansion  ``asympt_full`` depth ladders in 2D (N=2..4 and N=2..5) and a
                3D boundary expansion.  The jet engine and ``laurent`` jets do
                all the work and the DP none, so cost growth with depth N and
                with dimension d shows on its own.
verify          The per-model user path: ``verify_model`` on the 3D example and
                on two catalog models, an exact big-integer count, and three
                seeded weighted models, each verified and then counted exactly
                (in rational arithmetic when a weight is a half-integer).  It
                uses ``enumeration`` differently from catalog (a 3D grid, the
                big-integer and rational dict DP) and its engine work is
                shallow.

Each workload is sized to take 25-30 s on a 2-core machine, so that all the
runs a comparison needs fit in its time budget.  Only ``verify`` draws inputs
from the seed.  Every job's output is checked after the timed pass; a failed
check counts in ``fail_frac`` and a failed *hard* check also makes the run
incorrect.  Soft checks are the verdicts on seeded weighted models (a small
drift can make the empirical fit miss, and the draw is never repeated to
avoid that) and the known defect listed in ``KNOWN_DEFECTS``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from mpmath import mp

from orthantwalks import asympt, catalog, cli, enumeration, stepset
from spans import ratio

CATALOG_N_MAX = 512
CATALOG_THREADS = 2
VERIFY_3D_N_MAX = 144
EXACT_N = 200
WEIGHT_CHOICES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
# (template, exact count length): a drawn half-integer weight makes the dict
# DP run on Fractions, about four times slower than on integers.  The lengths
# keep each rational count under half a second, so that seed-driven swing
# stays small beside wall_s; the 8-step king walk is counted shorter.
WEIGHTED_TEMPLATES = (
    (("N", "S", "SE", "SW"), 64),
    (("NE", "NW", "S"), 64),
    (("N", "S", "E", "W", "NE", "NW", "SE", "SW"), 28),
)
GATE_N = {2: 20, 3: 10}
GATE_REL_TOL = 1e-12
EXACT_VS_FLOAT_REL_TOL = 1e-10
STORED_REL_TOL = mp.mpf("1e-10")

# asympt_full(N,SE,SW, axes=1, N=2) reports partial=False with alpha -2 and
# constants near 4e-77 where the catalog stores alpha -3 and 448*sqrt(2)/(9*pi):
# _fold scales its zero tolerance by the largest coefficient, which is itself
# rounding noise here.  The check still runs and counts in fail_frac.
KNOWN_DEFECTS = {
    "N,SE,SW axes=1 N=2": "_fold keeps rounding-noise coefficients as the leading term",
}

# 3D example {(0,0,1), (+-1,+-1,-1)} with axes=1 at default depth, recorded
# at the commit that introduced this benchmark: (alpha, rate modulus, period
# constants).
RECORDED_3D = (Fraction(-7, 2), "4", (
    "10.980730495436376072460540985", "9.82486412749570490693837877602",
    "7.07968150363661088882324352978", "4.62346547176268466208864883577"))


@dataclass
class Check:
    name: str
    status: str  # pass | fail | partial | skipped
    verdict: bool = True  # the verdict on one job or cell (base of partial_frac)
    hard: bool = True  # a hard failure makes the run incorrect
    detail: str = ""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    seed: int
    threads: int
    jobs: list
    gate_models: list  # models whose float DP the jobs run
    inputs: dict = field(default_factory=dict)  # JSON description of the inputs


# ------------------------------------------------------------------ inputs

def model_3d():
    return stepset.build_stepset(
        3, [((0, 0, 1), 1)] + [((a, b, -1), 1) for a in (1, -1) for b in (1, -1)])


def draw_weighted(rng):
    """One weighted model per template; each orbit of the template's own
    reflection group gets a weight drawn from WEIGHT_CHOICES, so the model
    keeps the template's symmetry class.  Returns (name, steps) pairs."""
    drawn = []
    for template, _ in WEIGHTED_TEMPLATES:
        vectors = [stepset.SHORTHAND_2D[name] for name in template]
        symmetric = [axis for axis in range(2)
                     if {_reflect(v, axis) for v in vectors} == set(vectors)]
        orbit_weight = {}
        steps = []
        for name, v in zip(template, vectors):
            key = tuple(abs(c) if axis in symmetric else c for axis, c in enumerate(v))
            if key not in orbit_weight:
                orbit_weight[key] = rng.choice(WEIGHT_CHOICES)
            steps.append((name, orbit_weight[key]))
        drawn.append((",".join(template), steps))
    return drawn


def _reflect(v, axis):
    return tuple(-c if j == axis else c for j, c in enumerate(v))


def build(name, seed):
    """The workload's inputs and job list; this is the timed set-up."""
    if name == "catalog":
        return _catalog(seed)
    if name == "deep-expansion":
        return _deep(seed)
    if name == "verify":
        return _verify(seed)
    raise ValueError(f"unknown workload {name!r}")


# --------------------------------------------------------------- workloads

def _catalog(seed):
    models = [e.stepset() for e in catalog.ENTRIES]
    for s in models:
        stepset.classify(s)

    def run():
        return catalog.reproduce_tables("both", ("symbolic", "empirical"),
                                        n_max=CATALOG_N_MAX, threads=CATALOG_THREADS)

    job = Job(f"reproduce_tables both n_max={CATALOG_N_MAX}", run, _check_cells)
    inputs = {"call": f'reproduce_tables("both", ("symbolic", "empirical"), '
                      f'n_max={CATALOG_N_MAX}, threads={CATALOG_THREADS})',
              "entries": len(models)}
    return Workload("catalog", seed, CATALOG_THREADS, [job], models, inputs)


def _deep(seed):
    m1 = stepset.build_stepset(2, ["N", "SE", "SW"])
    m2 = stepset.build_stepset(2, ["N", "S", "SE", "SW"])
    m3 = model_3d()
    ladders = [(m1, "N,SE,SW", ("axes", (0,)), "axes=1", "x_axis", (2, 3, 4)),
               (m2, "N,S,SE,SW", "origin", "origin", "origin", (2, 3, 4, 5))]
    jobs = []
    for s, label, flt, flt_label, column, depths in ladders:
        stored = catalog.lookup(label).table2[column]
        for n in depths:
            name = f"{label} {flt_label} N={n}"
            jobs.append(Job(name, _asympt_job(s, flt, n),
                            _periodic_check(name, _stored(stored))))
    name = "3D axes=1 default depth"
    jobs.append(Job(name, _asympt_job(m3, ("axes", (0,)), None),
                    _periodic_check(name, _recorded(RECORDED_3D))))
    inputs = {"jobs": [j.name for j in jobs],
              "3d_steps": [list(v) for v, _ in m3.steps]}
    return Workload("deep-expansion", seed, 1, jobs, [], inputs)


def _verify(seed):
    rng = random.Random(seed)
    m1 = stepset.build_stepset(2, ["N", "SE", "SW"])
    m2 = stepset.build_stepset(2, ["N", "S", "SE", "SW"])
    m3 = model_3d()
    drawn = draw_weighted(rng)
    weighted = [stepset.build_stepset(2, steps) for _, steps in drawn]
    for s in weighted:
        stepset.classify(s)
    jobs = [
        Job(f"verify 3D anywhere n_max={VERIFY_3D_N_MAX}",
            lambda: cli.verify_model(m3, n_max=VERIFY_3D_N_MAX),
            _verdict_check("verify 3D anywhere")),
        Job("verify N,S,SE,SW origin", lambda: cli.verify_model(m2, flt="origin"),
            _verdict_check("verify N,S,SE,SW origin")),
        Job("verify N,SE,SW axes=1", lambda: cli.verify_model(m1, flt=("axes", (0,))),
            _verdict_check("verify N,SE,SW axes=1")),
        Job(f"exact N,S,SE,SW n={EXACT_N}", _exact_job(m2, EXACT_N),
            _exact_check(f"exact N,S,SE,SW n={EXACT_N}", m2)),
    ]
    for k, (s, (template, _), (_, exact_n)) in enumerate(
            zip(weighted, drawn, WEIGHTED_TEMPLATES)):
        label = f"weighted#{k} {template}"
        jobs.append(Job(f"verify {label}", _verify_job(s),
                        _verdict_check(f"verify {label}", hard=False)))
        jobs.append(Job(f"exact {label} n={exact_n}", _exact_job(s, exact_n),
                        _exact_check(f"exact {label}", s)))
    inputs = {"seed": seed,
              "weighted_models": [
                  {"template": t, "steps": [[n, str(w)] for n, w in steps]}
                  for t, steps in drawn]}
    return Workload("verify", seed, 1, jobs, [m3, m2, m1] + weighted, inputs)


# ------------------------------------------------------------------- jobs

def _asympt_job(s, flt, depth):
    return lambda: asympt.asympt_full(s, flt, N=depth)


def _verify_job(s):
    return lambda: cli.verify_model(s)


def _exact_job(s, n):
    return lambda: enumeration.count_walks(s, n)


# ------------------------------------------------------------------ checks

def _check_cells(cells):
    checks = [Check(f"{c.model} {c.table} {c.column} {c.mode}", c.status) for c in cells]
    want = 2 * sum(1 + (3 if e.table2 else 0) for e in catalog.ENTRIES)
    checks.append(Check("cell count", "pass" if len(cells) == want else "fail",
                        verdict=False, detail=f"{len(cells)} of {want}"))
    return checks


def _verdict_check(name, hard=True):
    def check(report):
        return [Check(name, report.status, hard=hard, detail="; ".join(report.notes))]
    return check


def _rel_err(got, want):
    return abs(got - want) / abs(want) if want else abs(got)


def _compare_periodic(expansion, alpha, rate, constants):
    """'pass' when alpha matches and rate and every residue constant agree to
    STORED_REL_TOL (absolute for zero constants); 'partial' when the engine
    reports partial."""
    if expansion.partial or expansion.periodic is None:
        return "partial", "engine reports partial"
    pf = expansion.periodic
    if pf.alpha != alpha:
        return "fail", f"alpha {pf.alpha}, want {alpha}"
    if _rel_err(pf.rate_modulus, rate) > STORED_REL_TOL:
        return "fail", f"rate {mp.nstr(pf.rate_modulus, 15)}, want {mp.nstr(rate, 15)}"
    if pf.period % len(constants):
        return "fail", f"period {pf.period} not a multiple of {len(constants)}"
    for r, got in enumerate(pf.constants):
        want = constants[r % len(constants)]
        if _rel_err(got, want) > STORED_REL_TOL:
            return "fail", f"residue {r}: {mp.nstr(got, 15)}, want {mp.nstr(want, 15)}"
    return "pass", ""


def _periodic_check(name, want):
    """Check an expansion against ``want() -> (alpha, rate, constants)``."""
    def check(expansion):
        with mp.workprec(256):
            status, detail = _compare_periodic(expansion, *want())
        known = KNOWN_DEFECTS.get(name)
        if status == "fail" and known:
            return [Check(name, status, hard=False, detail=f"known defect: {known}; {detail}")]
        return [Check(name, status, detail=detail)]
    return check


def _stored(stored):
    return lambda: (stored.alpha, stored.rate_value(), stored.constant_values())


def _recorded(recorded):
    alpha, rate, constants = recorded
    return lambda: (alpha, mp.mpf(rate), [mp.mpf(c) for c in constants])


def _scaled_exact(s, values):
    s1 = s.total_weight()
    return [float(Fraction(v) / s1 ** k) for k, v in enumerate(values)]


def _max_rel_err(floats, exact):
    return max((_rel_err(f, e) for f, e in zip(floats, exact)), default=0.0)


def _exact_check(name, s):
    """Exact counts against the float DP over the same range, to 1e-10."""
    def check(series):
        n = series.n_max()
        floats = enumeration.count_profile(s, n)["anywhere"].values
        err = _max_rel_err(floats, _scaled_exact(s, series.values))
        ok = err <= EXACT_VS_FLOAT_REL_TOL and len(floats) == n + 1
        return [Check(name, "pass" if ok else "fail", detail=f"max rel err {err:.2e}")]
    return check


def tally(checks):
    """Counts and fractions over a run's checks.

    fail_frac: failed checks / checks attempted.  partial_frac: job or cell
    verdicts reported partial / verdicts.  correct: no hard check failed.
    """
    failed = [c for c in checks if c.status == "fail"]
    verdicts = [c for c in checks if c.verdict]
    return {
        "attempted": len(checks),
        "failed": len(failed),
        "fail_frac": ratio(len(failed), len(checks)),
        "partial_frac": ratio(sum(c.status == "partial" for c in verdicts), len(verdicts)),
        "correct": not any(c.hard for c in failed),
    }


def gate(models):
    """Float DP against exact DP / S(1)^n on every recorded filter, at small n."""
    checks = []
    for s in models:
        n = GATE_N[s.dim]
        profile = enumeration.count_profile(s, n)
        err = 0.0
        for flt, series in profile.items():
            exact = enumeration.count_walks(s, n, flt).values
            err = max(err, _max_rel_err(series.values, _scaled_exact(s, exact)))
        checks.append(Check(f"float vs exact DP {s.describe()} n={n}",
                            "pass" if err <= GATE_REL_TOL else "fail",
                            verdict=False, detail=f"max rel err {err:.2e}"))
    return checks

