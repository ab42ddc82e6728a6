"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to calibration.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from helpers import act, jet_coefficient, rational_equal
from orthantwalks.asympt import (
    asympt_closed,
    asympt_full,
    negative_drift_closed_constant,
    smooth_contribution,
    transverse_contribution,
)
from orthantwalks.catalog import (
    ENTRIES,
    HS,
    NEG,
    POS,
    eval_const,
    lookup,
    reproduce_tables,
)
from orthantwalks.critical import contributing_points, check_critical, minimal_point
from orthantwalks.enumeration import count_profile, count_walks
from orthantwalks.fit import estimate_growth
from orthantwalks.kernel import diag_kernel, diagonal_coeffs, orbit_sum, \
    orbit_sum_product_form, positive_part_check, group_elements
from orthantwalks.laurent import jet_of_exponential_substitution
from orthantwalks.stepset import build_stepset, classify, decompose

PREC = 192

THEOREM_ENTRIES = [e for e in ENTRIES if e.klass in (HS, POS, NEG)]

D3_EXAMPLE = build_stepset(
    3, [((0, 0, 1), 1)] + [((sx, sy, -1), 1) for sx in (-1, 1) for sy in (-1, 1)])


def report(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_table1_symbolic():
    t0 = time.time()
    res = reproduce_tables("table1", ("symbolic",), prec=PREC,
                           entries=THEOREM_ENTRIES)
    elapsed = time.time() - t0
    bad = [r for r in res if r.status != "pass"]
    ok = not bad and len(res) == 16 and elapsed < 30
    report(1, ok, f"16 theorem models match stored leading asymptotics to 1e-12 "
                  f"({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def both_tables():
    """One reproduction of both tables at n=512, read by criteria 02 and 08,
    so each of the 23 float enumerations runs once; returns (results, seconds)."""
    t0 = time.time()
    res = reproduce_tables("both", ("symbolic", "empirical"), n_max=512, prec=PREC)
    return res, time.time() - t0


def test_criterion_02_table1_empirical(both_tables):
    res, elapsed = both_tables
    res = [r for r in res if r.table == "table1" and r.mode == "empirical"]
    bad = [(r.model, r.details) for r in res if r.status != "pass"]
    ok = not bad and len(res) == 23 and elapsed < 300
    report(2, ok, f"23 models fit at n=512 within (1e-2, 0.05, 0.10) "
                  f"({elapsed:.1f}s) {bad[:2]}")


def test_criterion_03_diagonal_identity():
    ok = True
    for e in THEOREM_ENTRIES:
        s = e.stepset()
        got = diagonal_coeffs(diag_kernel(s), 12)
        want = count_walks(s, 12).values
        ok = ok and got == want
    got3 = diagonal_coeffs(diag_kernel(D3_EXAMPLE), 8)
    ok = ok and got3 == count_walks(D3_EXAMPLE, 8).values
    report(3, ok, "rational-diagonal coefficients equal the oracle exactly "
                  "(16 models to n=12; the 3D model to n=8)")


def test_criterion_04_positive_part_identity():
    ok = True
    for e in THEOREM_ENTRIES:
        rep = positive_part_check(e.stepset(), 6)
        ok = ok and rep.passed
    report(4, ok, "positive-part identity exact to n=6 on all 16 theorem models")


def test_criterion_05_contributing_points_example():
    s = build_stepset(2, ["N", "SE", "S", "SW"])
    with mp.workprec(PREC + 64):
        pts = contributing_points(s)
        ok = len(pts) == 2
        tol_res = mp.mpf(2) ** -160
        want = {1: 3 * mp.sqrt(3) * (2 + mp.sqrt(3)) / mp.pi,
                -1: 3 * mp.sqrt(3) * (2 - mp.sqrt(3)) / mp.pi}
        root3 = 1 / mp.sqrt(3)
        for p in pts:
            sign = 1 if mp.re(p.w[1]) > 0 else -1
            ok = ok and abs(p.w[0] - 1) == 0
            ok = ok and abs(p.w[1] - sign * root3) < tol_res
            ok = ok and abs(p.t - mp.mpf(1) / 2) < tol_res
            rep = check_critical(s, p, prec=PREC)
            ok = ok and rep.ok
            term = smooth_contribution(s, p, N=2)
            ok = ok and abs(term.coefficients[1] - want[sign]) < mp.mpf(10) ** -10
    report(5, ok, "exactly the two points (1, +-1/sqrt(3), 1/2); residuals "
                  "< 2^-160; engine leads 3*sqrt(3)*(2+-sqrt(3))/pi to 1e-10")


def test_criterion_06_engine_closed_cross_checks():
    ok = True
    with mp.workprec(PREC + 64):
        neg_models = [e.stepset() for e in ENTRIES if e.klass == NEG] + [D3_EXAMPLE]
        for s in neg_models:
            for p in contributing_points(s):
                term = smooth_contribution(s, p, N=2)
                kp, cp = negative_drift_closed_constant(s, p)
                lead = term.coefficients[1]
                if abs(cp) < mp.mpf(10) ** -20:
                    ok = ok and abs(lead) < mp.mpf(10) ** -10
                else:
                    ok = ok and abs(lead - kp * cp) / abs(kp * cp) < mp.mpf(10) ** -10
        for e in ENTRIES:
            if e.klass != POS:
                continue
            s = e.stepset()
            p2 = minimal_point(s)
            term = transverse_contribution(s, p2)
            closed = asympt_closed(s, PREC).periodic.constants[0]
            ok = ok and abs(term.coefficients[0] - closed) / closed < mp.mpf(10) ** -10
    report(6, ok, "depth-2 engine equals closed K_p*C_p on negative-drift models "
                  "and the 3D example; crossing formula equals the positive-drift "
                  "closed form, all to 1e-10")


def _fd(f, k, h):
    if k == 1:
        return (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)
    return (-f(2 * h) + 16 * f(h) - 30 * f(0) + 16 * f(-h) - f(-2 * h)) / (12 * h**2)


def test_criterion_07_derivative_identities():
    ok = True
    with mp.workprec(320):
        for e in THEOREM_ENTRIES:
            s = e.stepset()
            d = s.dim
            dcmp = decompose(s)
            sbar = s.sbar_poly()
            for p in contributing_points(s):
                jet = jet_of_exponential_substitution(sbar, p.exact_w(), 3)
                for j in range(d - 1):
                    e1 = tuple(1 if k == j else 0 for k in range(d))
                    e2 = tuple(2 if k == j else 0 for k in range(d))
                    bj = dcmp.eval_Bk(j, p.w)
                    ok = ok and not jet.value(e1)  # an exact zero
                    ok = ok and abs(jet_coefficient(jet, e2) * 2 + 2 * p.w[j] * bj) \
                        < mp.mpf(10) ** -30
                if p.stratum == "SmoothV1":
                    ed = tuple(2 if k == d - 1 else 0 for k in range(d))
                    bd = dcmp.eval_B(p.w)
                    ok = ok and abs(jet_coefficient(jet, ed) * 2 + 2 * bd / p.w[d - 1]) \
                        < mp.mpf(10) ** -30
                    em = (2, 1)
                    apj, bpj = dcmp.A.coeff_slice(0, 1), dcmp.B.coeff_slice(0, 1)
                    apv = apj.eval(()) if apj.dim == 0 else apj.eval(p.w[1:d - 1])
                    bpv = bpj.eval(()) if bpj.dim == 0 else bpj.eval(p.w[1:d - 1])
                    want = -2j * p.w[0] * (p.w[d - 1] * apv - bpv / p.w[d - 1])
                    ok = ok and abs(jet_coefficient(jet, em) * 2 - want) < mp.mpf(10) ** -30
                # finite differences confirm the first two axis derivatives
                h = mp.mpf(10) ** -4
                for j in (0, d - 1):
                    def f(t, j=j):
                        z = list(p.w)
                        z[j] = z[j] * mp.exp(mp.mpc(0, t))
                        return sbar.eval(tuple(z))

                    for k in (1, 2):
                        ej = tuple((k if i == j else 0) for i in range(d))
                        jet_val = jet_coefficient(jet, ej) * (1 if k == 1 else 2)
                        scale = max(abs(jet_val), mp.mpf(1))
                        ok = ok and abs(_fd(f, k, h) - jet_val) < mp.mpf(10) ** -8 * scale
    report(7, ok, "jet coefficients match the closed derivative forms to 1e-30 "
                  "at every contributing point; finite differences agree to 1e-8")


def test_criterion_08_table2(both_tables):
    res, elapsed = both_tables
    res = [r for r in res if r.table == "table2"]
    emp = [r for r in res if r.mode == "empirical"]
    sym = [r for r in res if r.mode == "symbolic"]
    emp_bad = [(r.model, r.column) for r in emp if r.status != "pass"]
    sym_bad = [(r.model, r.column) for r in sym
               if r.status not in ("pass", "partial", "skipped")]
    partials = {(r.model, r.column) for r in sym if r.status == "partial"}
    gamma_cell = next(r for r in emp if r.model == "N,SE,SW" and r.column == "x_axis")
    ok = (not emp_bad and not sym_bad and not partials
          and gamma_cell.status == "pass" and len(emp) == 19 * 3)
    report(8, ok, f"all 57 boundary-return cells fit empirically; every symbolic "
                  f"cell of a theorem model passes, none partial ({elapsed:.1f}s) "
                  f"{emp_bad[:2]}{sym_bad[:2]}{sorted(partials)[:2]}")


def test_criterion_09_weighted_family():
    ok = True
    with mp.workprec(PREC + 64):
        for (a, b, c, d, e) in ((1, 2, 1, 1, 1), (1, 1, 1, 2, 2)):
            s = build_stepset(2, [((1, 0), a), ((-1, 0), a),
                                  ((1, 1), b), ((-1, 1), b), ((0, 1), c),
                                  ((1, -1), d), ((-1, -1), d), ((0, -1), e)])
            pf = asympt_closed(s, PREC).periodic
            if 2 * b + c > 2 * d + e:
                rate = mp.mpf(2 * (a + b + d) + c + e)
                want = (1 - mp.mpf(2 * d + e) / (2 * b + c)) * mp.sqrt(
                    rate / ((a + b + d) * mp.pi))
                alpha = -0.5
            else:
                rate = 2 * a + 2 * mp.sqrt((2 * b + c) * (2 * d + e))
                r = mp.mpf(2 * b + c) / (2 * d + e)
                want = rate**2 / (2 * mp.pi * (1 - mp.sqrt(r)) ** 2
                                  * ((2 * b + c) * (2 * d + e)) ** mp.mpf("0.75")
                                  * mp.sqrt(d * mp.sqrt(r) + a + b / mp.sqrt(r)))
                alpha = -2.0
            ok = ok and abs(pf.constants[0] - want) / want < mp.mpf(10) ** -12
            ok = ok and abs(pf.rate_modulus - rate) / rate < mp.mpf(10) ** -12
            fit = estimate_growth(count_walks(s, 512, mode="float"))
            ok = ok and abs(math.log(fit.rho) - math.log(float(rate))) < 1e-2
            ok = ok and abs(fit.alpha - alpha) < 0.05
            ok = ok and abs(fit.constants[0] / float(want) - 1) < 0.10
    report(9, ok, "weighted family: closed constants match the general displays "
                  "to 1e-12 and empirical fits pass the n=512 tolerances")


def _corpus(count=52, seed=1729):
    rng = random.Random(seed)
    weights = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2)]
    corpus = []
    while len(corpus) < count:
        d = rng.choice((2, 2, 2, 3))
        mode = rng.choice(("pos", "neg", "hs"))
        reps = list(itertools.product((0, 1), repeat=d - 1))

        def layer(nonzero):
            out = {}
            for rvec in reps:
                if rng.random() < 0.5:
                    out[rvec] = rng.choice(weights)
            if nonzero and not out:
                out[rng.choice(reps)] = rng.choice(weights)
            return out

        a = layer(True)
        b = dict(a) if mode == "hs" else layer(True)
        q = layer(False)
        q.pop((0,) * (d - 1), None)
        for j in range(d - 1):
            if not any(rv[j] for lay in (a, q, b) for rv in lay):
                rj = tuple(1 if i == j else 0 for i in range(d - 1))
                a[rj] = rng.choice(weights)
                if mode == "hs":
                    b[rj] = a[rj]
        asum = sum(w * 2 ** sum(rv) for rv, w in a.items())
        bsum = sum(w * 2 ** sum(rv) for rv, w in b.items())
        if mode == "pos" and asum >= bsum:
            a, b, asum, bsum = b, a, bsum, asum
        if mode == "neg" and asum <= bsum:
            a, b, asum, bsum = b, a, bsum, asum
        if mode != "hs" and asum == bsum:
            continue
        steps = []
        for lay, zd in ((a, -1), (q, 0), (b, 1)):
            for rv, w in lay.items():
                choices = [(-1, 1) if c else (0,) for c in rv]
                for pattern in itertools.product(*choices):
                    steps.append((pattern + (zd,), w))
        corpus.append(build_stepset(d, steps))
    return corpus


def test_criterion_10_property_corpus():
    corpus = _corpus()
    ok = len(corpus) >= 50
    lam = Fraction(3, 2)
    with mp.workprec(PREC + 64):
        for i, s in enumerate(corpus):
            d = s.dim
            cls = classify(s)
            dc = decompose(s)
            # scaling / reflection invariances of the decomposition
            sc = decompose(s.scaled(lam))
            ones = (1,) * (d - 1)
            ok = ok and sc.total_weight == lam * dc.total_weight
            ok = ok and sc.b_scalars == tuple(lam * x for x in dc.b_scalars)
            drift_axis = s.axis_order[d - 1]
            for j in range(d):
                if j == drift_axis:
                    continue
                refl = [(tuple(-c if k == j else c for k, c in enumerate(v)), w)
                        for v, w in s.steps]
                ok = ok and decompose(build_stepset(d, refl)) == dc
            # orbit sum: product form and antisymmetry under every generator
            num, _ = orbit_sum(s)
            ok = ok and num == orbit_sum_product_form(s)
            dcmp2, elems = group_elements(s)
            for el in elems:
                if len(el.flips) + el.gamma != 1:
                    continue
                ok = ok and rational_equal(act(el, num, dcmp2), (-num, 0, 0), dcmp2)
            # enumeration: filter nesting and weight scaling at small n
            full = count_walks(s, 5).values
            ax = count_walks(s, 5, ("axes", (0,))).values
            org = count_walks(s, 5, "origin").values
            ok = ok and all(org[n] <= ax[n] <= full[n] for n in range(6))
            scaled_counts = count_walks(s.scaled(lam), 4).values
            ok = ok and scaled_counts == [v * lam**n for n, v in enumerate(full[:5])]
            # asymptotics: conjugate pairing, non-negative folded constants,
            # and weight-scaling invariance of the leading constants
            exp = asympt_full(s, prec=PREC)
            if exp.periodic is not None:
                ok = ok and all(c >= -mp.mpf(10) ** -25 for c in exp.periodic.constants)
                rates = [t.rate for t in exp.terms]
                for t in exp.terms:
                    if abs(mp.im(t.rate)) > mp.mpf(10) ** -30:
                        ok = ok and any(abs(mp.conj(t.rate) - r) < mp.mpf(10) ** -30
                                        for r in rates)
                exp2 = asympt_full(s.scaled(2), prec=PREC)
                ok = ok and exp2.periodic.period == exp.periodic.period
                ok = ok and abs(exp2.periodic.rate_modulus
                                - 2 * exp.periodic.rate_modulus) < mp.mpf(10) ** -30
                for c1, c2 in zip(exp.periodic.constants, exp2.periodic.constants):
                    ok = ok and abs(c1 - c2) < mp.mpf(10) ** -25
            assert ok, f"property failure on corpus model {i}: {s.describe()}"
    report(10, ok, f"scaling/reflection/relabeling, orbit-sum antisymmetry, "
                   f"filter nesting, and folding invariants hold on "
                   f"{len(corpus)} random models (d in {{2,3}})")
