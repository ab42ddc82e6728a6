"""Saddle-point engine vs closed forms, derivative identities, and folding."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from helpers import (
    jet_coefficient,
    numeric_fold,
    numeric_jet_of_exponential_substitution,
    numeric_saddle_coefficients,
    numeric_saddle_jets,
    operator_saddle_coefficients,
    symmetric_3d_corpus,
    symmetric_corpus,
    symmetric_models,
)
from orthantwalks.asympt import (
    ContributionTerm,
    _fold,
    _Integrand,
    _phase_jets,
    _saddle_coefficients,
    asympt_closed,
    asympt_full,
    negative_drift_closed_constant,
    smooth_contribution,
    transverse_contribution,
)
from orthantwalks.catalog import COLUMN_FILTERS, ENTRIES, lookup, reproduce_tables
from orthantwalks.cli import main
from orthantwalks.critical import (
    TRANSVERSE,
    QuadVal,
    check_critical,
    contributing_points,
    minimal_point,
    smooth_sheet_points,
)
from orthantwalks.enumeration import count_walks
from orthantwalks.kernel import diag_kernel, diagonal_coeffs
from orthantwalks.laurent import (
    GUARD_BITS,
    LaurentPoly,
    jet_of_exponential_substitution,
    noise_floor,
)
from orthantwalks.stepset import (
    UnsupportedModelError,
    build_stepset,
    classify,
    decompose,
)
from orthantwalks.verify import verify_model

NSGROUP = build_stepset(2, ["N", "SE", "S", "SW"])
NNWS = build_stepset(2, ["NE", "NW", "S"])
NSEW = build_stepset(2, ["N", "S", "E", "W"])
S3 = build_stepset(
    3, [((0, 0, 1), 1)] + [((sx, sy, -1), 1) for sx in (-1, 1) for sy in (-1, 1)])
S4 = build_stepset(
    4, [((0, 0, 0, 1), 1)] + [((sx, sy, sz, -1), 1) for sx in (-1, 1) for sy in (-1, 1)
                              for sz in (-1, 1)])
# the drift axis first (x) in 2D and in the middle (y) in 3D
W_NE_SE = build_stepset(2, ["W", "NE", "SE"])
S3_MIDDLE = build_stepset(
    3, [((0, 1, 0), 1)] + [((sx, -1, sz), 1) for sx in (-1, 1) for sz in (-1, 1)])

PREC = 192


def nval(x):
    return complex(x)


def test_closed_form_positive_drift():
    with mp.workprec(260):
        exp = asympt_closed(NNWS)
        assert exp.periodic.period == 1
        want = mp.sqrt(3) / (2 * mp.sqrt(mp.pi))
        assert abs(exp.periodic.constants[0] - want) < mp.mpf(10) ** -40
        assert exp.alpha == Fraction(-1, 2)
        assert exp.periodic.rate_modulus_exact == "3"


def test_closed_form_negative_drift_periodic():
    with mp.workprec(260):
        exp = asympt_closed(NSGROUP)
        pf = exp.periodic
        assert pf.period == 2 and pf.alpha == -2
        assert abs(pf.constants[0] - 12 * mp.sqrt(3) / mp.pi) < mp.mpf(10) ** -40
        assert abs(pf.constants[1] - 18 / mp.pi) < mp.mpf(10) ** -40
        assert pf.rate_modulus_exact == "2*sqrt(3)"


def test_closed_form_highly_symmetric_weighted():
    # general one-symmetry weighted model specialized to the symmetric case
    a, b, c = 1, 2, 1
    s = build_stepset(2, [((1, 0), a), ((-1, 0), a),
                          ((1, 1), b), ((-1, 1), b), ((0, 1), c),
                          ((1, -1), b), ((-1, -1), b), ((0, -1), c)])
    with mp.workprec(260):
        exp = asympt_closed(s)
        rate = 2 * a + 2 * c + 4 * b
        want = rate / (mp.pi * mp.sqrt((a + 2 * b) * (c + 2 * b)))
        assert abs(exp.periodic.rate_modulus - rate) < mp.mpf(10) ** -40
        assert abs(exp.periodic.constants[0] - want) < mp.mpf(10) ** -40
        assert exp.alpha == -1


def test_weighted_family_positive_and_negative():
    # the two-parameter family display evaluated directly vs the closed route
    with mp.workprec(260):
        for (a, b, c, d, e) in ((1, 2, 1, 1, 1), (1, 1, 1, 2, 2)):
            s = build_stepset(2, [((1, 0), a), ((-1, 0), a),
                                  ((1, 1), b), ((-1, 1), b), ((0, 1), c),
                                  ((1, -1), d), ((-1, -1), d), ((0, -1), e)])
            exp = asympt_closed(s)
            pf = exp.periodic
            if 2 * b + c > 2 * d + e:
                rate = 2 * (a + b + d) + c + e
                want = (1 - mp.mpf(2 * d + e) / (2 * b + c)) * mp.sqrt(
                    mp.mpf(rate) / ((a + b + d) * mp.pi))
                assert pf.alpha == Fraction(-1, 2)
            else:
                rate = 2 * a + 2 * mp.sqrt((2 * b + c) * (2 * d + e))
                r = mp.mpf(2 * b + c) / (2 * d + e)
                want = rate**2 / (2 * mp.pi * (1 - mp.sqrt(r)) ** 2
                                  * ((2 * b + c) * (2 * d + e)) ** mp.mpf("0.75")
                                  * mp.sqrt(d * mp.sqrt(r) + a + b / mp.sqrt(r)))
                assert pf.alpha == -2
            assert abs(pf.rate_modulus - rate) / rate < mp.mpf(10) ** -30
            assert abs(pf.constants[0] - want) / want < mp.mpf(10) ** -30


def test_engine_matches_example_constants():
    with mp.workprec(260):
        pts = contributing_points(NSGROUP)
        want = {1: 3 * mp.sqrt(3) * (2 + mp.sqrt(3)) / mp.pi,
                -1: 3 * mp.sqrt(3) * (2 - mp.sqrt(3)) / mp.pi}
        for p in pts:
            term = smooth_contribution(NSGROUP, p, N=2)
            sign = 1 if mp.re(p.w[1]) > 0 else -1
            assert abs(term.coefficients[0]) < mp.mpf(10) ** -30
            assert abs(term.coefficients[1] - want[sign]) < mp.mpf(10) ** -30


def test_engine_equals_closed_constants_negative_drift():
    with mp.workprec(260):
        for s in (NSGROUP, build_stepset(2, ["N", "SE", "SW"]),
                  build_stepset(2, ["N", "E", "W", "SE", "SW"])):
            for p in contributing_points(s):
                term = smooth_contribution(s, p, N=2)
                kp, cp = negative_drift_closed_constant(s, p)
                lead = term.coefficients[1]
                if abs(cp) < mp.mpf(10) ** -30:
                    assert abs(lead) < mp.mpf(10) ** -30
                else:
                    assert abs(lead - kp * cp) / abs(kp * cp) < mp.mpf(10) ** -30


def test_crossing_evaluation_matches_closed_positive():
    with mp.workprec(260):
        for steps in (["NE", "NW", "S"], ["N", "NW", "NE", "S"],
                      ["NE", "NW", "E", "W", "S"]):
            s = build_stepset(2, steps)
            p2 = minimal_point(s)
            term = transverse_contribution(s, p2)
            closed = asympt_closed(s, PREC).periodic.constants[0]
            assert abs(term.coefficients[0] - closed) / closed < mp.mpf(10) ** -30


@pytest.mark.parametrize("steps", [["NE", "SE", "NW", "SW"], ["N", "S", "E", "W"]])
def test_crossing_formula_rejects_zero_drift_point(steps):
    # the smooth-sheet search labels the zero-drift points with w_d = 1
    # transverse, but their rate is Sbar(w), not S(w, 1): the crossing formula
    # must refuse them (it raised ZeroDivisionError on the first model and
    # used 2 for S(1) = 4 on the second)
    s = build_stepset(2, steps)
    labelled = [p for p in smooth_sheet_points(s) if p.stratum == TRANSVERSE]
    assert labelled
    with mp.workprec(260):
        for p in labelled:
            with pytest.raises(ValueError, match="crossing point"):
                transverse_contribution(s, p)


def test_the_search_not_the_form_of_the_rate_marks_a_crossing_point():
    # the all-ones smooth-sheet point of N,S,E,W has Sbar = 2 + 2*sqrt(1), the
    # rational 4, as a crossing rate S(w, 1) is; it is still no crossing point
    p = next(p for p in smooth_sheet_points(NSEW) if p.is_principal())
    assert p.rate_exact == QuadVal(4) and p.stratum == TRANSVERSE and not p.crossing
    with mp.workprec(PREC + GUARD_BITS):
        with pytest.raises(ValueError, match="requires a crossing point"):
            transverse_contribution(NSEW, p)
        # NE,NW,S at 'anywhere' expands its crossing points only
        with pytest.raises(ValueError, match="does not take a smooth-sheet point"):
            smooth_contribution(NNWS, p, 2, "anywhere")


def test_closed_constant_rejects_crossing_point():
    p2 = minimal_point(NNWS)
    with pytest.raises((ZeroDivisionError, ValueError)):
        negative_drift_closed_constant(NNWS, p2)


def test_d3_example_constants():
    with mp.workprec(280):
        exp = asympt_full(S3, prec=224)
        pf = exp.periodic
        crho = 2 ** mp.mpf("4.5") / mp.pi ** mp.mpf("1.5")
        cmrho = crho / 9
        assert pf.period == 2
        assert pf.alpha == Fraction(-5, 2) - 1 + 1  # -d/2 - 1 = -5/2
        assert abs(pf.constants[0] - (crho + cmrho)) < mp.mpf(10) ** -30
        assert abs(pf.constants[1] - (crho - cmrho)) < mp.mpf(10) ** -30
    # perfect-square radicands print as their roots, real and imaginary
    assert pf.rate_modulus_exact == "4"
    assert {"4", "-4", "4*i", "-4*i"} <= {str(t.rate_exact) for t in exp.terms}


# --------------------------------------------------- derivative identities

def _lemma_targets(s, dcmp, p):
    """Closed forms for low-order derivatives of the phase polynomial jet."""
    d = s.dim
    with mp.workprec(280):
        jet = jet_of_exponential_substitution(s.sbar_poly(), p.exact_w(), 3)
        out = []
        for j in range(d - 1):
            e1 = tuple(1 if k == j else 0 for k in range(d))
            e2 = tuple(2 if k == j else 0 for k in range(d))
            bj = dcmp.eval_Bk(j, p.w)
            assert not jet.value(e1)  # an exact zero
            out.append((jet_coefficient(jet, e2) * 2, -2 * p.w[j] * bj))
        if p.stratum == "SmoothV1":
            ed1 = tuple(1 if k == d - 1 else 0 for k in range(d))
            ed2 = tuple(2 if k == d - 1 else 0 for k in range(d))
            bd = dcmp.eval_B(p.w)
            assert not jet.value(ed1)
            out.append((jet_coefficient(jet, ed2) * 2, -2 * bd / p.w[d - 1]))
            for j in range(d - 1):
                e = tuple((2 if k == j else 0) + (1 if k == d - 1 else 0)
                          for k in range(d))
                apj, bpj = dcmp.A.coeff_slice(j, 1), dcmp.B.coeff_slice(j, 1)
                zhat = tuple(c for i, c in enumerate(p.w[: d - 1]) if i != j)
                apv = apj.eval(zhat) if apj.dim else apj.eval(())
                bpv = bpj.eval(zhat) if bpj.dim else bpj.eval(())
                want = -2j * p.w[j] * (p.w[d - 1] * apv - bpv / p.w[d - 1])
                out.append((jet_coefficient(jet, e) * 2, want))
        return out


def test_jet_derivative_identities_at_contributing_points():
    for steps in (["N", "SE", "S", "SW"], ["N", "SE", "SW"], ["NE", "NW", "S"],
                  ["N", "S", "E", "W"]):
        s = build_stepset(2, steps)
        dcmp = decompose(s)
        for p in contributing_points(s):
            with mp.workprec(280):
                for got, want in _lemma_targets(s, dcmp, p):
                    assert abs(got - want) < mp.mpf(10) ** -30


def test_phase_hessian_matches_closed_form():
    with mp.workprec(280):
        for s in (NSGROUP, build_stepset(2, ["N", "E", "W", "SE", "SW"])):
            dcmp = decompose(s)
            for p in contributing_points(s):
                _, lam = _phase_jets(s.sbar_poly(), p.exact_w(), 4)
                sbar = p.rate()
                for j in range(s.dim - 1):
                    want = 2 * p.w[j] * dcmp.eval_Bk(j, p.w) / sbar
                    assert abs(lam[j].to_mp() - want) < mp.mpf(10) ** -30
                want_d = 2 * dcmp.eval_B(p.w) / (p.w[s.dim - 1] * sbar)
                assert abs(lam[s.dim - 1].to_mp() - want_d) < mp.mpf(10) ** -30


def _expanded_integrands(s, axes):
    """(point, phase, exact centre, [phase, numerator, *denominators]) at every
    point ``asympt_full`` expands for the filter on ``axes``."""
    flt = ("axes", tuple(sorted(axes))) if axes else "anywhere"
    f = _Integrand(s, s.canonical_variant(flt))
    for p in [t.point for t in asympt_full(s, flt, N=1, prec=PREC).terms]:
        yield p, f.phase, p.exact_w()[:f.dim], [f.phase, f.num] + f.dens


@settings(max_examples=25, deadline=None)
@given(symmetric_models(dims=(2, 3)), st.integers(2, 6), st.data())
def test_exact_jets_match_numeric_substitution(s, order, data):
    # the numeric route evaluates at the rounded centre: every coefficient the
    # exact jet keeps agrees with it, and every one it drops is noise there
    axes = data.draw(st.sets(st.integers(0, s.dim - 1)), label="axes")
    with mp.workprec(PREC + GUARD_BITS):
        for p, _, center, polys in _expanded_integrands(s, axes):
            for poly in polys:
                exact = jet_of_exponential_substitution(poly, center, order)
                oracle = numeric_jet_of_exponential_substitution(poly, p.w[:poly.dim], order,
                                                                 PREC)
                assert set(exact.values()) <= set(oracle.coeffs)
                # the terms are O(1): where every coefficient vanishes, the
                # largest is noise and must not set the scale
                scale = max([abs(c) for c in oracle.coeffs.values()] + [mp.mpf(1)])
                for e, c in oracle.coeffs.items():
                    if exact.value(e):
                        assert abs(jet_coefficient(exact, e) - c) <= mp.mpf(2) ** -200 * abs(c)
                    else:
                        assert abs(c) <= mp.mpf(2) ** -(PREC // 2) * scale


@settings(max_examples=25, deadline=None)
@given(symmetric_models(dims=(2, 3)), st.integers(2, 6), st.data())
def test_exact_phase_jet_is_diagonal_and_positive(s, order, data):
    # what the engine does not check: no gradient, no mixed second-order
    # term, and a Hessian with positive real entries, decided exactly
    axes = data.draw(st.sets(st.integers(0, s.dim - 1)), label="axes")
    with mp.workprec(PREC + GUARD_BITS):
        for _, phase, center, _ in _expanded_integrands(s, axes):
            g, lam = _phase_jets(phase, center, order)
            for jet in (jet_of_exponential_substitution(phase, center, order), g):
                assert not [e for e in jet.values() if sum(e) == 1 or (sum(e) == 2 and max(e) == 1)]
            assert all(l.unit() == 1 for l in lam)


def test_high_order_vanishing_numerator_kills_first_correction():
    # a numerator vanishing to order >= 3 at the saddle forces L_0 = L_1 = 0:
    # (1 - z_1)^2 (1 - 3 z_2^2) vanishes to order 3 at (1, 1/sqrt(3)), and a
    # product of two such jets to order 6 (L_2 = 0 too)
    w = minimal_point(NSGROUP).exact_w()
    with mp.workprec(280):
        g, lam = _phase_jets(NSGROUP.sbar_poly(), w, 6)
        x, y = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
        cubic = jet_of_exponential_substitution((1 - x) * (1 - x) * (1 - 3 * y * y), w, 6)
        assert min(sum(e) for e in cubic.values()) == 3
        assert _saddle_coefficients(cubic, g, lam, 2) == [0, 0]
        sixth = _saddle_coefficients(cubic * cubic, g, lam, 3)
        assert sixth == [0, 0, 0]
        # one vanishing to order 2 keeps L_1
        lin = jet_of_exponential_substitution(1 - x, w, 6)
        assert [c == 0 for c in _saddle_coefficients(lin * lin, g, lam, 2)] == [True, False]


@pytest.mark.parametrize("s, axes", [(NSGROUP, (0, 1)), (NNWS, (0,)), (S3, (0,))],
                         ids=["N,S,SE,SW origin", "NE,NW,S axes=1", "3D axes=1"])
def test_engine_reads_the_amplitude_only_to_its_order(s, axes):
    # L_k reads u gU^l to degree 2(N-1+l), which u to degree 2(N-1) fixes
    # since gU^l starts at degree 3l: an amplitude jet of exactly that order
    # gives the operator route's coefficients, which read every jet to 6(N-1)
    variant, N = s.canonical_variant(("axes", axes)), 3
    plan = _Integrand(s, variant)
    with mp.workprec(280):
        pts = (contributing_points if plan.crossing else smooth_sheet_points)(s)
        want = [operator_saddle_coefficients(s, p, N, variant, PREC) for p in pts]
        scale = max(abs(c) for cs in want for c in cs)  # some points have only zeros
        for p, cs in zip(pts, want):
            u, g, lam = plan.jets(p, 2 * N, 2 * (N - 1))
            assert u.order == 2 * (N - 1)
            for got, w in zip(_saddle_coefficients(u, g, lam, N), cs):
                assert abs(got - w) <= mp.mpf(10) ** -60 * scale


# ------------------------------------------- explicit formula vs operator

@pytest.mark.parametrize("s, axes, depth", [
    (NSGROUP, (), 4),              # split form on the kernel sheet
    (NSGROUP, (0, 1), 4),          # split form, both boundary factors
    (build_stepset(2, ["N", "SE", "SW"]), (0,), 4),
    (NNWS, (), 4),                 # residue form at the crossing point
    (NNWS, (0,), 4),
    (NSEW, (), 4),                 # plain form
    (S3, (0,), 3),
], ids=["N,S,SE,SW anywhere", "N,S,SE,SW origin", "N,SE,SW axes=1", "NE,NW,S anywhere",
        "NE,NW,S axes=1", "N,S,E,W anywhere", "3D axes=1"])
def test_saddle_coefficients_match_operator_oracle(s, axes, depth):
    # the oracle builds every jet to degree 6(N-1) and applies the Hessian
    # operator; its depth-N coefficients are a prefix of its deeper ones.
    # Where the amplitude vanishes at the point (every boundary filter here)
    # the phase is read only to degree 2N-1; the unfiltered plain and residue
    # forms read it to degree 2N.
    flt = ("axes", axes)
    variant = s.canonical_variant(flt)
    with mp.workprec(280):
        pts = contributing_points(s)
        want = [operator_saddle_coefficients(s, p, depth, variant, PREC) for p in pts]
        scale = max(abs(c) for cs in want for c in cs)
        for p, cs in zip(pts, want):
            for n in range(1, depth + 1):
                got = smooth_contribution(s, p, N=n, flt=flt).coefficients
                assert len(got) == n
                for g, w in zip(got, cs):
                    assert abs(g - w) <= mp.mpf(10) ** -60 * scale


@settings(max_examples=15, deadline=None)
@given(symmetric_models(dims=(2, 3)), st.integers(1, 4), st.data())
def test_exact_engine_matches_mpc_oracle(s, depth, data):
    # the mpc jets on the rounded centre share no arithmetic with the engine;
    # where an exact coefficient is 0 the oracle's is noise
    axes = data.draw(st.sets(st.integers(0, s.dim - 1)), label="axes")
    flt = ("axes", tuple(sorted(axes))) if axes else "anywhere"
    variant = s.canonical_variant(flt)
    oracle_prec = 2 * PREC
    for t in asympt_full(s, flt, N=depth, prec=PREC).terms:
        with mp.workprec(oracle_prec + GUARD_BITS):
            want = numeric_saddle_coefficients(s, t.point, depth, variant, oracle_prec)
            # floored at 1: where every coefficient vanishes, the largest is
            # noise and must not set the scale
            floor = mp.mpf(2) ** -(oracle_prec // 2) * max([abs(c) for c in want] + [1])
            for got, c in zip(t.coefficients, want):
                if got == 0:
                    assert abs(c) <= floor
                else:
                    assert abs(got - c) <= mp.mpf(2) ** -200 * abs(got)


@settings(max_examples=10, deadline=None)
@given(symmetric_models(dims=(2, 3)), st.integers(2, 6), st.data())
def test_exact_saddle_jets_match_mpc_oracle(s, order, data):
    axes = data.draw(st.sets(st.integers(0, s.dim - 1)), label="axes")
    flt = ("axes", tuple(sorted(axes))) if axes else "anywhere"
    variant = s.canonical_variant(flt)
    with mp.workprec(PREC + GUARD_BITS):
        for t in asympt_full(s, flt, N=1, prec=PREC).terms:
            u, g, lam = _Integrand(s, variant).jets(t.point, order, order)
            nu, ng, nlam = numeric_saddle_jets(s, t.point, variant, order, order, PREC)
            for l, nl in zip(lam, nlam):
                assert abs(l.to_mp() - nl) <= mp.mpf(2) ** -200 * abs(nl)
            for exact, oracle in ((u, nu), (g, ng)):
                scale = max([abs(c) for c in oracle.coeffs.values()] + [mp.mpf(1)])
                for e in set(exact.values()) | set(oracle.coeffs):
                    c = oracle.coefficient(e)
                    if exact.value(e):
                        assert abs(jet_coefficient(exact, e) - c) <= mp.mpf(2) ** -180 * scale
                    else:
                        assert abs(c) <= mp.mpf(2) ** -(PREC // 2) * scale


@settings(max_examples=12, deadline=None)
@given(symmetric_models(dims=(2, 3)), st.integers(1, 3), st.data())
def test_deeper_expansion_extends_shallower(s, depth, data):
    axes = data.draw(st.sets(st.integers(0, s.dim - 1)), label="axes")
    flt = ("axes", tuple(sorted(axes))) if axes else "anywhere"
    with mp.workprec(260):
        # the points asympt_full expands for this filter
        for p in [t.point for t in asympt_full(s, flt, N=1, prec=PREC).terms]:
            shallow = smooth_contribution(s, p, N=depth, flt=flt).coefficients
            deep = smooth_contribution(s, p, N=depth + 1, flt=flt).coefficients
            scale = max([abs(c) for c in deep] + [mp.mpf(1)])
            assert len(deep) == depth + 1
            for a, b in zip(shallow, deep):
                assert abs(a - b) <= mp.mpf(10) ** -60 * scale


@settings(max_examples=15, deadline=None)
@given(symmetric_models(dims=(2, 3)), st.integers(1, 3), st.data())
def test_smooth_contribution_takes_the_asympt_full_path(s, depth, data):
    # one plan decides the form: the per-point call reproduces every term of
    # asympt_full bit for bit at its working precision
    axes = data.draw(st.sets(st.integers(0, s.dim - 1)), label="axes")
    flt = ("axes", tuple(sorted(axes))) if axes else "anywhere"
    exp = asympt_full(s, flt, N=depth, prec=PREC)
    with mp.workprec(PREC + GUARD_BITS):
        for t in exp.terms:
            got = smooth_contribution(s, t.point, depth, flt)
            assert (got.rate_exact, got.alpha) == (t.rate_exact, t.alpha)
            assert [c._mpc_ for c in got.coefficients] == [c._mpc_ for c in t.coefficients]


def test_smooth_contribution_refuses_points_of_the_other_form():
    # positive drift: a free drift axis takes the crossing points, a returning
    # one the smooth-sheet points; the other search's points are refused, not
    # expanded in another form
    drift_axis = ("axes", (NNWS.axis_order[-1],))
    with mp.workprec(PREC + GUARD_BITS):
        for p in contributing_points(NNWS):
            smooth_contribution(NNWS, p, 2, "anywhere")
            with pytest.raises(ValueError, match="does not take a crossing point"):
                smooth_contribution(NNWS, p, 2, drift_axis)
        for p in smooth_sheet_points(NNWS):
            smooth_contribution(NNWS, p, 2, drift_axis)
            with pytest.raises(ValueError, match="does not take a smooth-sheet point"):
                smooth_contribution(NNWS, p, 2, "anywhere")


@pytest.mark.parametrize("s", [W_NE_SE, S3_MIDDLE], ids=["W,NE,SE", "3D drift on y"])
def test_one_filter_for_every_route_whatever_the_axis_order(s):
    # the diagonal, the DP oracle, the engine and the per-point expansion
    # all read one filter in the user's axes, whichever axis the drift is on
    assert s.axis_order == ((1, 0) if s.dim == 2 else (0, 2, 1))
    kern, n = diag_kernel(s), 8 if s.dim == 2 else 5
    filters = ["anywhere", "origin"] + [("axes", axes) for r in range(1, s.dim)
                                        for axes in itertools.combinations(range(s.dim), r)]
    for flt in filters:
        assert diagonal_coeffs(kern, n, flt) == count_walks(s, n, flt).values
        exp = asympt_full(s, flt, N=2, prec=PREC)
        with mp.workprec(PREC + GUARD_BITS):
            for t in exp.terms:
                got = smooth_contribution(s, t.point, 2, flt)
                assert (got.rate_exact, got.alpha) == (t.rate_exact, t.alpha)
                assert [c._mpc_ for c in got.coefficients] == [c._mpc_ for c in t.coefficients]


def test_a_drift_first_diagonal_reads_its_filter_in_user_axes():
    # the returns to x = 0, not to y = 0, which is canonical axis 0
    got = diagonal_coeffs(diag_kernel(W_NE_SE), 8, ("axes", (0,)))
    assert got == [1, 0, 1, 0, 4, 0, 15, 0, 84]


@pytest.mark.parametrize("flt", [("axes", (2,)), "nowhere", (0,)],
                         ids=["axis 3 in 2D", "nowhere", "bare axes"])
def test_both_routes_refuse_a_bad_filter(flt):
    p = smooth_sheet_points(W_NE_SE)[0]
    with pytest.raises(ValueError, match="filter"):
        diagonal_coeffs(diag_kernel(W_NE_SE), 4, flt)
    with mp.workprec(PREC + GUARD_BITS), pytest.raises(ValueError, match="filter"):
        smooth_contribution(W_NE_SE, p, 2, flt)


def test_d3_origin_expansion():
    # pinned from the operator route at default depth (4); depth 5 folds to
    # the same leading constants
    with mp.workprec(260):
        want = [mp.mpf("32.508741598331376530310812126533642319387596432523737129573465217"),
                0, 0, 0]
        for depth in (None, 5):
            exp = asympt_full(S3, "origin", N=depth, prec=PREC)
            pf = exp.periodic
            assert not exp.partial
            assert pf.period == 4 and pf.alpha == Fraction(-9, 2)
            for got, c in zip(pf.constants, want):
                assert abs(got - c) < mp.mpf(10) ** -30


def test_d4_expansion_matches_closed_form():
    # every point's n^-2 coefficient is an exact zero, so depth 2 reaches the
    # leading n^-3 term of the negative-drift theorem
    with mp.workprec(260):
        exp = asympt_full(S4, "anywhere", N=2, prec=PREC)
        closed = asympt_closed(S4, prec=PREC).periodic
        pf = exp.periodic
        assert not exp.partial and pf.alpha == closed.alpha == -3
        assert pf.period == closed.period == 2
        assert [mp.nstr(c, 11) for c in pf.constants] == ["3.3687722542", "2.1174059602"]
        for got, want in zip(pf.constants, closed.constants):
            assert abs(got - want) < mp.mpf(10) ** -30


def test_engine_sets_its_own_working_precision():
    # asympt_full sets the one precision every jet and the fold run at, so the
    # ambient precision reaches no bit of a term coefficient or folded constant
    cases = [(e.stepset(), COLUMN_FILTERS[col]) for e in ENTRIES if e.theorem_covered()
             for col in ("anywhere", "x_axis", "y_axis", "origin")]
    cases += [(S3, flt) for flt in ("anywhere", "origin", ("axes", (0,)), ("axes", (2,)))]
    for s, flt in cases:
        runs = []
        for ambient in (53, 600):
            with mp.workprec(ambient):
                exp = asympt_full(s, flt, 2, prec=192)
            runs.append(([[c._mpc_ for c in t.coefficients] for t in exp.terms],
                         exp.periodic and [c._mpf_ for c in exp.periodic.constants]))
        assert runs[0] == runs[1], (s.describe(), flt)


def _bits(form):
    return form and (form.period, form.alpha, form.rate_modulus._mpf_,
                     [c._mpf_ for c in form.constants])


def test_public_calls_set_their_own_working_precision(tmp_path):
    # each public call that returns numbers sets prec + GUARD_BITS once; the
    # points are exact data, the same at any precision
    theorem = [e.stepset() for e in ENTRIES if e.theorem_covered()]
    sel = [lookup(name) for name in ("N,S,E,W", "NE,NW,S", "N,SE,SW")]
    runs = []
    for ambient in (53, 600):
        with mp.workprec(ambient):
            closed = [asympt_closed(s, prec=192) for s in theorem]
            points = [contributing_points(s) for s in theorem + [S3]]
            residuals = [{k: v._mpf_ for k, v in check_critical(s, p, prec=192).residuals.items()}
                         for s, pts in zip(theorem + [S3], points) for p in pts]
            reports = [verify_model(build_stepset(2, m.split(",")), n_max=128, prec=192,
                                    digits=30).to_dict() for m in ("N,SE,S,SW", "N,W,SE")]
            cells = reproduce_tables("both", ("symbolic",), prec=192, entries=sel)
        runs.append(([([getattr(c, "_mpc_", None) or c._mpf_ for t in e.terms
                        for c in t.coefficients], _bits(e.periodic)) for e in closed],
                     points, residuals, reports, cells))
    assert runs[0] == runs[1]
    # under ambient 53 bits the library prints each term's rate as the CLI does
    out = tmp_path / "verify.json"
    assert main(["verify", "--n", "128", "--digits", "30", "--model", "N,SE,S,SW",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["predicted"] == runs[0][3][0]["predicted"]


@pytest.mark.parametrize("depth", [0, -1])
def test_expansion_depth_must_be_positive(depth):
    with pytest.raises(ValueError, match="depth"):
        asympt_full(NSGROUP, N=depth)
    with pytest.raises(ValueError, match="depth"):
        smooth_contribution(NSGROUP, minimal_point(NSGROUP), N=depth)


# ----------------------------------------------------------- folding rules

def test_conjugate_pairing_and_nonnegativity_boundary():
    s = build_stepset(2, ["N", "SE", "SW"])
    with mp.workprec(260):
        exp = asympt_full(s, ("axes", (0,)), prec=PREC)
        assert exp.periodic.period == 4
        for c in exp.periodic.constants:
            assert mp.im(c) == 0
            assert c >= 0
        rates = sorted(str(t.rate_exact) for t in exp.terms)
        assert rates == ["-2*i*sqrt(2)", "-2*sqrt(2)", "2*i*sqrt(2)", "2*sqrt(2)"]


def test_weight_scaling_leaves_constants_invariant():
    lam = Fraction(3, 2)
    with mp.workprec(260):
        base = asympt_full(NSGROUP, prec=PREC).periodic
        scaled = asympt_full(NSGROUP.scaled(lam), prec=PREC).periodic
        assert abs(scaled.rate_modulus - lam * base.rate_modulus) < mp.mpf(10) ** -40
        assert scaled.alpha == base.alpha
        for a, b in zip(scaled.constants, base.constants):
            assert abs(a - b) < mp.mpf(10) ** -40


def test_unsupported_classes_raise():
    nws = build_stepset(2, ["N", "W", "SE"])
    with pytest.raises(UnsupportedModelError):
        asympt_full(nws)
    zero_drift = build_stepset(2, [((1, 0), 1), ((-1, 0), 1),
                                   ((1, 1), 2), ((-1, 1), 2), ((0, 1), 1),
                                   ((1, -1), 1), ((-1, -1), 1), ((0, -1), 3)])
    with pytest.raises(UnsupportedModelError, match="conjectural"):
        asympt_full(zero_drift)
    with pytest.raises(UnsupportedModelError, match="conjectural"):
        asympt_closed(zero_drift)


def test_positive_drift_boundary_with_symmetric_axis_matches_stored():
    # the (1 - z_1) factor kills the leading crossing term; the residue
    # expansion supplies the next order
    with mp.workprec(260):
        exp = asympt_full(NNWS, ("axes", (0,)), prec=PREC)
        assert not exp.partial
        pf = exp.periodic
        assert pf.period == 1 and pf.alpha == Fraction(-3, 2)
        assert pf.rate_modulus_exact == "3"
        want = 3 * mp.sqrt(3) / (4 * mp.sqrt(mp.pi))
        assert abs(pf.constants[0] - want) < mp.mpf(10) ** -30


def test_periodic_crossing_model_with_vanishing_numerator():
    # the second crossing point w' = -1 has a vanishing numerator, so only
    # w' = 1 carries the leading term
    s = build_stepset(2, [("NE", 2), ("NW", 2), ("SE", 1), ("SW", 1)])
    with mp.workprec(260):
        exp = asympt_full(s, prec=PREC)
        assert not exp.partial and len(exp.terms) == 2
        pf = exp.periodic
        assert pf.period == 1 and pf.alpha == Fraction(-1, 2)
        assert abs(pf.constants[0] - 1 / mp.sqrt(2 * mp.pi)) < mp.mpf(10) ** -30


@settings(max_examples=15, deadline=None)
@given(symmetric_models(dims=(2, 3), want=("pos",)))
def test_residue_expansion_leads_with_crossing_formula(s):
    with mp.workprec(260):
        for p in contributing_points(s):
            c0 = smooth_contribution(s, p, N=1).coefficients[0]
            want = transverse_contribution(s, p).coefficients[0]
            assert abs(c0 - want) < mp.mpf(10) ** -30 * max(1, abs(want))


def test_fold_treats_rounding_noise_as_zero():
    # at depth 2 both coefficients of every point vanish, and are exact zeros
    # (numeric jets gave rounding noise there); depth 3 reaches the stored
    # n^-3 term
    s = build_stepset(2, ["N", "SE", "SW"])
    shallow = asympt_full(s, ("axes", (0,)), N=2, prec=PREC)
    assert shallow.partial and shallow.periodic is None
    assert all(c == 0 for t in shallow.terms for c in t.coefficients)
    with mp.workprec(260):
        pf = asympt_full(s, ("axes", (0,)), N=3, prec=PREC).periodic
        stored = lookup("N,SE,SW").table2["x_axis"]
        assert pf.alpha == stored.alpha == -3
        assert pf.period == stored.period
        for got, want in zip(pf.constants, stored.constant_values()):
            assert abs(got - want) < mp.mpf(10) ** -30 * want


def _term(rate, *coefficients):
    return ContributionTerm(None, rate, Fraction(-2), [mp.mpc(c) for c in coefficients])


def test_fold_refuses_a_leading_rate_without_a_unit():
    # 2 leads with 1/n and 1 + i with 1/n^2: only the leading terms' units
    # count, and 1 + i has none
    with mp.workprec(PREC):
        assert _fold([_term(QuadVal(2), 0, 1), _term(QuadVal(1, 1, -1), 0, 0, 3)],
                     Fraction(-2)) is not None
        assert _fold([_term(QuadVal(2), 0, 1), _term(QuadVal(1, 1, -1), 0, 5)],
                     Fraction(-2)) is None


def test_fold_refuses_a_residue_sum_off_the_real_line():
    # 3 + y*i at rates 2 and -2 sums to 6 + 2y*i and 0: real only while its
    # imaginary part stays within the noise floor times |6|
    with mp.workprec(PREC):
        for y, folds in ((noise_floor(), True), (4 * noise_floor(), False),
                         (mp.mpf("1e-20"), False)):
            terms = [_term(QuadVal(2), mp.mpc(3, y)), _term(QuadVal(-2), mp.mpc(3, y))]
            pf = _fold(terms, Fraction(-2))
            assert (pf is not None) is folds
            if folds:
                assert (pf.period, pf.constants) == (2, [6, 0])


def test_fold_sums_each_residue_class():
    # rates 2, -2, 2i and -2i at period 4: the residue-r constant is
    # sum_u c_u u^r over the units u, and the exponent drops by the index of
    # the first nonzero coefficient
    c = mp.mpc(1, 2)
    terms = [_term(QuadVal(2), 0, 1), _term(QuadVal(-2), 0, 4),
             _term(QuadVal(0, 2, -1), 0, c), _term(QuadVal(0, -2, -1), 0, mp.conj(c))]
    with mp.workprec(PREC):
        pf = _fold(terms, Fraction(-2))
        assert (pf.period, pf.alpha, pf.rate_modulus, pf.rate_modulus_exact) == (
            4, Fraction(-3), 2, "2")
        assert pf.constants == [1 + 4 + 2, 1 - 4 - 4, 1 + 4 - 2, 1 - 4 + 4]
        assert all(isinstance(k, mp.mpf) for k in pf.constants)
        pf = _fold(terms[:2], Fraction(-2))
        assert (pf.period, pf.constants) == (2, [5, -3])
        assert _fold([_term(QuadVal(2), 0, 0)], Fraction(-2)) is None


@settings(max_examples=20, deadline=None)
@given(symmetric_models(dims=(2,), want=("pos", "neg", "hs")))
def test_folded_constants_real_nonnegative_random(s):
    with mp.workprec(260):
        exp = asympt_full(s, prec=PREC)
        if exp.periodic is None:
            return
        for c in exp.periodic.constants:
            assert c >= -mp.mpf(10) ** -25


@pytest.fixture(scope="module")
def corpus_3d():
    return symmetric_3d_corpus()


def test_symmetric_3d_corpus_by_drift_class(corpus_3d):
    # the subsets of the 11 orbits that are supported models, by drift class
    classes = Counter((classify(s).kind, classify(s).drift_sign) for s in corpus_3d)
    assert len(corpus_3d) == 1669
    assert classes == {("MissingOneAxis", -1): 780, ("MissingOneAxis", 1): 780,
                       ("HighlySymmetric", 0): 109}


def test_engine_matches_closed_forms_on_the_3d_corpus(corpus_3d):
    # every 8th model of the corpus, in its own order: 209 models of all
    # three drift classes, each a different field Q(sqrt(A(w)B(w)))
    stride = corpus_3d[::8]
    assert len(stride) == 209
    for s in stride:
        full, closed = asympt_full(s, prec=PREC).periodic, asympt_closed(s, prec=PREC).periodic
        assert (full.period, full.alpha, full.rate_modulus_exact) == (
            closed.period, closed.alpha, closed.rate_modulus_exact), s
        for got, want in zip(full.constants, closed.constants):
            assert abs(got - want) <= mp.mpf(10) ** -30 * abs(want), s


def test_engine_matches_closed_forms_on_random_4d_models():
    # 100 unions of the 23 sign-flip orbits of {-1,0,1}^4, drawn with a fixed
    # seed: the 98 that are supported models, of both nonzero drift signs
    rng = random.Random(17)
    sample = symmetric_corpus(4, [rng.randrange(1, 2**23) for _ in range(100)])
    assert Counter(classify(s).drift_sign for s in sample) == {-1: 54, 1: 44}
    for s in sample:
        full, closed = asympt_full(s, prec=PREC).periodic, asympt_closed(s, prec=PREC).periodic
        assert (full.period, full.alpha, full.rate_modulus_exact) == (
            closed.period, closed.alpha, closed.rate_modulus_exact), s
        for got, want in zip(full.constants, closed.constants):
            assert abs(got - want) <= mp.mpf(10) ** -30 * abs(want), s


def test_quadval_unit():
    def unit(rat, coef, m):
        return QuadVal(Fraction(rat), Fraction(coef), Fraction(m)).unit()

    assert unit(3, -2, 2) == 1  # 3 - 2*sqrt(2): the rational part dominates
    assert unit(1, -2, 2) == -1  # 1 - 2*sqrt(2): the root dominates
    assert unit(-1, -2, 2) == -1  # both parts negative
    assert unit(-3, 0, -5) == -1  # a zero coefficient leaves the rational part
    assert unit(2, -1, 4) is None  # 2 - sqrt(4) = 0 has no phase
    assert unit(0, -2, -1) == -1j  # -2i
    assert unit(0, 3, -4) == 1j
    assert unit(1, 1, -2) is None  # 1 + i*sqrt(2)


def _same_form(got, want):
    if want is None:
        return got is None
    # mp values compare bit for bit
    return (got is not None and got.period == want.period and got.alpha == want.alpha
            and got.rate_modulus_exact == want.rate_modulus_exact
            and got.rate_modulus._mpf_ == want.rate_modulus._mpf_
            and [c._mpf_ for c in got.constants] == [c._mpf_ for c in want.constants])


@settings(max_examples=40, deadline=None)
@given(symmetric_models(dims=(2, 3)), st.integers(1, 3), st.data())
def test_exact_fold_matches_numeric_fold(s, depth, data):
    axes = data.draw(st.sets(st.integers(0, s.dim - 1)), label="axes")
    flt = ("axes", tuple(sorted(axes))) if axes else "anywhere"
    exp = asympt_full(s, flt, N=depth, prec=PREC)
    # the engine's zeros are exact: no coefficient is rounding noise
    with mp.workprec(PREC):
        largest = max(abs(c) for t in exp.terms for c in t.coefficients)
        floor = mp.mpf(2) ** -(PREC // 2) * largest
        assert all(c == 0 or abs(c) > floor for t in exp.terms for c in t.coefficients)
    rate_str = str(next(t for t in exp.terms if t.point.is_principal()).rate_exact)
    assert _same_form(exp.periodic, numeric_fold(exp.terms, exp.alpha, rate_str, PREC))
    closed = asympt_closed(s, prec=PREC)
    assert _same_form(closed.periodic, numeric_fold(
        closed.terms, closed.alpha, str(closed.terms[0].rate_exact), PREC))


# ------------------------------------------- one expansion per point class

WEIGHTED_NNWS = build_stepset(2, [("NE", 1), ("NW", 1), ("S", "3/2")])
S3_FILTERS = ("anywhere", ("axes", (0,)), ("axes", (1,)), ("axes", (2,)), ("axes", (0, 1)),
              "origin")
CORPUS_FILTERS = ("anywhere", ("axes", (0,)), ("axes", (2,)), "origin")


def _term_bits(term):
    """A term as the oracle compares it: each coefficient's real and
    imaginary part by repr at the working precision, the rate and the point."""
    return (term.point, term.rate_exact, term.alpha,
            [(repr(c.real), repr(c.imag)) for c in term.coefficients])


def _every_point_expanded(s, flt, N):
    """Oracle: ``asympt_full``'s terms from a new plan that expands every
    point itself."""
    plan = _Integrand(s, s.canonical_variant(flt))
    pts = contributing_points(s) if plan.crossing else smooth_sheet_points(s)
    return [plan.expand(p, plan.depth if N is None else N) for p in pts]


def test_reused_expansions_equal_expanding_every_point(corpus_3d):
    # the conjugation and sign-flip rules are exact: every derived term is
    # the expanded one bit for bit
    cases = [(e.stepset(), COLUMN_FILTERS[col], n) for e in ENTRIES if e.theorem_covered()
             for col in ("anywhere", "x_axis", "y_axis", "origin") for n in (None, 3, 5)]
    cases += [(S3, flt, n) for flt in S3_FILTERS for n in (None, 4)]
    cases += [(S4, flt, None) for flt in ("anywhere", "origin", ("axes", (0,)))]
    cases += [(WEIGHTED_NNWS, flt, None) for flt in COLUMN_FILTERS.values()]
    cases += [(s, flt, None) for s in corpus_3d[::24] for flt in CORPUS_FILTERS]
    assert len(cases) == 192 + 12 + 3 + 4 + 70 * 4
    for s, flt, n in cases:
        got = asympt_full(s, flt, N=n, prec=PREC).terms
        with mp.workprec(PREC + GUARD_BITS):
            assert [_term_bits(t) for t in got] == [
                _term_bits(t) for t in _every_point_expanded(s, flt, n)], (s.describe(), flt, n)


def _counted_expansions(monkeypatch):
    """The points ``_Integrand.expand`` runs on from now on."""
    seen = []
    expand = _Integrand.expand

    def counted(self, point, N):
        seen.append(point)
        return expand(self, point, N)

    monkeypatch.setattr(_Integrand, "expand", counted)
    return seen


@pytest.mark.parametrize("s, flt, expanded, points", [
    (build_stepset(2, ["N", "SE", "SW"]), ("axes", (0,)), 3, 4),  # one conjugate pair
    (NSGROUP, "origin", 1, 2),  # the drift roots: coefficients equal
    (S3, ("axes", (0,)), 6, 8),
    (S3, "origin", 2, 8),
    (S4, "origin", 2, 16),
], ids=["N,SE,SW axes=1", "N,S,SE,SW origin", "3D axes=1", "3D origin", "4D origin"])
def test_each_class_of_points_is_expanded_once(monkeypatch, s, flt, expanded, points):
    seen = _counted_expansions(monkeypatch)
    terms = asympt_full(s, flt, prec=PREC).terms
    assert (len(seen), len(terms)) == (expanded, points)


def test_catalog_theorem_cells_expand_86_of_114_points(monkeypatch):
    seen = _counted_expansions(monkeypatch)
    terms = [t for e in ENTRIES if e.theorem_covered() for flt in COLUMN_FILTERS.values()
             for t in asympt_full(e.stepset(), flt, prec=PREC).terms]
    assert (len(seen), len(terms)) == (86, 114)


def test_drift_flip_is_refused_where_the_pole_factor_breaks_it(monkeypatch):
    # N,SE,SW axes=1 keeps 1/(1 - z_2): z_2 -> -z_2 maps it to 1/(1 + z_2),
    # so the two real points (rates -+2 sqrt(2)) are both expanded
    s = build_stepset(2, ["N", "SE", "SW"])
    plan = _Integrand(s, (0,))
    assert plan.dens[-1] == 1 - LaurentPoly.variable(2, 1)
    assert plan.dens[-1].reflection_sign((1, -1)) is None and plan.flip_unit((1, -1)) is None
    seen = _counted_expansions(monkeypatch)
    asympt_full(s, ("axes", (0,)), prec=PREC)
    assert sorted(str(p.rate_exact) for p in seen if p.rate_exact.is_real()) == [
        "-2*sqrt(2)", "2*sqrt(2)"]
