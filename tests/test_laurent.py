"""Laurent polynomial ring ops, exact evaluation, and jet arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from orthantwalks.laurent import (
    ExponentOverflowError,
    Jet,
    LaurentPoly,
    jet_of_exponential_substitution,
)
from orthantwalks.stepset import build_stepset, decompose


def LP(dim, terms):
    return LaurentPoly(dim, {tuple(e): Fraction(c) for e, c in terms.items()})


X = LP(2, {(1, 0): 1})
XI = LP(2, {(-1, 0): 1})
Y = LP(2, {(0, 1): 1})
YI = LP(2, {(0, -1): 1})

NSEW = build_stepset(2, ["N", "S", "E", "W"])
NSESSW = build_stepset(2, ["N", "SE", "S", "SW"])


# ------------------------------------------------------------------- eval

def test_eval_total_weight():
    assert NSEW.char_poly().eval((1, 1)) == 4


def test_eval_symmetry_cancellation():
    val = NSEW.char_poly().eval((1, 1j))
    assert abs(val - 2) < mp.mpf(2) ** -50


def test_eval_sbar_at_interior_point():
    # direct evaluation of y(x + 1 + 1/x) + 1/y at (1, 1/sqrt(3))
    with mp.workprec(200):
        pt = (mp.mpf(1), 1 / mp.sqrt(3))
        val = NSESSW.sbar_poly().eval(pt)
        assert abs(val - 2 * mp.sqrt(3)) < mp.mpf(2) ** -150


def test_eval_zero_coordinate_rejected():
    with pytest.raises(ZeroDivisionError):
        XI.eval((0, 1))


def test_eval_exact_rational():
    p = LP(2, {(-2, 1): Fraction(3, 2), (0, 0): 1})
    assert p.eval((Fraction(2, 3), Fraction(5))) == Fraction(3, 2) * Fraction(9, 4) * 5 + 1


# --------------------------------------------------------------- ring ops

def test_square_of_symmetric_pair():
    assert (X + XI) * (X + XI) == LP(2, {(2, 0): 1, (0, 0): 2, (-2, 0): 1})


def test_inversion_is_involution():
    p = LP(2, {(1, -2): Fraction(7, 3), (-1, 1): 2, (0, 0): -1})
    assert p.invert_var(0).invert_var(0) == p
    assert p.invert_var(1).invert_var(1) == p


def test_signed_product_expansion():
    got = (X - XI) * (Y - YI)
    assert got == LP(2, {(1, 1): 1, (1, -1): -1, (-1, 1): -1, (-1, -1): 1})


def test_exponent_overflow_is_hard_error():
    with pytest.raises(ExponentOverflowError):
        LP(1, {(2**31 + 1,): 1})


# ----------------------------------------------------------------- slices

def test_slices_of_characteristic_polynomial():
    S = NSESSW.char_poly()
    d = decompose(NSESSW)
    assert S.coeff_slice(1, 1) == d.B == LaurentPoly.const(1, 1)
    assert S.coeff_slice(1, -1) == d.A == LP(1, {(1,): 1, (0,): 1, (-1,): 1})
    b1 = S.coeff_slice(0, 1)
    assert b1 == LP(1, {(-1,): 1})
    with mp.workprec(200):
        assert abs(b1.eval((mp.sqrt(3),)) - 1 / mp.sqrt(3)) < mp.mpf(2) ** -150


@st.composite
def laurent_polys(draw, dim=None):
    d = dim or draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(-3, 3)) for _ in range(d))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return LaurentPoly(d, terms)


nonzero_rationals = st.builds(
    Fraction, st.integers(-8, 8).filter(bool), st.integers(1, 5)
)


@given(laurent_polys(dim=2), laurent_polys(dim=2), laurent_polys(dim=2))
def test_ring_axioms_spotcheck(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(laurent_polys(dim=2), laurent_polys(dim=2),
       st.tuples(nonzero_rationals, nonzero_rationals))
def test_eval_is_multiplicative_exactly(p, q, v):
    assert (p * q).eval(v) == p.eval(v) * q.eval(v)


@given(laurent_polys())
def test_slice_reconstruction(p):
    for var in range(p.dim):
        rebuilt = LaurentPoly.zero(p.dim)
        for e in p.var_exponents(var):
            piece = p.coeff_slice(var, e).insert_var(var, e)
            rebuilt = rebuilt + piece
        assert rebuilt == p


# ------------------------------------------------------------------- jets

def test_jet_constant_poly():
    p = LaurentPoly.const(2, 5)
    jet = jet_of_exponential_substitution(p, (2, 3), 3)
    assert jet.coeffs == {(0, 0): jet.constant_term()}
    assert abs(jet.constant_term() - 5) == 0


def test_jet_constant_term_matches_eval():
    with mp.workprec(220):
        pt = (mp.mpf(1), 1 / mp.sqrt(3))
        jet = jet_of_exponential_substitution(NSESSW.sbar_poly(), pt, 4)
        assert abs(jet.constant_term() - NSESSW.sbar_poly().eval(pt)) < mp.mpf(2) ** -180


def test_jet_gradient_vanishes_at_interior_critical_point():
    with mp.workprec(220):
        pt = (mp.mpf(1), 1 / mp.sqrt(3))
        jet = jet_of_exponential_substitution(NSESSW.sbar_poly(), pt, 4)
        assert abs(jet.coefficient((1, 0))) < mp.mpf(2) ** -170
        assert abs(jet.coefficient((0, 1))) < mp.mpf(2) ** -170


def test_jet_second_derivative_along_drift_axis():
    # second theta_d derivative is -2 B_d / p_d = -2 sqrt(3) at this point
    with mp.workprec(220):
        pt = (mp.mpf(1), 1 / mp.sqrt(3))
        jet = jet_of_exponential_substitution(NSESSW.sbar_poly(), pt, 4)
        second = jet.coefficient((0, 2)) * 2
        assert abs(second - (-2 * mp.sqrt(3))) < mp.mpf(2) ** -170


def _central_diff(f, k, h):
    # fourth-order central stencils so the h^2 truncation term never dominates
    if k == 1:
        return (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)
    if k == 2:
        return (-f(2 * h) + 16 * f(h) - 30 * f(0) + 16 * f(-h) - f(-2 * h)) / (12 * h**2)
    if k == 3:
        return (-f(3 * h) + 8 * f(2 * h) - 13 * f(h)
                + 13 * f(-h) - 8 * f(-2 * h) + f(-3 * h)) / (8 * h**3)
    raise ValueError(k)


@settings(max_examples=25, deadline=None)
@given(laurent_polys(dim=2), st.tuples(nonzero_rationals, nonzero_rationals),
       st.integers(0, 1), st.integers(1, 3))
def test_jet_matches_finite_differences(p, center, axis, k):
    with mp.workprec(320):
        jet = jet_of_exponential_substitution(p, center, 4, prec=256)
        e = tuple(k if j == axis else 0 for j in range(2))
        kfac = 1
        for i in range(2, k + 1):
            kfac *= i
        jet_deriv = jet.coefficient(e) * kfac

        cs = [mp.mpf(c.numerator) / c.denominator for c in center]

        def f(t):
            zs = list(cs)
            zs[axis] = zs[axis] * mp.exp(mp.mpc(0, t))
            return p.eval(tuple(zs))

        fd = _central_diff(f, k, mp.mpf(10) ** -4)
        scale = max(abs(jet_deriv), mp.mpf(1))
        assert abs(fd - jet_deriv) <= mp.mpf(10) ** -8 * scale


def test_jet_mul_reciprocal_log_exp():
    with mp.workprec(220):
        pt = (Fraction(1), Fraction(2))
        p = LP(2, {(1, 0): 1, (0, 1): 2, (0, 0): 3})
        jet = jet_of_exponential_substitution(p, pt, 5)
        one = jet * jet.reciprocal()
        assert abs(one.constant_term() - 1) < mp.mpf(2) ** -180
        assert all(abs(c) < mp.mpf(2) ** -170 for e, c in one.coeffs.items() if any(e))
        # log/exp agree with scalar values at the constant term and invert each other
        lg = jet.log()
        assert abs(lg.constant_term() - mp.log(jet.constant_term())) < mp.mpf(2) ** -170
        back = lg.exp()
        diff = back - jet
        assert all(abs(c) < mp.mpf(2) ** -150 for c in diff.coeffs.values())


def test_jet_log_reciprocal_exp_by_degree_in_three_variables():
    # the degree recurrences against the power series of log, by jet
    # products, at a depth and dimension the saddle engine reaches
    with mp.workprec(300):
        p = LP(3, {(1, 0, 0): 2, (0, -1, 0): 1, (0, 0, 1): 3, (1, 1, -1): 1, (0, 0, 0): 5})
        jet = jet_of_exponential_substitution(p, (Fraction(1), Fraction(2), Fraction(1, 3)), 8, 256)
        assert len(jet.coeffs) == 165
        c0 = jet.constant_term()
        h = Jet(3, 8, {e: c / c0 for e, c in jet.coeffs.items() if any(e)}, 256)
        want, power = Jet.const(3, 8, mp.log(c0), 256), Jet.const(3, 8, 1, 256)
        for k in range(1, 9):
            power = power * h
            want = want + power * (mp.mpf((-1) ** (k + 1)) / k)
        for diff in (jet.log() - want, jet.log().exp() - jet,
                     jet * jet.reciprocal() - Jet.const(3, 8, 1, 256)):
            assert all(abs(c) < mp.mpf(2) ** -200 for c in diff.coeffs.values())
