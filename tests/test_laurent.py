"""Laurent polynomial ring ops, exact evaluation, and jet arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from orthantwalks.laurent import (
    ExponentOverflowError,
    Jet,
    LaurentPoly,
    QuadVal,
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
# the minimal point (1, 1/sqrt(3)) of NSESSW, exactly
NSESSW_POINT = (1, QuadVal(Fraction(0), Fraction(1), Fraction(1, 3)))


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
    assert jet.values() == {(0, 0): (5, 0)}
    assert jet.constant_term() == 5


def test_jet_constant_term_matches_eval():
    with mp.workprec(220):
        jet = jet_of_exponential_substitution(NSESSW.sbar_poly(), NSESSW_POINT, 4)
        pt = (mp.mpf(1), 1 / mp.sqrt(3))
        assert abs(jet.constant_term() - NSESSW.sbar_poly().eval(pt)) < mp.mpf(2) ** -180


def test_jet_gradient_vanishes_at_interior_critical_point():
    # the gradient vanishes exactly, so the jet has no degree-1 key
    with mp.workprec(220):
        jet = jet_of_exponential_substitution(NSESSW.sbar_poly(), NSESSW_POINT, 4)
        assert (1, 0) not in jet.coeffs and (0, 1) not in jet.coeffs


def test_jet_second_derivative_along_drift_axis():
    # second theta_d derivative is -2 B_d / p_d = -2 sqrt(3) at this point
    with mp.workprec(220):
        jet = jet_of_exponential_substitution(NSESSW.sbar_poly(), NSESSW_POINT, 4)
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
        jet = jet_of_exponential_substitution(p, center, 4)
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


def _jet(dim, order, r, values):
    """The exact jet with coefficient i^{|e|} (X + Y sqrt(r)) at e, from
    Fraction pairs (X, Y)."""
    scaled = {e: (x * math.factorial(sum(e)), y * math.factorial(sum(e)))
              for e, (x, y) in values.items()}
    scale = math.lcm(*(v.denominator for c in scaled.values() for v in c))
    return Jet(dim, order, {e: (int(x * scale), int(y * scale)) for e, (x, y) in scaled.items()},
               r, scale)


def _combine(weighted):
    """sum_j a_j F_j over pairs (a_j, F_j.values()) of one field, a_j rational.
    The powers of i are shared, so coefficients add as pairs."""
    out = {}
    for a, values in weighted:
        for e, (x, y) in values.items():
            ox, oy = out.get(e, (0, 0))
            out[e] = (ox + a * x, oy + a * y)
    return {e: c for e, c in out.items() if c != (0, 0)}


def _unit_part(jet):
    """The values of f / f(0) - 1, divided in the field by the conjugate."""
    x0, y0 = jet.values()[(0,) * jet.dim]
    r, norm = jet.r, x0 * x0 - jet.r * y0 * y0
    return {e: ((x * x0 - r * y * y0) / norm, (y * x0 - x * y0) / norm)
            for e, (x, y) in jet.values().items() if any(e)}


def _series(h, coeffs):
    """sum_k coeffs[k] h^k as values, by exact jet products; h has no constant
    term, so the sum is exact to the jet's order."""
    power, terms = Jet.const(h.dim, h.order, 1), []
    for a in coeffs:
        terms.append((a, power.values()))
        power = power * h
    return _combine(terms)


def test_jet_log_reciprocal_exp_by_degree_in_three_variables():
    # the degree recurrences against the power series of log and exp, by
    # exact jet products, at a depth and dimension the saddle engine reaches
    p = LP(3, {(1, 0, 0): 2, (0, -1, 0): 1, (0, 0, 1): 3, (1, 1, -1): 1, (0, 0, 0): 5})
    centre = (Fraction(1), QuadVal(Fraction(0), Fraction(1), Fraction(2, 3)), Fraction(1, 3))
    jet = jet_of_exponential_substitution(p, centre, 8)
    assert len(jet.coeffs) == 165 and jet.r == 6
    h = _jet(3, 8, jet.r, _unit_part(jet))
    lg = jet.log()
    assert (0, 0, 0) not in lg.coeffs  # log(f / f(0))
    log_series = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, 9)]
    assert lg.values() == _series(h, log_series)
    exp_series = [Fraction(1, math.factorial(k)) for k in range(9)]
    assert _series(lg, exp_series) == _combine([(1, h.values()), (1, {(0, 0, 0): (1, 0)})])
    assert (jet * jet.reciprocal()).values() == {(0, 0, 0): (1, 0)}


def test_jet_mul_reciprocal_log_exp():
    pt = (Fraction(1), Fraction(2))
    jet = jet_of_exponential_substitution(LP(2, {(1, 0): 1, (0, 1): 2, (0, 0): 3}), pt, 5)
    # e^{i t1} + 4 e^{i t2} + 3: the t1^a t2^b coefficient is i^(a+b)/(a! b!)
    # times 1 (b = 0), 4 (a = 0), 8 (a = b = 0) or 0
    values = jet.values()
    assert values[(0, 0)] == (8, 0) and values[(3, 0)] == (Fraction(1, 6), 0)
    assert values[(0, 2)] == (2, 0) and (1, 1) not in values
    with mp.workprec(220):
        assert jet.coefficient((3, 0)) == mp.mpc(0, -1) / 6 and jet.coefficient((0, 2)) == -2
    assert (jet * jet.reciprocal()).values() == {(0, 0): (1, 0)}
    # the exponential series of log(f / f(0)) gives f / f(0) back
    lg = jet.log()
    exp_series = [Fraction(1, math.factorial(k)) for k in range(6)]
    assert _series(lg, exp_series) == _combine([(Fraction(1, 8), values)])


# random centres with one radicand m: not a square, negative, a square, none
RADICANDS = [Fraction(1, 3), Fraction(2), Fraction(-1, 2), Fraction(-4), Fraction(9, 4),
             Fraction(1, 4), None]


@st.composite
def exact_jet_pairs(draw):
    """Two substitution jets of random polynomials over one field."""
    m = draw(st.sampled_from(RADICANDS))
    order = draw(st.integers(1, 5))
    jets = []
    for _ in range(2):
        centre = (draw(nonzero_rationals),
                  draw(nonzero_rationals) if m is None
                  else QuadVal(Fraction(0), draw(nonzero_rationals), m))
        jets.append(jet_of_exponential_substitution(draw(laurent_polys(dim=2)), centre, order))
    return jets


@settings(max_examples=60, deadline=None)
@given(exact_jet_pairs())
def test_exact_field_identities(pair):
    f, g = pair
    assume(f.coeffs.get((0, 0)) and g.coeffs.get((0, 0)))
    one = {(0, 0): (1, 0)}
    assert (f * f.reciprocal()).values() == one
    assert (f.reciprocal() * f).values() == one
    assert (f * g).log().values() == _combine([(1, f.log().values()), (1, g.log().values())])
    # a square radicand folds into the rationals, so zero tests stay exact
    root = math.isqrt(max(f.r, 0))
    assert f.r == 0 or root * root != f.r
