"""Laurent polynomial ring ops, exact evaluation, and jet arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from helpers import jet_coefficient, jet_constant_term, jet_truncated, var_exponents
from orthantwalks.laurent import (
    ExponentOverflowError,
    Jet,
    LaurentPoly,
    QuadVal,
    jet_of_exponential_substitution,
    to_mp,
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
        for e in var_exponents(p, var):
            piece = p.coeff_slice(var, e).insert_var(var, e)
            rebuilt = rebuilt + piece
        assert rebuilt == p


# ------------------------------------------------------------------- jets

def test_jet_constant_poly():
    p = LaurentPoly.const(2, 5)
    jet = jet_of_exponential_substitution(p, (2, 3), 3)
    assert jet.values() == {(0, 0): QuadVal(5)}
    assert jet_constant_term(jet) == 5


def test_jet_constant_term_matches_eval():
    with mp.workprec(220):
        jet = jet_of_exponential_substitution(NSESSW.sbar_poly(), NSESSW_POINT, 4)
        pt = (mp.mpf(1), 1 / mp.sqrt(3))
        assert abs(jet_constant_term(jet) - NSESSW.sbar_poly().eval(pt)) < mp.mpf(2) ** -180


def test_jet_gradient_vanishes_at_interior_critical_point():
    # the gradient vanishes exactly, so the jet has no degree-1 key
    with mp.workprec(220):
        jet = jet_of_exponential_substitution(NSESSW.sbar_poly(), NSESSW_POINT, 4)
        assert not jet.value((1, 0)) and not jet.value((0, 1))


def test_jet_second_derivative_along_drift_axis():
    # second theta_d derivative is -2 B_d / p_d = -2 sqrt(3) at this point
    with mp.workprec(220):
        jet = jet_of_exponential_substitution(NSESSW.sbar_poly(), NSESSW_POINT, 4)
        second = jet_coefficient(jet, (0, 2)) * 2
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
        jet_deriv = jet_coefficient(jet, e) * kfac

        cs = [mp.mpf(c.numerator) / c.denominator for c in center]

        def f(t):
            zs = list(cs)
            zs[axis] = zs[axis] * mp.exp(mp.mpc(0, t))
            return p.eval(tuple(zs))

        fd = _central_diff(f, k, mp.mpf(10) ** -4)
        scale = max(abs(jet_deriv), mp.mpf(1))
        assert abs(fd - jet_deriv) <= mp.mpf(10) ** -8 * scale


def _jet(dim, order, r, values):
    """The exact jet with coefficient i^{|e|} X at e, from QuadVals X over
    sqrt(r)."""
    scaled = {e: (v.rat * math.factorial(sum(e)), v.coef * math.factorial(sum(e)))
              for e, v in values.items()}
    scale = math.lcm(*(v.denominator for c in scaled.values() for v in c))
    return Jet(dim, order, {e: (int(x * scale), int(y * scale)) for e, (x, y) in scaled.items()},
               r, scale)


def _combine(weighted):
    """sum_j a_j F_j over pairs (a_j, F_j.values()) of one field, a_j rational.
    The powers of i are shared, so the values add."""
    out = {}
    for a, values in weighted:
        for e, v in values.items():
            out[e] = out.get(e, 0) + a * v
    return {e: c for e, c in out.items() if c}


def _unit_part(jet):
    """The values of f / f(0) - 1, divided in the field."""
    v0 = jet.value((0,) * jet.dim)
    return {e: v / v0 for e, v in jet.values().items() if any(e)}


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
    assert len(jet.values()) == 165 and jet.r == 6
    h = _jet(3, 8, jet.r, _unit_part(jet))
    lg = jet.log()
    assert not lg.value((0, 0, 0))  # log(f / f(0))
    log_series = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, 9)]
    assert lg.values() == _series(h, log_series)
    exp_series = [Fraction(1, math.factorial(k)) for k in range(9)]
    assert _series(lg, exp_series) == _combine([(1, h.values()), (1, {(0, 0, 0): QuadVal(1)})])
    assert (jet * jet.reciprocal()).values() == {(0, 0, 0): QuadVal(1)}


def test_jet_mul_reciprocal_log_exp():
    pt = (Fraction(1), Fraction(2))
    jet = jet_of_exponential_substitution(LP(2, {(1, 0): 1, (0, 1): 2, (0, 0): 3}), pt, 5)
    # e^{i t1} + 4 e^{i t2} + 3: the t1^a t2^b coefficient is i^(a+b)/(a! b!)
    # times 1 (b = 0), 4 (a = 0), 8 (a = b = 0) or 0
    values = jet.values()
    assert values[(0, 0)] == QuadVal(8) and values[(3, 0)] == QuadVal(Fraction(1, 6))
    assert values[(0, 2)] == QuadVal(2) and (1, 1) not in values
    with mp.workprec(220):
        assert jet_coefficient(jet, (3, 0)) == mp.mpc(0, -1) / 6
        assert jet_coefficient(jet, (0, 2)) == -2
    assert (jet * jet.reciprocal()).values() == {(0, 0): QuadVal(1)}
    # the exponential series of log(f / f(0)) gives f / f(0) back
    lg = jet.log()
    exp_series = [Fraction(1, math.factorial(k)) for k in range(6)]
    assert _series(lg, exp_series) == _combine([(Fraction(1, 8), values)])


@settings(max_examples=25, deadline=None)
@given(laurent_polys(dim=2), nonzero_rationals)
def test_jet_at_a_folded_root_is_the_jet_at_its_rational(p, y):
    # sqrt(9) is held as 3, so the centre (sqrt(9), y) is the rational (3, y)
    folded = jet_of_exponential_substitution(p, (QuadVal(0, 1, 9), y), 4)
    plain = jet_of_exponential_substitution(p, (3, y), 4)
    assert folded.r == plain.r == 0
    assert (folded.scale, folded.base, folded.coeffs) == (plain.scale, plain.base, plain.coeffs)


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
    assume(f.value((0, 0)) and g.value((0, 0)))
    one = {(0, 0): QuadVal(1)}
    assert (f * f.reciprocal()).values() == one
    assert (f.reciprocal() * f).values() == one
    assert (f * g).log().values() == _combine([(1, f.log().values()), (1, g.log().values())])
    # a square radicand folds into the rationals, so zero tests stay exact
    root = math.isqrt(max(f.r, 0))
    assert f.r == 0 or root * root != f.r


def test_even_part_reads_the_product_to_the_right_factor_order():
    # f to degree 2 fixes f * g to degree 4 when g starts at degree 2; the
    # even part is then the full product's, and a too-short f is refused
    x, y = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    f = jet_of_exponential_substitution(3 + x + 2 * y * y, (1, Fraction(1, 2)), 4)
    g = jet_of_exponential_substitution((1 - x) * (1 - y) + (1 - x) * (1 - x) * y, (1, 1), 4)
    assert min(sum(e) for e in g.values()) == 2
    full = {tuple(a // 2 for a in e): v for e, v in (f * g).values().items()
            if not any(a % 2 for a in e)}
    assert jet_truncated(f, 2).even_part(g, 4) == full and f.even_part(g, 4) == full
    with pytest.raises(ValueError):
        jet_truncated(f, 1).even_part(g, 4)


def test_a_jet_claims_no_degree_past_its_order():
    one = Jet.const(2, 0, 1)
    assert jet_truncated(one, 0).values() == one.values()
    with pytest.raises(ValueError):
        jet_truncated(one, 6)
    x = LaurentPoly.variable(2, 0)
    f = jet_of_exponential_substitution(1 + x, (2, 1), 3)
    with pytest.raises(ValueError):
        jet_truncated(f, 4)


def test_times_and_even_part_refuse_degrees_their_factors_do_not_fix():
    # g = (1 - x)^2 starts at degree 2 and f is known to degree 3, so they
    # fix f * g to degree 5 (and g, of order 6, to 6 from f's degree 0)
    x, y = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    f = jet_of_exponential_substitution(2 + x + y, (1, 1), 3)
    g = jet_of_exponential_substitution((1 - x) * (1 - x), (1, 1), 6)
    assert min(sum(e) for e in g.values()) == 2
    f.times(g, 5), f.even_part(g, 5), g.times(f, 5)
    for degree in (6, 7):
        with pytest.raises(ValueError):
            f.times(g, degree)
        with pytest.raises(ValueError):
            g.times(f, degree)
        with pytest.raises(ValueError):
            f.even_part(g, degree)
    # the constant 1 of order 0 fixes nothing past degree 0 on either side
    with pytest.raises(ValueError):
        Jet.const(2, 0, 1).times(f, 1)


@st.composite
def fixed_products(draw):
    """Two exact jets of order 8 cut to lowest degrees vf, vg, then each
    truncated to a lower order."""
    m = draw(st.sampled_from(RADICANDS))
    jets = []
    for _ in range(2):
        centre = (draw(nonzero_rationals),
                  draw(nonzero_rationals) if m is None
                  else QuadVal(Fraction(0), draw(nonzero_rationals), m))
        full = jet_of_exponential_substitution(draw(laurent_polys(dim=2)), centre, 8)
        jets.append(full.tail(draw(st.integers(0, 3))))
    return jets, draw(st.integers(0, 4)), draw(st.integers(0, 4))


def _lowest(jet, order):
    return min(map(sum, jet.values()), default=order)


@settings(max_examples=60, deadline=None)
@given(fixed_products())
def test_times_agrees_with_the_full_product_to_the_degree_it_returns(case):
    (f, g), a, b = case
    fa, gb = jet_truncated(f, a), jet_truncated(g, b)
    degree = min(a + _lowest(gb, b), b + _lowest(fa, a))
    got = fa.times(gb, degree).values()
    want = (f * g).values()  # exact to degree 8 >= 4 + 3
    assert got == {e: v for e, v in want.items() if sum(e) <= degree}
    even = {e: v for e, v in got.items() if not any(x % 2 for x in e)}
    assert fa.even_part(gb, degree) == {tuple(x // 2 for x in e): v for e, v in even.items()}
    with pytest.raises(ValueError):
        fa.times(gb, degree + 1)
    with pytest.raises(ValueError):
        fa.even_part(gb, degree + 1)


# ------------------------------------------------------- the field Q(sqrt(m))

# radicands positive, negative, fractional and perfect squares
QUAD_RADICANDS = [Fraction(2), Fraction(8), Fraction(-1), Fraction(-5), Fraction(1, 3),
                  Fraction(-3, 2), Fraction(9), Fraction(9, 4), Fraction(-4)]
rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def quad_pairs(draw):
    """Two values of one field, and the radicand."""
    m = draw(st.sampled_from(QUAD_RADICANDS) | nonzero_rationals)
    return tuple(QuadVal(draw(rationals), draw(rationals), m) for _ in range(2)) + (m,)


def _close(got, want):
    return abs(got - want) <= mp.mpf(2) ** -280 * max(1, abs(want))


@settings(max_examples=150, deadline=None)
@given(quad_pairs())
def test_quadval_field_operations_match_mpmath(pair):
    x, y, m = pair
    with mp.workprec(300):
        nx, ny = x.to_mp(), y.to_mp()
        root = mp.sqrt(mp.mpc(m.numerator) / m.denominator)
        assert _close((x + y).to_mp(), nx + ny) and _close((x - y).to_mp(), nx - ny)
        assert _close((x * y).to_mp(), nx * ny) and _close((-x).to_mp(), -nx)
        assert _close((x + 3).to_mp(), nx + 3) and _close((x - 2).to_mp(), nx - 2)
        assert _close((Fraction(2, 7) * x).to_mp(), nx * 2 / 7)
        assert _close(x.conj().to_mp(), to_mp(x.rat) - to_mp(x.coef) * root)
        assert _close(to_mp(x.norm()), nx * x.conj().to_mp())
        if y:
            assert _close((x / y).to_mp(), nx / ny) and _close((1 / y).to_mp(), 1 / ny)


@settings(max_examples=150, deadline=None)
@given(quad_pairs())
def test_quadval_identities_are_exact(pair):
    x, y, _ = pair
    assert x * x.conj() == QuadVal(x.norm())
    assert (x + y) - y == x and x * y == y * x and x - x == QuadVal(0)
    if x:
        assert x * (1 / x) == QuadVal(1) and (x * y) / x == y
    with pytest.raises(ZeroDivisionError):
        x / (y - y)


def test_quadval_divides_through_the_norm():
    # 3 + sqrt(9) is held as 6, so only 0 has norm 0 and the quotient is 1/6
    assert 1 / QuadVal(3, 1, 9) == QuadVal(Fraction(1, 6))
    assert QuadVal(2, 1, 2) / QuadVal(2, -1, 2) == QuadVal(3, 2, 2)
    with pytest.raises(ValueError):
        QuadVal(0, 1, 2) + QuadVal(0, 1, 3)


@settings(max_examples=150, deadline=None)
@given(rationals, rationals, nonzero_rationals | st.sampled_from(
    [Fraction(3), Fraction(3, 2), Fraction(1, 2)]))
def test_a_rational_root_is_folded_into_one_form(a, b, r):
    # a + b*sqrt(r^2) is the rational a + b*|r|: one value, one held form
    folded, plain = QuadVal(a, b, r * r), QuadVal(a + b * abs(r))
    assert folded == plain and hash(folded) == hash(plain)
    assert str(folded) == str(plain) and not folded.coef and not folded.m
    with mp.workprec(300):
        assert folded.to_mp() == plain.to_mp()


@settings(max_examples=150, deadline=None)
@given(quad_pairs())
def test_quadval_zero_and_unit_agree_with_the_value(pair):
    x, _, _ = pair
    with mp.workprec(300):
        v, tiny = x.to_mp(), mp.mpf(2) ** -250
        assert bool(x) == (abs(v) > tiny)
        u = x.unit()
        if u is not None:  # a nonzero real or purely imaginary value
            assert abs(v - mp.mpc(u) * abs(v)) <= tiny * abs(v)
        elif x:
            assert abs(mp.re(v)) > tiny and abs(mp.im(v)) > tiny


def test_quadval_prints_its_form():
    def q(rat, coef, m):
        return str(QuadVal(Fraction(rat), Fraction(coef), Fraction(m)))

    assert q(0, 1, 8) == "sqrt(8)" and q(0, 1, Fraction(1, 3)) == "sqrt(1/3)"
    assert q(0, -1, Fraction(3, 2)) == "-sqrt(3/2)" and q(0, 2, -5) == "2*i*sqrt(5)"
    assert q(1, 2, -1) == "1 + 2*i" and q(0, -2, -2) == "-2*i*sqrt(2)"
    assert q(0, 2, Fraction(2, 3)) == "2*sqrt(2/3)"  # the rate of N:1/3, SE, SW
    assert q(2, 2, 9) == "8"  # a perfect-square radicand prints its root


def test_quadval_with_no_root_part_prints_its_rational():
    assert str(QuadVal(3, 0, 5)) == "3" and str(QuadVal(0, 0, 5)) == "0"
    assert str(QuadVal(Fraction(-7, 2), Fraction(0), Fraction(2))) == "-7/2"


@settings(max_examples=150, deadline=None)
@given(quad_pairs())
def test_quadval_complex_conjugate_agrees_with_the_value(pair):
    x, _, _ = pair
    with mp.workprec(300):
        v = x.to_mp()
        assert x.is_real() == (mp.im(v) == 0)
        assert _close(x.conjugate().to_mp(), mp.conj(v))


def test_complex_conjugate_is_the_galois_conjugate_only_below_zero():
    # a real value is its own complex conjugate, whatever its root part
    real = QuadVal(1, 2, 3)  # 1 + 2 sqrt(3)
    assert real.is_real() and real.conjugate() == real != real.conj()
    assert QuadVal(0, 1, Fraction(1, 2)).conjugate() == QuadVal(0, 1, Fraction(1, 2))
    assert QuadVal(5, 1, 9).is_real() and QuadVal(Fraction(2, 3)).is_real()
    imaginary = QuadVal(1, 2, -3)  # 1 + 2i sqrt(3)
    assert not imaginary.is_real()
    assert imaginary.conjugate() == imaginary.conj() == QuadVal(1, -2, -3)
    assert QuadVal(0, 1, -4).conjugate() == QuadVal(0, -1, -4)  # 2i -> -2i


def test_reflection_sign():
    # S of N,SE,SW: y + x/y + 1/(x y)
    s = LP(2, {(0, 1): 1, (1, -1): 1, (-1, -1): 1})
    assert s.reflection_sign((1, 1)) == 1
    assert s.reflection_sign((1, -1)) == -1  # every term has an odd y exponent
    assert s.reflection_sign((-1, 1)) is None and s.reflection_sign((-1, -1)) is None
    assert (1 - Y).reflection_sign((1, -1)) is None  # 1 - y -> 1 + y
    assert (1 - Y * Y).reflection_sign((1, -1)) == 1
    assert (X * Y).reflection_sign((1, -1)) == -1 == (X * YI).reflection_sign((-1, 1))
    assert LaurentPoly.zero(2).reflection_sign((-1, 1)) == 1
