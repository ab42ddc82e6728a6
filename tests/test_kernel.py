"""Symmetry group, orbit sums, diagonal representation, and exact identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import act, rational_equal, symmetric_models
from orthantwalks.enumeration import count_walks
from orthantwalks.kernel import (
    coprimality_spotcheck,
    diag_kernel,
    diagonal_coeffs,
    group_elements,
    orbit_sum,
    orbit_sum_product_form,
    positive_part_check,
    series_nonnegative,
)
from orthantwalks.laurent import LaurentPoly
from orthantwalks.stepset import build_stepset

NSEW = build_stepset(2, ["N", "S", "E", "W"])
NNWS = build_stepset(2, ["NE", "NW", "S"])
NSESSW = build_stepset(2, ["N", "SE", "S", "SW"])
ALL8 = build_stepset(2, ["N", "S", "E", "W", "NE", "NW", "SE", "SW"])

D3_NEG = build_stepset(
    3, [((0, 0, 1), 1)] + [((sx, sy, -1), 1) for sx in (-1, 1) for sy in (-1, 1)]
)


def LP(dim, terms):
    return LaurentPoly(dim, {tuple(e): Fraction(c) for e, c in terms.items()})


# ------------------------------------------------------------------- group

def test_group_order_and_signs_2d():
    dcmp, elems = group_elements(NSEW)
    assert len(elems) == 4
    signs = sorted(e.sign for e in elems)
    assert signs == [-1, -1, 1, 1]
    ident = next(e for e in elems if not e.flips and not e.gamma)
    assert ident.sign == 1
    for e in elems:
        if len(e.flips) + e.gamma == 1:
            assert e.sign == -1  # each generator is odd


def test_gamma_action_on_drift_variable():
    dcmp, elems = group_elements(NSESSW)
    gamma = next(e for e in elems if e.gamma and not e.flips)
    zd = LaurentPoly.variable(2, 1)
    num, apow, bpow = act(gamma, zd, dcmp)
    # z_d maps to (A/B)/z_d with A = x + 1 + 1/x and B = 1
    expect = LP(2, {(1, -1): 1, (0, -1): 1, (-1, -1): 1})
    assert rational_equal((num, apow, bpow), (expect, 0, 0), dcmp)


def test_group_fixes_characteristic_polynomial():
    for s in (NSEW, NNWS, NSESSW, D3_NEG):
        dcmp, elems = group_elements(s)
        S = s.char_poly()
        for e in elems:
            assert rational_equal(act(e, S, dcmp), (S, 0, 0), dcmp)


def test_elements_are_involutions():
    dcmp, elems = group_elements(NSESSW)
    probe = LP(2, {(1, 1): 1, (0, -1): 2})
    for e in elems:
        n1, a1, b1 = act(e, probe, dcmp)
        n2, a2, b2 = act(e, n1, dcmp)
        assert rational_equal((n2, a1 + a2, b1 + b2), (probe, 0, 0), dcmp)


def test_sign_is_multiplicative_over_generators():
    _, elems = group_elements(D3_NEG)
    for e in elems:
        for j in range(D3_NEG.dim - 1):
            flipped = e.flips ^ {j}
            other = next(x for x in elems if x.flips == flipped and x.gamma == e.gamma)
            assert other.sign == -e.sign
        other = next(x for x in elems if x.flips == e.flips and x.gamma != e.gamma)
        assert other.sign == -e.sign


# --------------------------------------------------------------- orbit sums

def test_orbit_sum_positive_drift_cleared_form():
    num, den = orbit_sum(NNWS)
    x, xi = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 0, -1)
    y, yi = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 1, -1)
    assert num == (x - xi) * ((x + xi) * y - yi)
    assert den == x + xi  # the lifted B
    assert num == orbit_sum_product_form(NNWS)


def test_orbit_sum_highly_symmetric():
    num, _ = orbit_sum(NSEW)
    x, xi = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 0, -1)
    y, yi = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 1, -1)
    assert num == (x - xi) * (y - yi)


def test_orbit_sum_3d_cleared_identity():
    assert orbit_sum(D3_NEG)[0] == orbit_sum_product_form(D3_NEG)


def test_orbit_sum_antisymmetry_under_generators():
    for s in (NNWS, NSESSW, D3_NEG):
        dcmp, elems = group_elements(s)
        num, _ = orbit_sum(s)
        for e in elems:
            if len(e.flips) + e.gamma != 1:
                continue
            assert rational_equal(act(e, num, dcmp), (-num, 0, 0), dcmp)


@settings(max_examples=25, deadline=None)
@given(symmetric_models())
def test_orbit_sum_matches_product_form_random(s):
    assert orbit_sum(s)[0] == orbit_sum_product_form(s)


# ---------------------------------------------------------- diagonal kernel

def test_kernel_factor_forms():
    k = diag_kernel(NSEW)
    # H1 = 1 - t*x*y*(x + 1/x + y + 1/y)
    assert k.H1 == LP(3, {(0, 0, 0): 1, (2, 1, 1): -1, (0, 1, 1): -1,
                          (1, 2, 1): -1, (1, 0, 1): -1})
    k2 = diag_kernel(NSESSW)
    assert k2.H1 == LP(3, {(0, 0, 0): 1, (2, 2, 1): -1, (1, 2, 1): -1,
                           (0, 2, 1): -1, (1, 0, 1): -1})
    k3 = diag_kernel(ALL8)
    # the second kernel factor of the all-steps model
    assert k3.H2 == LP(3, {(0, 0, 0): 1, (0, 1, 1): -1, (0, 2, 1): -1,
                           (2, 1, 1): -1, (1, 2, 1): -1, (2, 2, 1): -1})
    assert k3.H3 == LP(3, {(0, 0, 0): 1, (0, 1, 0): -1})
    assert coprimality_spotcheck(k)
    assert coprimality_spotcheck(k2)
    assert coprimality_spotcheck(k3)


def test_diagonal_matches_oracle_basic():
    assert diagonal_coeffs(diag_kernel(NSEW), 5) == [1, 2, 6, 18, 60, 200]
    assert diagonal_coeffs(diag_kernel(NNWS), 3) == [1, 1, 3, 7]


@pytest.mark.parametrize("s", [NSEW, NNWS, NSESSW, ALL8], ids=lambda s: s.describe())
def test_diagonal_matches_oracle_to_12(s):
    want = count_walks(s, 12).values
    assert diagonal_coeffs(diag_kernel(s), 12) == want


def test_diagonal_matches_oracle_3d():
    want = count_walks(D3_NEG, 8).values
    assert diagonal_coeffs(diag_kernel(D3_NEG), 8) == want


def test_boundary_diagonal_origin_returns():
    k = diag_kernel(NSEW)
    got = diagonal_coeffs(k, 4, "origin")
    assert got == [1, 0, 2, 0, 10]


def test_boundary_diagonal_single_axis():
    for s in (NSESSW, NNWS):
        k = diag_kernel(s)
        for axes in ((0,), (1,), (0, 1)):
            got = diagonal_coeffs(k, 8, ("axes", axes))
            want = count_walks(s, 8, ("axes", axes)).values
            assert got == want


def test_boundary_diagonal_swapped_axes_model():
    # same walk as NE,NW,S with axes swapped: user axis 2 is canonical axis 0
    s = build_stepset(2, [((1, 1), 1), ((1, -1), 1), ((-1, 0), 1)])
    k = diag_kernel(s)
    got = diagonal_coeffs(k, 6, ("axes", (1,)))
    want = count_walks(s, 6, ("axes", (1,))).values
    assert got == want


@settings(max_examples=20, deadline=None)
@given(symmetric_models(dims=(2, 3)), st.data())
def test_kernel_series_match_oracle_random(s, data):
    # random weighted models, with a random set of boundary axes
    d = s.dim
    flt = ("axes", tuple(sorted(data.draw(st.sets(st.sampled_from(range(d)))))))
    n = 8 if d == 2 else 5
    kern = diag_kernel(s)
    want = count_walks(s, n, flt).values
    assert diagonal_coeffs(kern, n, flt) == want
    assert positive_part_check(s, 4).passed
    assert series_nonnegative(kern, 4)


def test_weighted_diagonal_matches_oracle():
    s = build_stepset(2, [("N", "1/2"), ("SE", 2), ("S", 1), ("SW", 2)])
    assert diagonal_coeffs(diag_kernel(s), 8) == count_walks(s, 8).values


# ------------------------------------------------------ positive-part check

def test_positive_part_identity():
    for s in (NSEW, NSESSW, NNWS, ALL8):
        rep = positive_part_check(s, 6)
        assert rep.passed, rep
        assert rep.per_n[0] == (0, True)


def test_series_nonnegative():
    for s in (NSEW, NSESSW, NNWS):
        assert series_nonnegative(diag_kernel(s), 8)
