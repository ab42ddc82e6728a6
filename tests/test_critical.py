"""Minimal points, contributing-point enumeration, and criticality residuals."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from mpmath import mp

from helpers import numeric_sign_vector_points, symmetric_models
from orthantwalks.asympt import asympt_closed, asympt_full
from orthantwalks.critical import (
    SMOOTH,
    TRANSVERSE,
    _sign_vector_points,
    check_critical,
    contributing_points,
    minimal_point,
    smooth_sheet_points,
)
from orthantwalks.stepset import (
    UnsupportedModelError,
    build_stepset,
    classify,
    decompose,
)

NSEW = build_stepset(2, ["N", "S", "E", "W"])
NNWS = build_stepset(2, ["NE", "NW", "S"])
NSESSW = build_stepset(2, ["N", "SE", "S", "SW"])
NSESW = build_stepset(2, ["N", "SE", "SW"])

TOL = mp.mpf(2) ** -160


def test_minimal_point_negative_drift():
    p = minimal_point(NSESSW)
    with mp.workprec(260):
        assert abs(p.w[0] - 1) == 0
        assert abs(p.w[1] - 1 / mp.sqrt(3)) < TOL
        assert abs(p.t - mp.mpf(1) / 2) < TOL
    assert p.stratum == SMOOTH
    assert p.wd_squared == Fraction(1, 3)
    assert str(p.rate_exact) == "2*sqrt(3)"
    with mp.workprec(260):
        assert abs(abs(p.t) ** 2 - mp.mpf(1) / 4) < TOL


def test_minimal_point_positive_and_zero_drift():
    with mp.workprec(260):
        p = minimal_point(NNWS)
        assert p.stratum == TRANSVERSE
        assert all(abs(c - 1) == 0 for c in p.w)
        assert abs(p.t - mp.mpf(1) / 3) < TOL
        pz = minimal_point(NSEW)
        assert pz.stratum == TRANSVERSE
        assert abs(pz.t - mp.mpf(1) / 4) < TOL
        assert abs(abs(pz.t) ** 2 - mp.mpf(1) / 16) < TOL
    assert str(pz.rate_exact) == "4"


def test_contributing_points_nsessw():
    pts = contributing_points(NSESSW)
    assert len(pts) == 2
    with mp.workprec(260):
        root3 = 1 / mp.sqrt(3)
        offs = sorted(pts, key=lambda p: float(mp.re(p.w[1])))
        assert abs(offs[0].w[1] + root3) < TOL
        assert abs(offs[1].w[1] - root3) < TOL
        assert all(abs(p.t - mp.mpf(1) / 2) < TOL for p in pts)
    rates = sorted(str(p.rate_exact) for p in pts)
    assert rates == ["-2*sqrt(3)", "2*sqrt(3)"]
    for p in pts:
        rep = check_critical(NSESSW, p)
        assert rep.ok
        assert all(v < TOL for k, v in rep.residuals.items() if k != "H2_distance")


def test_contributing_points_nsesw_include_imaginary_pair():
    pts = contributing_points(NSESW)
    assert len(pts) == 4
    kinds = sorted((p.w_signs[0], round(float(mp.im(p.w[1])), 6),
                    round(float(mp.re(p.w[1])), 6)) for p in pts)
    r2 = round(2 ** -0.5, 6)
    assert kinds == [(-1, -r2, 0.0), (-1, r2, 0.0), (1, 0.0, -r2), (1, 0.0, r2)]
    for p in pts:
        with mp.workprec(260):
            assert abs(abs(p.t) - mp.mpf(1) / 2) < TOL
        assert abs(p.wd_squared) == Fraction(1, 2)
        assert check_critical(NSESW, p).ok
    rates = sorted(str(p.rate_exact) for p in pts)
    assert rates == ["-2*i*sqrt(2)", "-2*sqrt(2)", "2*i*sqrt(2)", "2*sqrt(2)"]


def test_contributing_points_positive_drift_single():
    pts = contributing_points(NNWS)
    assert len(pts) == 1
    p = pts[0]
    assert p.stratum == TRANSVERSE
    assert p.w_signs == (1,)
    with mp.workprec(260):
        assert abs(p.t - mp.mpf(1) / 3) < TOL
    # the sign-flipped crossing candidate has |S(-1,1)| = 1 != 3 and is filtered out
    rep = check_critical(NNWS, p)
    assert rep.ok


def test_contributing_points_zero_drift():
    pts = contributing_points(NSEW)
    assert len(pts) == 2
    strata = sorted(p.stratum for p in pts)
    assert strata == [SMOOTH, TRANSVERSE]
    # 2 + 2*sqrt(1) and -2 - 2*sqrt(1): a square radicand prints as its root
    assert sorted(str(p.rate_exact) for p in pts) == ["-4", "4"]
    smooth = next(p for p in pts if p.stratum == SMOOTH)
    assert smooth.w_signs == (-1,)
    with mp.workprec(260):
        assert abs(smooth.t + mp.mpf(1) / 4) < TOL


def test_equal_exponential_order():
    with mp.workprec(260):
        _equal_exponential_order_body()


def _equal_exponential_order_body():
    for s in (NSEW, NNWS, NSESSW, NSESW):
        pts = contributing_points(s)
        ref = None
        for p in pts:
            prod = p.t
            for c in p.w:
                prod = prod * c
            mag = abs(prod)
            if ref is None:
                ref = mag
            assert abs(mag - ref) < TOL
            assert abs(abs(p.rate()) - 1 / ref) < TOL * 100


def test_perturbed_point_rejected():
    p = minimal_point(NSESSW)
    bad = replace(p, wd_squared=p.wd_squared + Fraction(1, 500))
    rep = check_critical(NSESSW, bad)
    assert not rep.ok
    assert rep.residuals["grad_2"] > mp.mpf(10) ** -4


ZERO_DRIFT_ONE_AXIS = build_stepset(2, [((1, 0), 1), ((-1, 0), 1),
                                         ((1, 1), 2), ((-1, 1), 2), ((0, 1), 1),
                                         ((1, -1), 1), ((-1, -1), 1), ((0, -1), 3)])


def test_unsupported_model_raises():
    # every analytic route stops at the one gate in decompose, with its message
    for s, message in (
            (build_stepset(2, ["N", "W", "SE"]), "^model symmetry class not supported: "),
            (ZERO_DRIFT_ONE_AXIS, "^zero drift without full symmetry: asymptotics conjectural")):
        for route in (decompose, contributing_points, smooth_sheet_points,
                      minimal_point, asympt_full, asympt_closed):
            with pytest.raises(UnsupportedModelError, match=message):
                route(s)


def test_unique_positive_minimum_witness():
    # on the positive axis slice, Sbar(1,y) has a single derivative sign change
    # at y = sqrt(B(1)/A(1)) (grid check)
    for s in (NSESSW, NNWS, NSEW):
        dcmp = decompose(s)
        ones = (1,) * (s.dim - 1)
        target = Fraction(dcmp.B.eval(ones), dcmp.A.eval(ones))
        sbar = s.sbar_poly()
        dy = sbar.deriv(s.dim - 1)
        changes = 0
        prev = None
        for k in range(1, 400):
            y = Fraction(k, 100)
            val = dy.eval(ones + (y,))
            sign = (val > 0) - (val < 0)
            if prev is not None and sign != prev and 0 not in (sign, prev):
                changes += 1
                assert (Fraction(k - 1, 100)) ** 2 <= target <= y**2
            if sign != 0:
                prev = sign
        assert changes == 1


def test_smooth_sheet_points_positive_drift():
    # with the crossing factor cancelled, the positive-drift model has real
    # smooth-sheet points at z_d = +-sqrt(2) and an imaginary pair at
    # (-1, +-i*sqrt(2)); all four share the exponential order 2*sqrt(2)
    pts = smooth_sheet_points(NNWS)
    assert len(pts) == 4
    rates = sorted(str(p.rate_exact) for p in pts)
    assert rates == ["-2*i*sqrt(2)", "-2*sqrt(2)", "2*i*sqrt(2)", "2*sqrt(2)"]
    reals = sorted((p for p in pts if p.rate_exact.m > 0),
                   key=lambda p: float(mp.re(p.w[1])))
    with mp.workprec(260):
        assert abs(reals[0].w[1] + mp.sqrt(2)) < TOL
        assert abs(reals[1].w[1] - mp.sqrt(2)) < TOL
        assert all(p.w_signs == (1,) for p in reals)


@settings(max_examples=25, deadline=None)
@given(symmetric_models())
def test_candidate_count_bounds(s):
    pts = contributing_points(s)
    cls = classify(s)
    d = s.dim
    assert pts, "the principal minimal point must always survive"
    # one sign vector per symmetric axis, times the two drift roots off the crossing
    assert len(pts) <= (2 ** (d - 1) if cls.drift_sign > 0 else 2**d)
    mins = [p for p in pts if p.w_signs == (1,) * (d - 1) and p.nu == 0]
    assert len(mins) == 1
    assert minimal_point(s) == mins[0]
    sheet = smooth_sheet_points(s)
    assert len(sheet) <= 2**d
    # off the crossing both searches are one: asympt_full relies on it
    if cls.drift_sign <= 0:
        assert pts == sheet
    # crossing marks the points of the crossing search, whatever their stratum
    assert all(p.crossing == (cls.drift_sign > 0) for p in pts)
    assert not any(p.crossing for p in sheet)
    # every point is critical and off the second kernel sheet (H2_distance)
    assert all(check_critical(s, p).ok for p in pts + sheet)
    with mp.workprec(256):
        # each point shares |t| with the positive point of its search
        for found in (pts, sheet):
            ref = abs(next(p for p in found if p.is_principal()).t)
            assert all(abs(abs(p.t) - ref) < mp.mpf(2) ** -150 for p in found)
        # each exact rate is 1/(w_1..w_d t) at the point
        for p in pts + sheet:
            prod = p.t
            for c in p.w:
                prod *= c
            assert abs(p.rate_exact.to_mp() - 1 / prod) < mp.mpf(2) ** -150


@settings(max_examples=40, deadline=None)
@given(symmetric_models())
def test_exact_selection_matches_numeric_selection(s):
    # the exact identities keep the same points as the numeric |t| and residual
    # filters, for every drift class and with or without the crossing
    dcmp = decompose(s)

    def key(p):
        return (p.w_signs, p.nu, p.stratum, p.rate_exact, p.wd_squared)

    for crossing in (False, True):
        exact = _sign_vector_points(s, dcmp, crossing)
        numeric = numeric_sign_vector_points(s, crossing, 192)
        assert [key(p) for p in exact] == [key(p) for p in numeric]
        assert all(check_critical(s, p).ok for p in exact)
