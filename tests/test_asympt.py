"""Saddle-point engine vs closed forms, derivative identities, and folding."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from helpers import operator_saddle_coefficients, symmetric_models
from orthantwalks.asympt import (
    ContributionTerm,
    _phase_jets,
    _saddle_coefficients,
    asympt_closed,
    asympt_full,
    negative_drift_closed_constant,
    smooth_contribution,
    transverse_contribution,
)
from orthantwalks.catalog import lookup
from orthantwalks.critical import QuadVal, contributing_points, minimal_point
from orthantwalks.laurent import Jet, jet_of_exponential_substitution
from orthantwalks.stepset import (
    UnsupportedModelError,
    build_stepset,
    classify,
    decompose,
)

NSGROUP = build_stepset(2, ["N", "SE", "S", "SW"])
NNWS = build_stepset(2, ["NE", "NW", "S"])
NSEW = build_stepset(2, ["N", "S", "E", "W"])
S3 = build_stepset(
    3, [((0, 0, 1), 1)] + [((sx, sy, -1), 1) for sx in (-1, 1) for sy in (-1, 1)])

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
        pts = contributing_points(NSGROUP, PREC)
        want = {1: 3 * mp.sqrt(3) * (2 + mp.sqrt(3)) / mp.pi,
                -1: 3 * mp.sqrt(3) * (2 - mp.sqrt(3)) / mp.pi}
        for p in pts:
            term = smooth_contribution(NSGROUP, p, N=2, prec=PREC)
            sign = 1 if mp.re(p.w[1]) > 0 else -1
            assert abs(term.coefficients[0]) < mp.mpf(10) ** -30
            assert abs(term.coefficients[1] - want[sign]) < mp.mpf(10) ** -30


def test_engine_equals_closed_constants_negative_drift():
    with mp.workprec(260):
        for s in (NSGROUP, build_stepset(2, ["N", "SE", "SW"]),
                  build_stepset(2, ["N", "E", "W", "SE", "SW"])):
            for p in contributing_points(s, PREC):
                term = smooth_contribution(s, p, N=2, prec=PREC)
                kp, cp = negative_drift_closed_constant(s, p, prec=PREC)
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
            p2 = minimal_point(s, PREC)
            term = transverse_contribution(s, p2, prec=PREC)
            closed = asympt_closed(s, PREC).periodic.constants[0]
            assert abs(term.coefficients[0] - closed) / closed < mp.mpf(10) ** -30


def test_closed_constant_rejects_crossing_point():
    p2 = minimal_point(NNWS, PREC)
    with pytest.raises((ZeroDivisionError, ValueError)):
        negative_drift_closed_constant(NNWS, p2, prec=PREC)


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
        jet = jet_of_exponential_substitution(s.sbar_poly(), p.w, 3, 256)
        out = []
        for j in range(d - 1):
            e1 = tuple(1 if k == j else 0 for k in range(d))
            e2 = tuple(2 if k == j else 0 for k in range(d))
            bj = dcmp.eval_Bk(j, p.w)
            out.append((jet.coefficient(e1), mp.mpc(0)))
            out.append((jet.coefficient(e2) * 2, -2 * p.w[j] * bj))
        if p.stratum == "SmoothV1":
            ed1 = tuple(1 if k == d - 1 else 0 for k in range(d))
            ed2 = tuple(2 if k == d - 1 else 0 for k in range(d))
            bd = dcmp.eval_B(p.w)
            out.append((jet.coefficient(ed1), mp.mpc(0)))
            out.append((jet.coefficient(ed2) * 2, -2 * bd / p.w[d - 1]))
            for j in range(d - 1):
                e = tuple((2 if k == j else 0) + (1 if k == d - 1 else 0)
                          for k in range(d))
                apj, bpj = dcmp.ABprime[j][0], dcmp.ABprime[j][1]
                zhat = tuple(c for i, c in enumerate(p.w[: d - 1]) if i != j)
                apv = apj.eval(zhat) if apj.dim else apj.eval(())
                bpv = bpj.eval(zhat) if bpj.dim else bpj.eval(())
                want = -2j * p.w[j] * (p.w[d - 1] * apv - bpv / p.w[d - 1])
                out.append((jet.coefficient(e) * 2, want))
        return out


def test_jet_derivative_identities_at_contributing_points():
    for steps in (["N", "SE", "S", "SW"], ["N", "SE", "SW"], ["NE", "NW", "S"],
                  ["N", "S", "E", "W"]):
        s = build_stepset(2, steps)
        dcmp = decompose(s)
        for p in contributing_points(s, PREC):
            with mp.workprec(280):
                for got, want in _lemma_targets(s, dcmp, p):
                    assert abs(got - want) < mp.mpf(10) ** -30


def test_phase_hessian_matches_closed_form():
    with mp.workprec(280):
        for s in (NSGROUP, build_stepset(2, ["N", "E", "W", "SE", "SW"])):
            dcmp = decompose(s)
            for p in contributing_points(s, PREC):
                _, _, lam = _phase_jets(s.sbar_poly(), p.w, 4, 256)
                sbar = p.rate()
                for j in range(s.dim - 1):
                    want = 2 * p.w[j] * dcmp.eval_Bk(j, p.w) / sbar
                    assert abs(lam[j] - want) < mp.mpf(10) ** -30
                want_d = 2 * dcmp.eval_B(p.w) / (p.w[s.dim - 1] * sbar)
                assert abs(lam[s.dim - 1] - want_d) < mp.mpf(10) ** -30


def test_high_order_vanishing_numerator_kills_first_correction():
    # a numerator vanishing to order >= 3 at the saddle forces L_1 = 0
    with mp.workprec(280):
        _, g, lam = _phase_jets(NSGROUP.sbar_poly(),
                                minimal_point(NSGROUP, PREC).w, 6, 256)
        lin = Jet(2, 6, {(1, 0): mp.mpc(1, 0.5), (0, 1): mp.mpc(0.25, -1)}, 256)
        u = lin * lin * lin
        coeffs = _saddle_coefficients(u, g, lam, 2, 256)
        assert abs(coeffs[0]) < mp.mpf(10) ** -40
        assert abs(coeffs[1]) < mp.mpf(10) ** -40


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
    variant = tuple(sorted(s.to_canonical_axes(axes)))
    with mp.workprec(280):
        pts = contributing_points(s, PREC)
        want = [operator_saddle_coefficients(s, p, depth, variant, PREC) for p in pts]
        scale = max(abs(c) for cs in want for c in cs)
        for p, cs in zip(pts, want):
            for n in range(1, depth + 1):
                got = smooth_contribution(s, p, N=n, numerator_variant=variant,
                                          prec=PREC).coefficients
                assert len(got) == n
                for g, w in zip(got, cs):
                    assert abs(g - w) <= mp.mpf(10) ** -60 * scale


@settings(max_examples=12, deadline=None)
@given(symmetric_models(dims=(2, 3)), st.integers(1, 3), st.data())
def test_deeper_expansion_extends_shallower(s, depth, data):
    axes = data.draw(st.sets(st.integers(0, s.dim - 1)), label="axes")
    flt = ("axes", tuple(sorted(axes))) if axes else "anywhere"
    variant = tuple(sorted(s.to_canonical_axes(axes)))
    with mp.workprec(260):
        # the points asympt_full expands for this filter
        for p in [t.point for t in asympt_full(s, flt, N=1, prec=PREC).terms]:
            shallow = smooth_contribution(s, p, N=depth, numerator_variant=variant,
                                          prec=PREC).coefficients
            deep = smooth_contribution(s, p, N=depth + 1, numerator_variant=variant,
                                       prec=PREC).coefficients
            scale = max([abs(c) for c in deep] + [mp.mpf(1)])
            assert len(deep) == depth + 1
            for a, b in zip(shallow, deep):
                assert abs(a - b) <= mp.mpf(10) ** -60 * scale


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


@pytest.mark.parametrize("depth", [0, -1])
def test_expansion_depth_must_be_positive(depth):
    with pytest.raises(ValueError, match="depth"):
        asympt_full(NSGROUP, N=depth)
    with pytest.raises(ValueError, match="depth"):
        smooth_contribution(NSGROUP, minimal_point(NSGROUP, PREC), N=depth)


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
        for p in contributing_points(s, PREC):
            c0 = smooth_contribution(s, p, N=1, prec=PREC).coefficients[0]
            want = transverse_contribution(s, p, prec=PREC).coefficients[0]
            assert abs(c0 - want) < mp.mpf(10) ** -30 * max(1, abs(want))


def test_fold_treats_rounding_noise_as_zero():
    # at depth 2 both coefficients of every point are rounding noise; depth 3
    # reaches the stored n^-3 term
    s = build_stepset(2, ["N", "SE", "SW"])
    shallow = asympt_full(s, ("axes", (0,)), N=2, prec=PREC)
    assert shallow.partial and shallow.periodic is None
    with mp.workprec(260):
        pf = asympt_full(s, ("axes", (0,)), N=3, prec=PREC).periodic
        stored = lookup("N,SE,SW").table2["x_axis"]
        assert pf.alpha == stored.alpha == -3
        assert pf.period == stored.period
        for got, want in zip(pf.constants, stored.constant_values()):
            assert abs(got - want) < mp.mpf(10) ** -30 * want


@settings(max_examples=20, deadline=None)
@given(symmetric_models(dims=(2,), want=("pos", "neg", "hs")))
def test_folded_constants_real_nonnegative_random(s):
    with mp.workprec(260):
        exp = asympt_full(s, prec=PREC)
        if exp.periodic is None:
            return
        for c in exp.periodic.constants:
            assert c >= -mp.mpf(10) ** -25
