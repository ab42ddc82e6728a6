"""Step-set validation, classification, canonicalization, and decompositions."""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import symmetric_models
from orthantwalks import asympt, stepset
from orthantwalks.asympt import asympt_full
from orthantwalks.critical import contributing_points, smooth_sheet_points
from orthantwalks.catalog import reproduce_tables
from orthantwalks.enumeration import count_profile, count_walks, endpoint_table, endpoint_tables
from orthantwalks.kernel import (
    diag_kernel,
    diagonal_coeffs,
    positive_part_check,
    series_nonnegative,
)
from orthantwalks.laurent import LaurentPoly
from orthantwalks.stepset import (
    HIGHLY_SYMMETRIC,
    MISSING_ONE_AXIS,
    UNSUPPORTED,
    StepSetError,
    UnsupportedModelError,
    build_stepset,
    classify,
    decompose,
    stepset_from_document,
)
from orthantwalks.verify import verify_model


def test_highly_symmetric_classification():
    s = build_stepset(2, ["N", "S", "E", "W"])
    cls = classify(s)
    assert cls.kind == HIGHLY_SYMMETRIC and cls.drift_sign == 0
    assert s.axis_order == (0, 1)


def test_positive_drift_example():
    s = build_stepset(2, ["NE", "NW", "S"])
    cls = classify(s)
    assert cls.kind == MISSING_ONE_AXIS and cls.drift_sign == 1
    d = decompose(s)
    assert d.A == LaurentPoly.const(1, 1)
    assert d.Q.is_zero()
    assert d.B == LaurentPoly(1, {(1,): 1, (-1,): 1})
    assert d.B.eval((1,)) - d.A.eval((1,)) == 1
    assert d.b_scalars == (Fraction(1),)


def test_negative_drift_example():
    s = build_stepset(2, ["N", "SE", "S", "SW"])
    d = decompose(s)
    assert d.A == LaurentPoly(1, {(1,): 1, (0,): 1, (-1,): 1})
    assert d.Q.is_zero()
    assert d.B == LaurentPoly.const(1, 1)
    assert d.B.eval((1,)) - d.A.eval((1,)) == -2
    assert classify(s).drift_sign == -1


def test_bk_splits():
    # eval_Bk is the z_k coefficient of Sbar = (z_k + 1/z_k) B_k + Q_k for
    # k < d, and B itself for k = d, at rational points
    models = [build_stepset(2, ["N", "SE", "S", "SW"]),
              build_stepset(3, [((0, 0, 1), 1)]
                            + [((a, b, -1), 1) for a in (-1, 1) for b in (-1, 1)]
                            + [((a, 0, -1), Fraction(3, 2)) for a in (-1, 1)]
                            + [((0, b, 1), 2) for b in (-1, 1)]),
              build_stepset(4, [((0, 0, 0, 1), 1)] + [((a, b, c, -1), 1) for a in (-1, 1)
                                                      for b in (-1, 1) for c in (-1, 0, 1)])]
    coords = (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-2, 5))
    for s in models:
        d = decompose(s)
        sbar = s.sbar_poly()
        for point in itertools.product(coords, repeat=s.dim):
            for k in range(s.dim - 1):
                want = sbar.coeff_slice(k, 1).eval(point[:k] + point[k + 1:])
                assert d.eval_Bk(k, point) == want
            assert d.eval_Bk(s.dim - 1, point) == d.B.eval(point[:-1])


def test_no_symmetry_model_is_unsupported():
    s = build_stepset(2, ["N", "W", "SE"])
    assert classify(s).kind == UNSUPPORTED
    with pytest.raises(UnsupportedModelError):
        decompose(s)


def test_zero_drift_non_hs_is_unsupported():
    # weighted model with balanced drift but asymmetric vertical weighting
    steps = [((1, 0), 1), ((-1, 0), 1),
             ((1, 1), 2), ((-1, 1), 2), ((0, 1), 1),
             ((1, -1), 1), ((-1, -1), 1), ((0, -1), 3)]
    s = build_stepset(2, steps)
    cls = classify(s)
    assert cls.kind == UNSUPPORTED and cls.drift_sign == 0


def test_canonical_order_moves_drift_axis_last():
    # same walk as NE,NW,S but with the roles of the axes swapped
    s = build_stepset(2, [((1, 1), 1), ((1, -1), 1), ((-1, 0), 1)])
    assert s.axis_order == (1, 0)
    d = decompose(s)
    assert d.A == LaurentPoly.const(1, 1)
    assert d.B == LaurentPoly(1, {(1,): 1, (-1,): 1})
    assert s.canonical_variant(("axes", (0,))) == (1,)
    assert s.canonical_variant(("axes", (0, 1))) == (0, 1)
    assert s.canonical_variant("anywhere") == ()


def test_validation_errors():
    with pytest.raises(StepSetError):
        build_stepset(1, [])
    with pytest.raises(StepSetError):
        build_stepset(2, ["N", "S", "E"])  # no backward step on axis 1
    with pytest.raises(StepSetError):
        build_stepset(2, [("N", 0), "S", "E", "W"])
    with pytest.raises(StepSetError):
        build_stepset(2, ["N", "N", "S", "E", "W"])
    with pytest.raises(StepSetError):
        build_stepset(2, [((2, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    with pytest.raises(StepSetError):
        build_stepset(2, [((0, 0), 1), ("N", 1), ("S", 1), ("E", 1), ("W", 1)])


def test_non_integer_step_data_rejected():
    # truncating these would silently count a different model
    with pytest.raises(StepSetError, match=r"step vector \[0\.5, 1\]"):
        build_stepset(2, [([0.5, 1], 1), "S", "E", "W"])
    with pytest.raises(StepSetError, match="'dimension' 2.7 is not an integer"):
        build_stepset(2.7, ["N", "S", "E", "W"])
    with pytest.raises(StepSetError, match="'dimension' 2.7 is not an integer"):
        stepset_from_document({"dimension": 2.7, "steps": ["N", "S", "E", "W"]})
    with pytest.raises(StepSetError, match="step vector"):
        stepset_from_document({"dimension": 2, "steps": [{"vector": [0, Fraction(1, 2)]},
                                                         "S", "E", "W"]})
    # JSON's true and false are not integers or weights
    with pytest.raises(StepSetError, match=r"step vector \[True, 0\]"):
        stepset_from_document({"dimension": 2, "steps": [{"vector": [True, 0]},
                                                         "N", "S", "W"]})
    with pytest.raises(StepSetError, match="weight True"):
        stepset_from_document({"dimension": 2, "steps": [{"vector": "N", "weight": True},
                                                         "S", "E", "W"]})
    with pytest.raises(StepSetError, match="'dimension' True is not an integer"):
        stepset_from_document({"dimension": True, "steps": ["N", "S", "E", "W"]})
    # integral values of any numeric type still pass
    nsew = build_stepset(2, ["N", "S", "E", "W"])
    assert build_stepset(2.0, [([0, 1.0], 1), ([Fraction(2, 2), 0], 1), "S", "W"]) == nsew
    doc = {"dimension": 2, "steps": [{"vector": [0, 1]}, "S", "E", "W"]}
    assert stepset_from_document(doc) == nsew


def test_decimal_weights_parse_exactly():
    s = build_stepset(2, [("N", "0.5"), ("S", "1/2"), ("E", 1), ("W", 1)])
    assert s.total_weight() == 3


def test_model_document_parsing():
    doc = {"dimension": 2,
           "steps": [{"vector": [0, 1], "weight": "1"},
                     {"vector": "SE", "weight": "3/2"},
                     "S",
                     {"vector": [-1, -1], "weight": "1.5"}]}
    s = stepset_from_document(doc)
    assert s.total_weight() == Fraction(5)
    assert classify(s).kind == MISSING_ONE_AXIS


@settings(max_examples=40, deadline=None)
@given(symmetric_models(), st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(1, 3)]))
def test_weight_scaling_invariance(s, lam):
    d = decompose(s)
    sd = decompose(s.scaled(lam))
    ones = (1,) * (s.dim - 1)
    assert sd.total_weight == lam * d.total_weight
    assert sd.A.eval(ones) == lam * d.A.eval(ones)
    assert sd.B.eval(ones) == lam * d.B.eval(ones)
    assert sd.b_scalars == tuple(lam * b for b in d.b_scalars)
    assert classify(s.scaled(lam)) == classify(s)


@settings(max_examples=40, deadline=None)
@given(symmetric_models())
def test_reflection_closure(s):
    cls = classify(s)
    sym_axes = [j for j in range(s.dim) if j != cls.axis]
    for j in sym_axes:
        reflected = []
        for v, w in s.steps:
            rv = list(v)
            rv[j] = -rv[j]
            reflected.append((tuple(rv), w))
        r = build_stepset(s.dim, reflected)
        assert decompose(r) == decompose(s)


@settings(max_examples=30, deadline=None)
@given(symmetric_models(dims=(3,)))
def test_symmetric_axis_relabeling(s):
    cls = classify(s)
    drift_axis = s.axis_order[s.dim - 1]
    sym = [j for j in range(s.dim) if j != drift_axis]
    for perm in itertools.permutations(sym):
        mapping = dict(zip(sym, perm))
        mapping[drift_axis] = drift_axis
        relabeled = [(tuple(v[mapping[j]] for j in range(s.dim)), w) for v, w in s.steps]
        r = build_stepset(s.dim, relabeled)
        dr, ds = decompose(r), decompose(s)
        assert dr.total_weight == ds.total_weight
        ones = (1,) * (s.dim - 1)
        assert dr.B.eval(ones) - dr.A.eval(ones) == ds.B.eval(ones) - ds.A.eval(ones)
        assert sorted(dr.b_scalars) == sorted(ds.b_scalars)
        assert classify(r).kind == cls.kind


# ------------------------------------------------------ per-model derived data

def test_derived_data_stays_out_of_equality_hash_and_repr():
    s, t = build_stepset(2, ["N", "SE", "SW"]), build_stepset(2, ["N", "SE", "SW"])
    before = repr(s)
    asympt_full(s, "origin")
    diag_kernel(s)
    assert s._store and not t._store
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t) == before
    assert before == f"StepSet(dim=2, steps={s.steps!r}, axis_order=(0, 1))"
    assert s != s.scaled(2) and not s.scaled(2)._store
    assert decompose(s.scaled(2)) != decompose(s)


def test_point_lists_are_new_on_every_call():
    s = build_stepset(2, ["N", "SE", "SW"])
    for search in (contributing_points, smooth_sheet_points):
        want = search(s)
        got = search(s)
        got.pop()
        got.append(None)
        assert search(s) == want and search(s) is not want
    assert asympt_full(s, ("axes", (0,))).terms == asympt_full(s, ("axes", (0,))).terms


def test_each_model_is_decomposed_and_planned_once(monkeypatch):
    calls = []
    build, plan = stepset._decompose, asympt._Integrand.__init__

    def counted(s):
        calls.append(("decompose", s))
        return build(s)

    def counted_plan(self, s, variant):
        calls.append(("plan", variant))
        plan(self, s, variant)

    monkeypatch.setattr(stepset, "_decompose", counted)
    monkeypatch.setattr(asympt._Integrand, "__init__", counted_plan)
    models = [build_stepset(2, ["N", "S", "SE", "SW"]), build_stepset(2, ["NE", "NW", "S"])]
    for _ in range(3):
        for s in models:
            asympt_full(s)
            asympt_full(s, "origin", N=3)
            verify_model(s, n_max=72)
            verify_model(s, n_max=72, flt="origin")
    assert Counter(calls) == {("decompose", models[0]): 1, ("decompose", models[1]): 1,
                              ("plan", ()): 2, ("plan", (0, 1)): 2}


# ------------------------------------------------------- lengths and depths
# Every route that takes a series length or an expansion depth checks it with
# ``check_count``: an int, not a bool or an integral float, and at least 0 (a
# length) or 1 (a depth); the ValueError names the argument.

NSEW = build_stepset(2, ["N", "S", "E", "W"])
NSESW = build_stepset(2, ["N", "SE", "SW"])
LENGTH_ROUTES = {
    "count_walks": lambda n: count_walks(NSEW, n),
    "count_walks float": lambda n: count_walks(NSEW, n, mode="float"),
    "count_profile": lambda n: count_profile(NSEW, n),
    "endpoint_tables": lambda n: endpoint_tables(NSEW, n),
    "endpoint_table": lambda n: endpoint_table(NSEW, n),
    "diagonal_coeffs": lambda n: diagonal_coeffs(diag_kernel(NSEW), n),
    "positive_part_check": lambda n: positive_part_check(NSEW, n),
    "series_nonnegative": lambda n: series_nonnegative(diag_kernel(NSEW), n),
    "verify_model": lambda n: verify_model(NSEW, n_max=n),
    "reproduce_tables": lambda n: reproduce_tables(modes=("symbolic",), n_max=n),
}
DEPTH_ROUTES = {
    "asympt_full": lambda depth: asympt_full(NSESW, N=depth),
    "smooth_contribution": lambda depth: asympt.smooth_contribution(
        NSESW, smooth_sheet_points(NSESW)[0], N=depth),
}


@pytest.mark.parametrize("count", LENGTH_ROUTES.values(), ids=LENGTH_ROUTES)
def test_every_length_route_refuses_what_is_not_a_length(count):
    for bad, message in [(True, "must be an int, got True"), (3.5, "must be an int, got 3.5"),
                         (4.0, "must be an int, got 4.0"), ("3", "must be an int, got '3'"),
                         (-1, "must be non-negative, got -1")]:
        with pytest.raises(ValueError, match=f"^n_max {message}$"):
            count(bad)


@pytest.mark.parametrize("expand", DEPTH_ROUTES.values(), ids=DEPTH_ROUTES)
def test_every_depth_route_refuses_what_is_not_a_depth(expand):
    for bad, message in [(True, "must be an int, got True"), (2.0, "must be an int, got 2.0"),
                         (0, "must be at least 1, got 0")]:
        with pytest.raises(ValueError, match=f"^expansion depth N {message}$"):
            expand(bad)


def test_check_count_takes_any_integer_and_returns_an_int():
    got = stepset.check_count(np.int64(3), "n_max")
    assert got == 3 and type(got) is int
    assert stepset.check_count(1, "N", 1) == 1
