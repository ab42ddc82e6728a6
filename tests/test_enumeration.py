"""DP oracle: exact counts vs brute force, float mode, filters, invariants."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_force_counts,
    brute_force_endpoints,
    direct_anywhere_counts,
    slice_evolve,
    symmetric_models,
)
from orthantwalks import _dp, catalog, enumeration
from orthantwalks.enumeration import (
    ENDPOINT_TABLE_MAX_N,
    CapacityError,
    CountSeries,
    count_profile,
    count_walks,
    endpoint_table,
    endpoint_tables,
)
from orthantwalks.stepset import build_stepset, normalize_filter, parse_filter
from orthantwalks.verify import verify_model

NSEW = build_stepset(2, ["N", "S", "E", "W"])
NNWS = build_stepset(2, ["NE", "NW", "S"])
NSESSW = build_stepset(2, ["N", "SE", "S", "SW"])
NSESW = build_stepset(2, ["N", "SE", "SW"])
WEIGHTED = build_stepset(2, [("N", Fraction(1, 2)), ("SE", Fraction(3, 2)), "S", ("SW", 2)])
D3 = build_stepset(3, [((0, 0, 1), 1)] + [((sx, sy, -1), 1) for sx in (-1, 1) for sy in (-1, 1)])
D4 = build_stepset(4, [((0, 0, 0, 1), 1)] + [((a, b, c, -1), 1)
                                             for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)])


def standard_filters(dim):
    return ["anywhere"] + [("axes", tuple(j for j in range(dim) if mask >> j & 1))
                           for mask in range(1, 2**dim)]


# ------------------------------------------------------------- frozen values

def test_nsew_anywhere_small():
    # frozen from the brute-force path enumerator in helpers.py
    got = count_walks(NSEW, 5).values
    assert got == [1, 2, 6, 18, 60, 200]
    assert got == brute_force_counts(NSEW.steps, 5, 2)


def test_nsew_origin_small():
    got = count_walks(NSEW, 4, "origin").values
    assert got == [1, 0, 2, 0, 10]


def test_nnws_anywhere_small():
    got = count_walks(NNWS, 3).values
    assert got == [1, 1, 3, 7]
    assert got == brute_force_counts(NNWS.steps, 3, 2)


def test_endpoint_tables():
    assert endpoint_table(NSEW, 0).counts == {(0, 0): 1}
    assert endpoint_table(NSEW, 1).counts == {(1, 0): 1, (0, 1): 1}
    # N,SE,S,SW after two steps: N.N -> (0,2), N.SE -> (1,0), N.S -> (0,0)
    assert endpoint_table(NSESSW, 2).counts == {(0, 2): 1, (1, 0): 1, (0, 0): 1}
    assert endpoint_table(NSESSW, 2).total() == count_walks(NSESSW, 2).values[2] == 3
    # rational weights: exact Fractions, checked endpoint by endpoint
    table = endpoint_table(WEIGHTED, 5)
    for point, c in table.counts.items():
        assert type(c) is Fraction
        assert c == brute_force_counts(WEIGHTED.steps, 5, 2, endpoint=point)[5]
    assert table.total() == count_walks(WEIGHTED, 5).values[5] == Fraction(103, 16)


@settings(max_examples=20, deadline=None)
@given(symmetric_models(dims=(2,)), st.integers(0, 4))
def test_exact_matches_brute_force(s, n):
    assert count_walks(s, n).values == brute_force_counts(s.steps, n, s.dim)
    table = endpoint_table(s, n)
    for point, c in table.counts.items():
        expect = brute_force_counts(s.steps, n, s.dim, endpoint=point)[n]
        assert c == expect


# ---------------------------------------------------------- light-cone pruning
# The kernel collapses every axis a walk cannot return to before the horizon
# n_max, so each horizon prunes differently: every horizon up to the largest is
# checked, at every n, on every standard filter.

@pytest.mark.parametrize("s, horizon", [(NSESSW, 17), (WEIGHTED, 14), (D3, 11), (D4, 8)],
                         ids=["N,SE,S,SW", "rational weights", "3D", "4D"])
def test_exact_counts_match_brute_force_at_every_horizon(s, horizon):
    for flt in standard_filters(s.dim):
        axes = None if flt == "anywhere" else flt[1]
        want = brute_force_counts(s.steps, horizon, s.dim, axes=axes)
        for n_max in range(horizon + 1):
            assert count_walks(s, n_max, flt).values == want[:n_max + 1], (flt, n_max)


@pytest.mark.parametrize("s", [WEIGHTED, D3], ids=["rational weights", "3D"])
def test_endpoint_tables_match_brute_force(s):
    # one pass gives every table up to n_max, each as endpoint_table gives it
    tables = endpoint_tables(s, ENDPOINT_TABLE_MAX_N)
    for n, frontier in enumerate(brute_force_endpoints(s.steps, ENDPOINT_TABLE_MAX_N, s.dim)):
        assert tables[n].n == n
        assert tables[n].counts == endpoint_table(s, n).counts == frontier


@pytest.mark.parametrize("s, n_max", [(NSESSW, 81), (D3, 30), (D4, 16)], ids=["2D", "3D", "4D"])
def test_float_profile_matches_exact_after_every_axis_collapses(s, n_max):
    s1 = s.total_weight()
    for flt, series in count_profile(s, n_max).items():
        exact = count_walks(s, n_max, flt).values
        for k, (u, c) in enumerate(zip(series.values, exact)):
            if c == 0:
                assert u == 0.0
            else:
                assert abs(u / float(Fraction(c) / s1**k) - 1) < 1e-12, (flt, k)


def test_evolve_keeps_only_the_light_cone_live():
    # the full part shrinks to {0..min(n, H-n)}^d, and the walks far from
    # every axis end up in the scalar part, with the total weight kept
    vectors, weights = [v for v, _ in D3.steps], [1] * len(D3.steps)
    horizon = 12
    for n, state in enumerate(_dp.evolve(vectors, weights, horizon, object)):
        assert state[(0, 1, 2)].shape == (min(n, horizon - n) + 1,) * 3
        assert _dp.totals_reader([()])(state) == [count_walks(D3, n).values[n]]
    assert set(state) == {axes for r in range(4) for axes in itertools.combinations(range(3), r)}
    assert state[()][()] > 0


@st.composite
def kernel_inputs(draw):
    """Random step sets as the kernel gets them: vectors of a model that
    ``build_stepset`` accepts (a forward and a backward step on every axis) and
    integer weights, some of them not 1."""
    d = draw(st.sampled_from([2, 3, 4]))
    nonzero = [v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)]
    vectors = draw(st.lists(st.sampled_from(nonzero), max_size=4, unique=True))
    for j in range(d):
        for sign in (1, -1):
            if not any(v[j] == sign for v in vectors):
                vectors.append(tuple(sign if i == j else 0 for i in range(d)))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(vectors), max_size=len(vectors)))
    build_stepset(d, list(zip(vectors, weights)))
    return vectors, weights


# ------------------------------------------ anywhere counts by the kernel equation
# An exact count at 'anywhere' reads only the boundary counts, through the
# kernel equation at z = (1, ..., 1); the direct sum over every part is its
# oracle.

# the weighted templates of the benchmark's verify workload, with half-integer
# weights, so the counts are Fractions
HALF_WEIGHTED = {f"{','.join(steps)} half-integer weights":
                 build_stepset(2, [(name, Fraction(2 * i + 1, 2)) for i, name in enumerate(steps)])
                 for steps in (["N", "S", "SE", "SW"], ["NE", "NW", "S"],
                               ["N", "S", "E", "W", "NE", "NW", "SE", "SW"])}
KERNEL_EQUATION_CASES = ([(e.stepset(), 100, e.name) for e in catalog.ENTRIES]
                         + [(s, 64, name) for name, s in HALF_WEIGHTED.items()]
                         + [(D3, 60, "3D"), (D4, 24, "4D")])


def check_kernel_equation(s, n_max):
    assert count_walks(s, n_max).values == direct_anywhere_counts(s, n_max)


@pytest.mark.parametrize("s, n_max", [case[:2] for case in KERNEL_EQUATION_CASES],
                         ids=[case[2] for case in KERNEL_EQUATION_CASES])
def test_anywhere_counts_from_the_kernel_equation_are_the_direct_sum(s, n_max):
    check_kernel_equation(s, n_max)


def test_half_integer_weights_count_in_fractions():
    values = count_walks(HALF_WEIGHTED["N,S,SE,SW half-integer weights"], 8).values
    assert values[0] == 1 and all(type(v) is Fraction for v in values[1:])


@settings(max_examples=30, deadline=None)
@given(kernel_inputs(), st.integers(0, 40))
def test_kernel_equation_matches_the_direct_sum_on_random_models(inputs, n_max):
    vectors, weights = inputs
    check_kernel_equation(build_stepset(len(vectors[0]), list(zip(vectors, weights))), n_max)


def test_exact_anywhere_pass_builds_no_scalar_part(monkeypatch):
    seen = set()
    evolve = _dp.evolve

    def recorded(*args, **kwargs):
        for state in evolve(*args, **kwargs):
            seen.update(state)
            yield state

    monkeypatch.setattr(_dp, "evolve", recorded)
    count_walks(D3, 30)
    assert seen == {axes for r in (1, 2, 3) for axes in itertools.combinations(range(3), r)}


def test_a_flipped_boundary_weight_sign_is_caught(monkeypatch):
    # the mutation: the sign of N_J for the first boundary set J flipped
    boundary_weights = enumeration._boundary_weights

    def flipped(vectors, weights):
        (axes, signed), *rest = boundary_weights(vectors, weights)
        return [(axes, -signed)] + rest

    monkeypatch.setattr(enumeration, "_boundary_weights", flipped)
    for s, n_max, _ in KERNEL_EQUATION_CASES:
        with pytest.raises(AssertionError):
            check_kernel_equation(s, n_max)
    report = verify_model(NSESSW)
    assert report.exact_checks["diagonal_vs_oracle"]["pass"] is False
    assert report.status == "fail"


@settings(max_examples=30, deadline=None)
@given(kernel_inputs(), st.integers(0, 40), st.sampled_from([object, np.float64]))
def test_evolve_matches_the_slice_kernel(inputs, horizon, dtype):
    vectors, weights = inputs
    for n, (got, want) in enumerate(zip(_dp.evolve(vectors, weights, horizon, dtype),
                                        slice_evolve(vectors, weights, horizon, dtype))):
        assert list(got) == list(want), n
        for axes, arr in got.items():
            assert arr.shape == want[axes].shape, (n, axes)
            if dtype is object:
                assert (arr == want[axes]).all(), (n, axes)
            else:
                assert arr.tobytes() == want[axes].tobytes(), (n, axes)
    assert n == horizon


@pytest.mark.parametrize("d", [2, 3, 4])
def test_evolve_buffers_are_zero_outside_the_live_box(d):
    # every step of {-1,0,1}^d, so a +-1 move off any face of the box is tried:
    # a nonzero slot outside the live box would mean a step wrapped into a
    # neighbouring row or hyperplane of the flat buffer
    vectors = [v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)]
    weights = [1 + i % 3 for i in range(len(vectors))]
    for horizon in range(14):
        for n, state in enumerate(_dp.evolve(vectors, weights, horizon, object)):
            for axes, arr in state.items():
                buf = arr.base  # the part's flat buffer, which the view reads
                # the widest box and past it a pad of one unit at the widest
                # stride, which must stay zero: gathers read it as empty cells
                size, k = horizon // 2 + 3, len(axes)
                assert buf.ndim == 1 and buf.size == size**k + sum(size**j for j in range(k))
                assert np.count_nonzero(buf) == np.count_nonzero(arr), (horizon, n, axes)


# kernels whose horizons cross several re-strides: every step of {-1,0,1}^2 with
# weights 1, 2, 3 in turn; the 3D example with one weight 2; WEIGHTED, whose
# projections onto one axis merge into weights 3 and 9; and D4 with one weight
# 2, re-strided every few steps so that a short horizon crosses several strides
RESTRIDE_CASES = {
    "2D": ([v for v in itertools.product((-1, 0, 1), repeat=2) if any(v)],
           [1 + i % 3 for i in range(8)], 200, _dp.SLACK),
    "3D": ([v for v, _ in D3.steps], [2, 1, 1, 1, 1], 80, _dp.SLACK),
    "merged": ([v for v, _ in WEIGHTED.steps], [1, 3, 2, 4], 150, _dp.SLACK),
    "4D": ([v for v, _ in D4.steps], [2] + [1] * 8, 24, 2),
}


@pytest.mark.parametrize("dtype", [object, np.float64], ids=["exact", "float"])
@pytest.mark.parametrize("case, in_place", [
    pytest.param(case, in_place, id=case + "-in-place" * in_place)
    for in_place in (False, True) for case in RESTRIDE_CASES])
def test_evolve_matches_the_slice_kernel_across_restrides(case, dtype, in_place, monkeypatch):
    # the flat kernel copies each live box to a narrower or wider stride as it
    # grows and shrinks; every state must stay what the slice kernel computes
    vectors, weights, horizon, slack = RESTRIDE_CASES[case]
    if in_place:
        # every part but the scalar one keeps a single buffer, stepped in blocks
        # of 40 cells that cut rows and re-strided inside it; a re-stride every
        # few steps lets a shorter horizon cross as many strides
        monkeypatch.setattr(_dp, "IN_PLACE_CELLS", 1)
        monkeypatch.setattr(_dp, "BLOCK", 40)
        slack, horizon = 4, min(horizon, 40)
    monkeypatch.setattr(_dp, "SLACK", slack)
    full = tuple(range(len(vectors[0])))
    strides = set()
    for n, (got, want) in enumerate(zip(_dp.evolve(vectors, weights, horizon, dtype),
                                        slice_evolve(vectors, weights, horizon, dtype))):
        assert list(got) == list(want), n
        strides.add(got[full].strides)
        for axes, arr in got.items():
            assert arr.shape == want[axes].shape, (n, axes)
            if dtype is object:
                assert (arr == want[axes]).all(), (n, axes)
            else:
                assert arr.tobytes() == want[axes].tobytes(), (n, axes)
            # no cell of an earlier stride is left behind in the part's buffer
            assert np.count_nonzero(arr.base) == np.count_nonzero(arr), (n, axes)
    assert n == horizon
    assert len(strides) >= 4  # the horizon crosses several re-strides


# sha256 over count_profile(s, 160)[flt].values.tobytes() for each standard
# filter in order, frozen from the kernel before its stride tracked the live box
PROFILE_DIGESTS_160 = {
    "N,S,E,W": "a5c5c665e271392c8d9165b7f259dcf25f7bffb44f5daaa68800cef21a0b232e",
    "NE,SE,NW,SW": "a90e04f9542660db48811b9e16488c175d34320f4f337c790c65df13123ba40a",
    "N,S,NE,SE,NW,SW": "4aa3b250990a92a2eebf0bb89b802e1f8b9c2bf2b296dab5424f33a9eb8e90bc",
    "N,S,E,W,NW,SW,SE,NE": "20668cafe48a188d1ff1a69a417c7d7af5d1c6fc70f5aa264202d62aa420fc13",
    "NE,NW,S": "4d5214843ad6ec22bdd2a68ae33081b45e4fba1fc2d6db120011caa023676fc5",
    "N,NW,NE,S": "8e17d396f653cf5643ccde962c28dda56330a90e02a2b9b2af6107c3af407030",
    "NE,NW,E,W,S": "98c71de52a915b4219d9c26e72376134a747834bfc5ba6a6066b3c1b01c50d2a",
    "N,NE,NW,SE,SW": "342e4e39c1793aa29c8e0edcd4810cb78801a78193edaa374e0079f49c70bdf7",
    "N,NW,NE,E,W,S": "613d84b31ae84df63fbe191eceed35a50bf62bbb0ce7aa04ed14744a9f368f9f",
    "N,E,W,NE,NW,SE,SW": "52ca4a9125b6540222516c1fdba501ce99bec92d593995f50c7e9c5c4acc7461",
    "N,SE,SW": "63f06e15e290aa638b11329f2e8c3068590142d1dcd074ff539716a160a886d5",
    "N,S,SE,SW": "01d477a4b152e2956c1ce39483698813edcd271c1446546b4b72d1086900f623",
    "NE,NW,SE,SW,S": "057de202853ed93eaf66de3b1e00713ccb9d1e144b4fecd97c5dc2b3fafaf492",
    "N,E,W,SE,SW": "398a66ecac89c433ddabfd68752b1a16a92a6532dd9b15574dff2f026a03a6f5",
    "N,E,W,S,SW,SE": "b4620a36cf8368dfdeac4a26ff07b61651769b17a43889732dc0d435f9efc3ff",
    "NE,NW,E,W,SE,SW,S": "a9ac8b8eb33119d7a19bddd1ea7f9a50e7733803b64c9de52c9422e0a5f24905",
    "NE,W,S": "96b5516192124c20566cd7f39122f2a9557707a823d9190774679636118dc648",
    "N,E,SW": "728c5c649dc11ecbe0cd07d694cf9ce165324405b3cb7d20c1887b3a1e56623b",
    "N,NE,E,S,SW,W": "133e2a325a0288446421fc0f41fb498592c53425b2328b2b7f137bf6b5e9f5b0",
    "NE,E,SW,W": "9797339ce6982881370414b3624213f1d327f659879ae8756a3fa2c34438cd23",
    "N,W,SE": "f1d5b620d7a9e0f849c9ef5f4b849024ddc810d20345c292bfeb2c53c78e551f",
    "NW,SE,N,S,E,W": "95a8ed88fb0c21a66b090c0273237c6ba1ff400750c969710d978a5b0dac9a48",
    "E,SE,W,NW": "4544880c8525f5be7f068e9260d438b3d5baaabed5a355610eab78df42d6bc22",
}


def _profile_digest(s, n_max):
    h = hashlib.sha256()
    for series in count_profile(s, n_max).values():
        h.update(series.values.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(PROFILE_DIGESTS_160))
def test_float_profiles_are_frozen_bit_for_bit(name):
    (entry,) = [e for e in catalog.ENTRIES if e.name == name]
    assert _profile_digest(entry.stepset(), 160) == PROFILE_DIGESTS_160[name]


# the same digests, taken before both kinds of part formed their cells through
# one formula, over parts stepped in place at their real sizes: the 3D
# example's full part at n = 144 (75^3 cells), unit and weighted, and D4's at
# n = 72 (39^4 cells), whose unit of 60,880 cells is wider than a block
LARGE_PART_DIGESTS = {
    "3D": (D3, 144, "5269890b5fca79300b6b094fd92f035d25dc2209df9ce56d06ba1cc9f73ff26f"),
    "3D-weighted": (build_stepset(3, list(zip([v for v, _ in D3.steps], [2, 1, 3, 1, 1]))), 144,
                    "d164ca67453c1e4c1ecf06cc316d2120377035d1126f302e8f5a0534a2e006bd"),
    "4D": (D4, 72, "1e78b5e09e63eb55c3d74b906d4107a13cf2ba189d6074c696a799f7d470942e"),
}


@pytest.mark.parametrize("name", list(LARGE_PART_DIGESTS))
def test_float_profiles_of_large_parts_are_frozen_bit_for_bit(name):
    s, n_max, digest = LARGE_PART_DIGESTS[name]
    assert _profile_digest(s, n_max) == digest


@pytest.mark.parametrize("weights, bound", [([1] * 5, 1.3), ([2, 1, 3, 1, 1], 1.4)],
                         ids=["unit", "weighted"])
def test_large_parts_keep_one_buffer(weights, bound):
    # the 3D example's full part at n = 144 has 75^3 cells, more than
    # IN_PLACE_CELLS: stepped in place, it holds one float64 buffer of them
    # where two, and a third for non-unit weights, would hold 2 or 3 times that;
    # past the buffer and its pad come the window, a scratch block with
    # non-unit weights, and the smaller parts
    s = build_stepset(3, list(zip([v for v, _ in D3.steps], weights)))
    count_walks(s, 2, "anywhere", "float")  # numpy's first-use allocations
    tracemalloc.start()
    try:
        count_walks(s, 144, "anywhere", "float")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * 75**3 * 8


@pytest.mark.parametrize("weights", [[1] * 5, [2, 1, 3, 1, 1]], ids=["unit", "weighted"])
def test_in_place_steps_allocate_no_arrays(weights, monkeypatch):
    # once a part exists, its steps and re-strides form every block straight
    # into the buffer and move hyperplanes through the window: past the
    # state's views and dicts, no array is allocated.  A block of 2^10 cells
    # makes any block-sized array (8 kB) larger than the bound
    monkeypatch.setattr(_dp, "IN_PLACE_CELLS", 1)
    monkeypatch.setattr(_dp, "BLOCK", 2**10)
    monkeypatch.setattr(_dp, "SLACK", 4)
    vectors = [v for v, _ in D3.steps]
    states = _dp.evolve(vectors, weights, 40, np.float64, [(0, 1, 2)])
    assert set(next(states)) == {(0, 1, 2)}  # the full part only, in place
    tracemalloc.start()
    try:
        for n, _ in enumerate(states, 1):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 40
    assert peak < 6000


def _reach_rows_reached(vectors, weights, horizon):
    """The parts in which some state of the slice kernel, which forms every
    row, holds a walk at x = floor(rho n) on the first axis; asserts none
    gets past it."""
    rates = _dp._reach_rates(vectors)
    reached = set()
    for n, state in enumerate(slice_evolve(vectors, weights, horizon, object)):
        for axes, arr in state.items():
            if axes and axes[0] in rates:
                top = n * rates[axes[0]] // 2
                assert not np.count_nonzero(arr[top + 1:]), (n, axes)
                if top < len(arr) and np.count_nonzero(arr[top]):
                    reached.add(axes)
    return reached


def test_reach_rates_of_the_catalog_and_the_examples():
    # twice rho for each axis with rho < 1: the axes along which every step
    # forward also steps down the drift axis
    rates = {e.name: _dp._reach_rates([v for v, _ in e.stepset().steps])
             for e in catalog.ENTRIES}
    assert {name: r for name, r in rates.items() if r} == {
        "N,SE,SW": {0: 1}, "N,S,SE,SW": {0: 1}, "N,W,SE": {0: 1}, "E,SE,W,NW": {1: 1}}
    assert _dp._reach_rates([v for v, _ in D3.steps]) == {0: 1, 1: 1}
    assert _dp._reach_rates([v for v, _ in D4.steps]) == {0: 1, 1: 1, 2: 1}
    # the bound needs the orthant, not the weights: a lone step backward on
    # an axis, or none forward on the other, holds it at 0
    assert _dp._reach_rates([(1, -1), (-1, -1)]) == {0: 0, 1: 0}
    assert _dp._reach_rates([(1,), (-1,)]) == {}


@pytest.mark.parametrize("s, horizon", [(D3, 24), (D4, 12), (NSESW, 40)],
                         ids=["3D", "4D", "N,SE,SW"])
def test_no_walk_passes_the_reach_row(s, horizon):
    # the full part meets the bound; the others hold too few walks to
    vectors = [v for v, _ in s.steps]
    assert tuple(range(s.dim)) in _reach_rows_reached(vectors, [1] * len(vectors), horizon)


@settings(max_examples=25, deadline=None)
@given(kernel_inputs(), st.integers(0, 24))
def test_no_walk_of_a_random_kernel_passes_the_reach_row(inputs, horizon):
    _reach_rows_reached(*inputs, horizon)


def test_the_3d_float_pass_leaves_the_rows_past_its_reach_unmapped():
    # the 3D example's full part at n = 144 holds 75^3 float64 cells, 3.4 MB,
    # stepped in place; its rows past x = n/2 are never written, so their
    # pages stay unmapped.  Before the reach rows the pass grew the peak
    # resident set by 3.6 MB, after them by 2.4 MB (Linux, 2 cores)
    probe = """
import resource
from orthantwalks.enumeration import count_walks
from orthantwalks.stepset import build_stepset
s = build_stepset(3, [((0, 0, 1), 1)] + [((x, y, -1), 1) for x in (-1, 1) for y in (-1, 1)])
count_walks(s, 2, "anywhere", "float")  # numpy's first-use allocations
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
count_walks(s, 144, "anywhere", "float")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    src = os.path.dirname(os.path.dirname(_dp.__file__))
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert int(out) < 3.2 * 1024  # ru_maxrss is in kB on Linux


# ------------------------------------------------------------------ filters

def test_filter_parsing():
    assert parse_filter("anywhere", 2) == "anywhere"
    assert parse_filter("origin", 2) == ("axes", (0, 1))
    assert parse_filter("axes=2", 2) == ("axes", (1,))
    assert normalize_filter(("axes", ()), 2) == "anywhere"
    assert normalize_filter(("axes", (1, 0, 1)), 2) == ("axes", (0, 1))
    assert normalize_filter(("axes", [1]), 2) == ("axes", (1,))
    for text, dim, message in (
            ("axes=5", 2, "endpoint filter 'axes=5': axes are numbered 1 to 2"),
            ("axes=0", 2, "endpoint filter 'axes=0': axes are numbered 1 to 2"),
            ("axes=-1", 2, "endpoint filter 'axes=-1': axes are numbered 1 to 2"),
            ("axes=4", 3, "endpoint filter 'axes=4': axes are numbered 1 to 3"),
            ("axes=x", 2, "endpoint filter 'axes=x': 'x' is not an axis number"),
            ("axes=1,x", 2, "endpoint filter 'axes=1,x': 'x' is not an axis number"),
            ("axes=1.5", 2, "endpoint filter 'axes=1.5': '1.5' is not an axis number"),
            ("nowhere", 2, "cannot parse endpoint filter 'nowhere'")):
        with pytest.raises(ValueError) as info:
            parse_filter(text, dim)
        assert str(info.value) == message
    for empty in ("axes=", "axes=,"):  # names no boundary, so it is not 'anywhere'
        with pytest.raises(ValueError, match="names no axis"):
            parse_filter(empty, 2)


@pytest.mark.parametrize("flt", [("axes", (0.5,)), ("axes", (1.9,)), ("axes", (True,)),
                                 ("axes", "01"), ("axes", 0)],
                         ids=["half", "near two", "bool", "string", "bare int"])
def test_normalize_filter_refuses_axes_that_are_not_ints(flt):
    with pytest.raises(ValueError, match="endpoint filter") as info:
        normalize_filter(flt, 2)
    assert repr(flt) in str(info.value)


def test_filter_nesting():
    full = count_walks(NSESSW, 8).values
    ax = count_walks(NSESSW, 8, ("axes", (0,))).values
    org = count_walks(NSESSW, 8, "origin").values
    for n in range(9):
        assert org[n] <= ax[n] <= full[n]


def test_origin_parity_mod_4():
    got = count_walks(NSESW, 12, "origin").values
    assert got == [1, 0, 0, 0, 2, 0, 0, 0, 28, 0, 0, 0, 660]
    for n, v in enumerate(got):
        assert (v == 0) == (n % 4 != 0)


# -------------------------------------------------------------- weight scale

def test_weight_scaling_exact():
    doubled = build_stepset(2, [("N", 2), ("S", 2), ("E", 2), ("W", 2)])
    base = count_walks(NSEW, 6).values
    got = count_walks(doubled, 6).values
    assert got == [b * 2**n for n, b in enumerate(base)]


@settings(max_examples=15, deadline=None)
@given(symmetric_models(dims=(2,)), st.sampled_from([2, Fraction(3, 2)]))
def test_weight_scaling_random(s, lam):
    base = count_walks(s, 5).values
    got = count_walks(s.scaled(lam), 5).values
    assert got == [b * lam**n for n, b in enumerate(base)]


# --------------------------------------------------------------- float mode

def test_float_matches_exact_to_1e12():
    n = 60
    exact = count_walks(NSEW, n).values
    fl = count_walks(NSEW, n, mode="float")
    for k in (1, 7, 30, 60):
        rel = abs(fl.value(k) - exact[k]) / exact[k]
        assert rel < 1e-12
        assert abs(fl.log_value(k) - math.log(exact[k])) < 1e-12


def test_exact_log_value_past_the_float_range():
    # a Fraction past the float range takes log(numerator) - log(denominator)
    series = CountSeries("exact", "anywhere", [Fraction(3**700, 32), 0, 3**700])
    assert series.log_value(0) == pytest.approx(700 * math.log(3) - 5 * math.log(2), rel=1e-15)
    assert series.log_value(1) == -math.inf
    assert series.log_value(2) == math.log(3**700)


def test_exact_value_is_the_stored_count():
    series = count_walks(WEIGHTED, 6)
    assert [series.value(n) for n in range(7)] == series.values
    assert series.value(6) == Fraction(213, 8) and series.value(1) == Fraction(1, 2)


def test_float_value_finite_where_only_the_scale_overflows():
    # at the origin of N,S,E,W, s_2m = C_m C_(m+1) (Catalan numbers): s_520 is
    # about 8.4e305 although the scale 4^520 passes the float range
    fl = count_walks(NSEW, 526, "origin", mode="float")
    exact = math.comb(520, 260) // 261 * (math.comb(522, 261) // 262)
    assert math.isfinite(fl.value(520))
    assert abs(fl.value(520) - exact) / exact < 1e-12
    assert abs(fl.value(520) / math.exp(fl.log_value(520)) - 1) < 1e-12
    assert fl.value(519) == 0
    with pytest.raises(OverflowError):  # s_526 = 3.3e309 is past the float range
        fl.value(526)


def test_float_profile_consistency():
    prof = count_profile(NSESSW, 40)
    ex_org = count_walks(NSESSW, 40, "origin").values
    series = prof[("axes", (0, 1))]
    for n in (0, 10, 24, 40):
        if ex_org[n]:
            assert abs(series.value(n) / ex_org[n] - 1) < 1e-11
        else:
            assert series.values[n] == 0.0


def test_growth_rate_matches_reduced_weight():
    # even-index log-rate approaches log(2*sqrt(3)) for the negative-drift model;
    # the same-parity difference quotient removes the alpha*log(n)/n bias
    fl = count_walks(NSESSW, 512, mode="float")
    rate = (fl.log_value(512) - fl.log_value(256)) / 256
    assert abs(rate - math.log(2 * math.sqrt(3))) < 1e-2
    raw = fl.log_value(512) / 512
    assert abs(raw - math.log(2 * math.sqrt(3))) < 3e-2


@settings(max_examples=25, deadline=None)
@given(symmetric_models(dims=(2, 3)), st.data())
def test_float_matches_exact_over_total_weight_powers(s, data):
    # float mode stores u_n = s_n / S(1)^n; check every standard filter,
    # rational weights included, against the exact series
    n = data.draw(st.integers(0, 60 if s.dim == 2 else 20))
    s1 = s.total_weight()
    for flt, series in count_profile(s, n).items():
        exact = count_walks(s, n, flt).values
        for k, (u, c) in enumerate(zip(series.values, exact)):
            if c == 0:
                assert u == 0.0
            else:
                assert abs(u / float(Fraction(c) / s1**k) - 1) < 1e-12


def test_exact_three_dimensional_model():
    steps = [((0, 0, 1), 1)] + [((sx, sy, -1), 1) for sx in (-1, 1) for sy in (-1, 1)]
    s3 = build_stepset(3, steps)
    got = count_walks(s3, 4).values
    assert got == brute_force_counts(s3.steps, 4, 3)


def test_capacity_errors():
    with pytest.raises(CapacityError):
        count_walks(NSEW, 8192)  # (8193)^2 cells exceed 2^26, refused before allocating
    with pytest.raises(CapacityError):
        endpoint_table(NSEW, 20)
    with pytest.raises(CapacityError):
        count_profile(NSEW, 10_000)


@pytest.mark.parametrize("count, n", [(count_profile, -1), (count_profile, -3),
                                      (endpoint_table, -1), (count_walks, -1)])
def test_negative_lengths_are_refused(count, n):
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        count(NSEW, n)


def test_profile_of_chosen_filters_matches_the_full_profile():
    full = count_profile(D3, 40)
    chosen = count_profile(D3, 40, filters=["origin", ("axes", (2, 0)), "origin"])
    assert list(chosen) == [("axes", (0, 1, 2)), ("axes", (0, 2))]
    for flt, series in chosen.items():
        assert series.values.tobytes() == full[flt].values.tobytes()
        assert series.underflow == full[flt].underflow
    assert (count_walks(D3, 40, "origin", mode="float").values.tobytes()
            == full[("axes", (0, 1, 2))].values.tobytes())


@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=lambda e: e.name)
def test_one_filter_profile_is_the_all_filter_series_byte_for_byte(entry):
    # a pass for some filters steps only the parts those filters read
    s = entry.stepset()
    full = count_profile(s, 160)
    for flt in standard_filters(2):
        one = count_profile(s, 160, filters=[flt])[flt]
        assert one.values.tobytes() == full[flt].values.tobytes(), flt
        assert (one.log_scale, one.underflow) == (full[flt].log_scale, full[flt].underflow)


def test_evolve_keeps_the_parts_its_filters_read():
    vectors, weights = [v for v, _ in D3.steps], [1] * len(D3.steps)
    *_, origin = _dp.evolve(vectors, weights, 12, object, [(0, 1, 2)])
    assert set(origin) == {(0, 1, 2)}
    *_, axis = _dp.evolve(vectors, weights, 12, object, [(1,), (0, 1)])
    assert set(axis) == {(0, 1, 2), (0, 1), (1, 2), (1,)}


def test_monotone_bound_integer_weights():
    vals = count_walks(NSESSW, 10).values
    s1 = int(NSESSW.total_weight())
    for n in range(10):
        assert vals[n + 1] <= s1 * vals[n]
