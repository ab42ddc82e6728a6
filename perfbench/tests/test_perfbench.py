"""Self-tests of the benchmark's own arithmetic, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import itertools
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from orthantwalks import enumeration  # noqa: E402
from orthantwalks.stepset import build_stepset  # noqa: E402

import instrument  # noqa: E402
import workloads  # noqa: E402
from spans import Probes, Span, SpanSummary, Tracer, ratio  # noqa: E402
from workloads import Check  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ------------------------------------------------------------- self time

def test_nested_spans_self_and_busy():
    clock = FakeClock()
    tr = Tracer(clock)

    def step(dt):
        clock.now += dt

    def inner_x():
        step(1)

    def y_with_nested_x():
        step(1)
        tr.call("x", inner_x, (), {})
        step(1)

    def outer_x():
        step(1)
        tr.call("y", y_with_nested_x, (), {})   # [1, 4], holds x [2, 3]
        step(1)
        tr.call("y", step, (1,), {})             # [5, 6]
        step(4)

    tr.call("x", outer_x, (), {})                # [0, 10]
    sm = SpanSummary(tr.spans)
    assert sm.calls("x") == 2 and sm.calls("y") == 2
    assert sm.busy("x") == pytest.approx(10)     # the inner x is not counted twice
    assert sm.busy("y") == pytest.approx(4)
    assert sm.self_time("x") == pytest.approx((10 - 3 - 1) + 1)
    assert sm.self_time("y") == pytest.approx((3 - 1) + 1)


def test_spans_across_threads_add_busy_but_not_self():
    spans = [
        Span(0, None, "catalog", 1, 0.0, 10.0),
        Span(1, 0, "catalog.prefetch_wait", 1, 1.0, 8.0),
        Span(2, None, "enumeration.float", 2, 1.0, 5.0),
        Span(3, None, "enumeration.float", 3, 1.0, 8.0),
    ]
    sm = SpanSummary(spans)
    assert sm.busy("enumeration.float") == pytest.approx(11.0)  # more than the 10 s wall
    assert sm.self_time("catalog") == pytest.approx(3.0)        # only its own wait is removed
    assert sm.busy("catalog.prefetch_wait") == pytest.approx(7.0)


def test_pool_thread_span_has_no_parent():
    tr = Tracer()

    def submit_and_wait():
        worker = threading.Thread(target=tr.call, args=("work", lambda: None, (), {}))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tr.call("main", submit_and_wait, (), {})
    by_name = {s.name: s for s in tr.spans}
    assert by_name["work"].parent is None
    assert by_name["work"].thread != by_name["main"].thread
    assert SpanSummary(tr.spans).self_time("main") == pytest.approx(by_name["main"].duration)


def test_concurrent_spans_keep_ids_unique_and_parents_per_thread():
    tr = Tracer()
    threads, calls = 8, 500

    def outer():
        tr.call("inner", lambda: None, (), {})

    def worker():
        for _ in range(calls):
            tr.call("outer", outer, (), {})

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(old)
    by_id = {s.id: s for s in tr.spans}
    assert len(by_id) == len(tr.spans) == 2 * threads * calls
    for s in tr.spans:
        if s.name == "inner":
            parent = by_id[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
        else:
            assert s.parent is None


def test_raising_call_still_records_its_span():
    tr = Tracer()

    def boom():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        tr.call("x", boom, (), {}, lambda a, k, r: {"never": 1})
    assert [s.name for s in tr.spans] == ["x"] and tr.spans[0].attrs == {}


# ------------------------------------------------------------ cell steps

def _reachable(s, n):
    """Positions reachable in exactly k orthant steps, for k = 1..n."""
    frontier = {(0,) * s.dim}
    for _ in range(n):
        frontier = {tuple(p + d for p, d in zip(pos, v))
                    for pos in frontier for v, _ in s.steps}
        frontier = {q for q in frontier if min(q) >= 0}
        yield frontier


MODELS = [
    (2, ["N", "SE", "SW"]),
    (2, ["N", "S", "E", "W"]),
    (2, ["NE", "S", "W"]),
    (3, [((0, 0, 1), 1)] + [((a, b, -1), 1) for a in (1, -1) for b in (1, -1)]),
]


@pytest.mark.parametrize("dim, steps", MODELS)
def test_cell_steps_counts_the_reachable_box(dim, steps):
    s = build_stepset(dim, steps)
    n = 6
    total = 0
    for k, positions in enumerate(_reachable(s, n), start=1):
        box = list(itertools.product(range(k + 1), repeat=dim))
        assert positions <= set(box)
        total += len(box) * len(s.steps)
        assert instrument.cell_steps(dim, k, len(s.steps)) == total


def test_reachable_box_is_tight_with_an_all_forward_step():
    s = build_stepset(2, ["NE", "S", "W"])
    for k, positions in enumerate(_reachable(s, 6), start=1):
        assert all(max(q[a] for q in positions) == k for a in range(2))


def test_probes_record_dp_counters_and_restore():
    s = build_stepset(2, ["N", "S", "SE", "SW"])
    original = enumeration.count_profile
    tr = Tracer()
    with Probes(tr) as probes:
        instrument.install(probes)
        assert enumeration.count_profile is not original
        enumeration.count_walks(s, 6, mode="float")      # delegates to count_profile
        series = enumeration.count_walks(s, 6)           # exact
        enumeration.endpoint_table(s, 3)
    assert enumeration.count_profile is original
    sm = SpanSummary(tr.spans)
    assert sm.calls("enumeration.float") == 1
    assert sm.calls("enumeration.exact") == 2
    assert sm.attr_sum("enumeration.float", "cell_steps") == instrument.cell_steps(2, 6, 4)
    assert sm.attr_sum("enumeration.exact", "cell_steps") == (
        instrument.cell_steps(2, 6, 4) + instrument.cell_steps(2, 3, 4))
    assert sm.attr_max("enumeration.exact", "bits") == max(series.values).bit_length()


# ------------------------------------------------------------- fractions

def test_tally_fractions_and_correctness():
    checks = [
        Check("a", "pass"),
        Check("b", "partial"),
        Check("c", "fail", hard=False),                # known defect or seeded verdict
        Check("d", "skipped"),
        Check("gate", "pass", verdict=False),
    ]
    t = workloads.tally(checks)
    assert (t["attempted"], t["failed"]) == (5, 1)
    assert t["fail_frac"] == pytest.approx(1 / 5)
    assert t["partial_frac"] == pytest.approx(1 / 4)   # gate checks are not verdicts
    assert t["correct"]
    assert not workloads.tally(checks + [Check("gate2", "fail", verdict=False)])["correct"]


def test_fraction_of_empty_base_is_an_error():
    with pytest.raises(ValueError):
        ratio(0, 0)


def test_converged_frac_from_fit_spans():
    spans = [Span(i, None, "cli.fit", 1, i, i + 0.5, {"converged": c})
             for i, c in enumerate((1, 1, 0, 1))]
    m = instrument.layer_metrics(SpanSummary(spans))
    assert m["cli.fit.calls"] == 4
    assert m["cli.fit.converged_frac"] == pytest.approx(0.75)
    assert m["cli.fit.busy_s"] == pytest.approx(2.0)


def test_weighted_draw_is_seeded_and_keeps_symmetry_class():
    import random

    from orthantwalks.stepset import classify

    templates = [",".join(t) for t, _ in workloads.WEIGHTED_TEMPLATES]
    for seed in range(20):
        drawn = workloads.draw_weighted(random.Random(seed))
        assert drawn == workloads.draw_weighted(random.Random(seed))
        for (name, steps), template in zip(drawn, templates):
            w = dict(steps)
            assert name == template
            for left, right in (("SE", "SW"), ("NE", "NW"), ("E", "W")):
                if left in w:
                    assert w[left] == w[right]
            assert set(w.values()) <= set(workloads.WEIGHT_CHOICES)
        king = dict(drawn[2][1])   # symmetric in both axes: N~S, NE~NW~SE~SW
        assert king["N"] == king["S"] and king["NE"] == king["SE"]
        assert classify(build_stepset(2, drawn[2][1])).kind == "HighlySymmetric"


# ------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_names_every_reported_metric():
    import json

    import run

    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = set(instrument.layer_metrics(SpanSummary([])))
    reported |= {"trace.overhead_s", "fail_frac", "partial_frac"}
    assert set(per_layer) == reported
    for name, unit in per_layer.items():
        assert run.unit_of(name) == unit
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert set(end_to_end) == set(run.END_TO_END)
    for name, unit in end_to_end.items():
        assert run.unit_of(name) == unit
