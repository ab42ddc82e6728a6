"""Catalog data integrity, lookup, closed-form series, and reproduction."""

import concurrent.futures
import multiprocessing
import os
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from helpers import GF_CLOSED_FORMS, gf_series
from orthantwalks import catalog
from orthantwalks.catalog import (
    ENTRIES,
    HS,
    POS,
    NEG,
    ALG,
    NOSYM,
    COLUMN_FILTERS,
    CatalogEntry,
    StoredAsymptotics,
    cells,
    eval_const,
    lookup,
    reproduce_tables,
    stored_cell,
)
from orthantwalks.asympt import PeriodicForm, asympt_full
from orthantwalks.enumeration import CapacityError, count_walks
from orthantwalks.fit import compare
from orthantwalks.stepset import build_stepset, classify


def test_entry_census():
    assert len(ENTRIES) == 23
    assert Counter(e.klass for e in ENTRIES) == {HS: 4, POS: 6, NEG: 6, ALG: 4, NOSYM: 3}
    names = [e.name for e in ENTRIES]
    assert len(set(names)) == 23


def test_classification_agrees_with_stored_class():
    for e in ENTRIES:
        cls = classify(e.stepset())
        if e.klass == HS:
            assert cls.kind == "HighlySymmetric"
        elif e.klass == POS:
            assert cls.kind == "MissingOneAxis" and cls.drift_sign == 1
        elif e.klass == NEG:
            assert cls.kind == "MissingOneAxis" and cls.drift_sign == -1
        else:
            assert cls.kind == "Unsupported"


def test_lookup_variants():
    e = lookup("N,S,E,W")
    assert e.table1.rate == "4" and e.table1.alpha == -1
    assert e.table1.constants == ("4/pi",)
    # order-insensitive, step-list and StepSet lookups
    assert lookup("S,N,W,E") is e
    assert lookup([(0, 1), (0, -1), (1, 0), (-1, 0)]) is e
    assert lookup(build_stepset(2, ["N", "S", "E", "W"])) is e
    with pytest.raises(KeyError):
        lookup("N,S,E")


def test_lookup_negative_drift_constants():
    e = lookup("N,SE,S,SW")
    assert e.name == "N,S,SE,SW"
    with mp.workprec(200):
        vals = e.table1.constant_values()
        assert abs(vals[0] - 12 * mp.sqrt(3) / mp.pi) < mp.mpf(10) ** -40
        assert abs(vals[1] - 18 / mp.pi) < mp.mpf(10) ** -40
        assert abs(e.table1.rate_value() - 2 * mp.sqrt(3)) < mp.mpf(10) ** -40


def test_lookup_gf_model():
    e = lookup("N,W,SE")
    assert e.name in GF_CLOSED_FORMS
    assert e.table1.alpha == Fraction(-3, 2)
    with mp.workprec(200):
        want = 3 * mp.sqrt(3) / (2 * mp.sqrt(mp.pi))
        assert abs(e.table1.constant_values()[0] - want) < mp.mpf(10) ** -40


def test_eval_const_grammar():
    with mp.workprec(200):
        assert abs(eval_const("4/pi") - 4 / mp.pi) < mp.mpf(10) ** -40
        assert abs(eval_const("sqrt(8)*(1+sqrt(2))**fr(7,2)/pi")
                   - mp.sqrt(8) * (1 + mp.sqrt(2)) ** (mp.mpf(7) / 2) / mp.pi) \
            < mp.mpf(10) ** -40
        assert abs(eval_const("2*sqrt(2)/gamma(fr(1,4))")
                   - 2 * mp.sqrt(2) / mp.gamma(mp.mpf(1) / 4)) < mp.mpf(10) ** -40


def test_stored_cell_by_model_and_filter():
    for e in ENTRIES:
        s = e.stepset()
        for _, col, stored in cells(e, "both"):
            assert stored_cell(s, catalog.COLUMN_FILTERS[col]) is stored
            assert stored_cell(e.name, catalog.COLUMN_FILTERS[col]) is stored
    assert stored_cell("NE,W,S", ("axes", (0,))) is None  # no table2
    assert stored_cell(build_stepset(2, [("N", 2), "S", "E", "W"]), "anywhere") is None
    steps_3d = [((0, 0, 1), 1)] + [((x, y, -1), 1) for x in (-1, 1) for y in (-1, 1)]
    assert stored_cell(build_stepset(3, steps_3d), "anywhere") is None


def test_gf_series_match_oracle():
    # stored algebraic closed forms reproduce the enumeration oracle to n = 20
    for name in ("N,W,SE", "NW,SE,N,S,E,W"):
        e = lookup(name)
        série = gf_series(e, 20)
        oracle = count_walks(e.stepset(), 20).values
        assert série == oracle


def test_gf_series_absent():
    with pytest.raises(ValueError):
        gf_series(lookup("E,SE,W,NW"), 5)


def test_reproduce_symbolic_subset():
    sel = [e for e in ENTRIES if e.name in ("N,S,E,W", "N,SE,SW", "NE,NW,S")]
    res = reproduce_tables("both", ("symbolic",), entries=sel)
    by_status = {}
    for r in res:
        by_status.setdefault(r.status, []).append((r.model, r.table, r.column))
    assert not by_status.get("fail")
    assert not by_status.get("partial")
    # errors at rounding level (about 1e-77 here) are reported as exactly 0
    assert all(e == 0.0 for r in res for e in r.details["constant_rel_errs"])


def test_reproduce_reports_a_partial_expansion(monkeypatch):
    # every cell expands in full at the default depth; at depth 2 the n^-3
    # boundary returns of N,SE,SW have no leading term, and those cells are
    # reported partial with the engine's note, compared with nothing
    monkeypatch.setattr(catalog, "asympt_full",
                        lambda s, flt, prec: asympt_full(s, flt, N=2, prec=prec))
    res = reproduce_tables("both", ("symbolic",), entries=[lookup("N,SE,SW")])
    note = ["no nonzero leading coefficient at this expansion depth"]
    assert [(r.column, r.status, r.details.get("notes")) for r in res] == [
        ("anywhere", "pass", None), ("x_axis", "partial", note),
        ("y_axis", "pass", None), ("origin", "partial", note)]


def test_reproduce_empirical_subset():
    sel = [e for e in ENTRIES if e.name in ("N,S,E,W", "NE,E,SW,W")]
    res = reproduce_tables("table1", ("empirical",), entries=sel, n_max=512)
    assert all(r.status == "pass" for r in res)


SMALL = [e for e in ENTRIES if e.name in ("N,S,E,W", "N,SE,SW", "NE,W,S")]


def test_reproduce_same_cells_for_any_thread_count():
    # the passes run in worker processes, the cells in entry order here
    one, two, three = (reproduce_tables("both", entries=SMALL, n_max=128, threads=t)
                       for t in (1, 2, 3))
    assert len(one) == 2 * (1 + 3 + 1 + 3 + 1)
    assert one == two == three
    assert multiprocessing.active_children() == []


def test_reproduce_pools_a_wrapped_count_profile(monkeypatch):
    # a tracer may rebind count_profile to a closure, which cannot be pickled;
    # the pool is handed a catalog function by reference, so the closure runs
    # in the worker
    original = catalog.count_profile

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    one = reproduce_tables("both", entries=SMALL, n_max=128, threads=1)
    monkeypatch.setattr(catalog, "count_profile", wrapper)
    assert reproduce_tables("both", entries=SMALL, n_max=128, threads=2) == one


def test_each_pass_counts_only_the_filters_its_cells_read():
    # a table1 cell reads anywhere alone; NE,W,S has no table2 cells
    x, y, origin = (COLUMN_FILTERS[c] for c in ("x_axis", "y_axis", "origin"))
    assert list(catalog._profile("NE,W,S", 40, "both")) == ["anywhere"]
    assert list(catalog._profile("N,SE,SW", 40, "table1")) == ["anywhere"]
    assert list(catalog._profile("N,SE,SW", 40, "table2")) == [x, y, origin]
    assert list(catalog._profile("N,SE,SW", 40, "both")) == ["anywhere", x, y, origin]


class FakePool:
    """Stands in for ProcessPoolExecutor: maps in this process, as the
    built-in map does, starts no process, and records its size and shutdown."""

    built = []

    def __init__(self, max_workers):
        self.max_workers, self.shutdowns = max_workers, []
        FakePool.built.append(self)

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, **kwargs):
        self.shutdowns.append(kwargs)


def _check_pool(monkeypatch, modes, entries, threads, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "built", [])
    res = reproduce_tables("table1", modes, n_max=80, entries=entries, threads=threads)
    assert len(res) == len(entries or ENTRIES) * len(modes)
    if workers is None:
        assert FakePool.built == []
    else:
        [pool] = FakePool.built
        assert pool.max_workers == workers
        assert pool.shutdowns == [{"cancel_futures": True}]


@pytest.mark.parametrize("threads, modes, entries, workers", [
    (5000, ("empirical",), None, 23),
    (5000, ("symbolic", "empirical"), SMALL, 3),
    (2, ("empirical",), SMALL, 2),
    (1, ("empirical",), SMALL, None),
    (5000, ("symbolic",), SMALL, None),
])
def test_reproduce_pool_never_outnumbers_its_passes(monkeypatch, threads, modes,
                                                     entries, workers):
    _check_pool(monkeypatch, modes, entries, threads, workers)


@pytest.mark.parametrize("cpus, threads, entries, workers", [
    (1, None, None, None),
    (3, None, None, 3),
    (3, None, SMALL, 3),
    (64, None, None, 23),
    (64, 1, SMALL, None),
    (64, 2, SMALL, 2),
], ids=["1 cpu", "3 cpus", "3 cpus SMALL", "64 cpus", "64 cpus threads=1",
        "64 cpus threads=2"])
def test_reproduce_pool_follows_the_cpus_it_may_use(monkeypatch, cpus, threads, entries,
                                                    workers):
    # without threads, one worker per CPU in the process's affinity mask
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    _check_pool(monkeypatch, ("empirical",), entries, threads, workers)


def test_reproduce_counts_cpus_where_the_platform_has_no_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _check_pool(monkeypatch, ("empirical",), SMALL, None, 3)


def test_reproduce_raises_the_pass_error_for_any_thread_count():
    errors = []
    for t in (1, 2):
        with pytest.raises(CapacityError) as info:
            reproduce_tables("both", ("empirical",), n_max=9000, threads=t)
        errors.append((type(info.value), str(info.value)))
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1]
    assert "exceeds the limit" in errors[0][1]


@pytest.mark.parametrize("engine_period, stored_period, status", [
    (2, 4, "pass"), (4, 2, "pass"), (2, 3, "fail"), (3, 2, "fail")])
def test_compare_symbolic_aligns_periods_both_ways(engine_period, stored_period, status):
    # constants repeating with period 2, written out over either period
    pattern = ("12*sqrt(3)/pi", "18/pi")
    stored = StoredAsymptotics("2*sqrt(3)", Fraction(-2),
                               tuple(pattern[r % 2] for r in range(stored_period)))
    engine = StoredAsymptotics("2*sqrt(3)", Fraction(-2),
                               tuple(pattern[r % 2] for r in range(engine_period)))
    with mp.workprec(256):
        ok, details = compare(stored.periodic(), engine.periodic())
    assert ok is (status == "pass")
    assert details["constant_rel_errs"] == ([0.0] * 4 if ok else [])


def test_stored_periodic_form():
    with mp.workprec(200):
        pf = lookup("N,S,SE,SW").table1.periodic()
        assert isinstance(pf, PeriodicForm)
        assert (pf.period, pf.alpha, pf.rate_modulus_exact) == (2, Fraction(-2), "2*sqrt(3)")
        assert abs(pf.rate_modulus - 2 * mp.sqrt(3)) < mp.mpf(10) ** -40
        assert abs(pf.constants[1] - 18 / mp.pi) < mp.mpf(10) ** -40
