"""Catalog data integrity, lookup, closed-form series, and reproduction."""

from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from helpers import gf_series
from orthantwalks.catalog import (
    ENTRIES,
    HS,
    POS,
    NEG,
    ALG,
    NOSYM,
    CatalogEntry,
    eval_const,
    lookup,
    reproduce_tables,
)
from orthantwalks.enumeration import count_walks
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
    assert e.gf_closed_form is not None
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


def test_reproduce_empirical_subset():
    sel = [e for e in ENTRIES if e.name in ("N,S,E,W", "NE,E,SW,W")]
    res = reproduce_tables("table1", ("empirical",), entries=sel, n_max=512)
    assert all(r.status == "pass" for r in res)
