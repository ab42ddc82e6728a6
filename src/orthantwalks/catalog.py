"""Curated data for the 23 D-finite quarter-plane models: stored asymptotics
for walks ending anywhere and for boundary returns, and the reproduction
harness comparing stored values against the symbolic engine and the
enumeration oracle.

Stored constants are exact radical expressions, turned into numbers only by
``StoredAsymptotics``, at the caller's working precision (``reproduce_tables``
sets it once); ``periodic`` gives them as the engine's
``PeriodicForm``, the one prediction record that ``fit.compare`` checks
against the engine's and against a growth fit.  ``stored_cell`` finds the
stored cell of a model and endpoint filter.  Boundary columns: ``x_axis``
means the endpoint has first coordinate 0, ``y_axis`` second coordinate 0,
``origin`` both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from mpmath import mp

from orthantwalks.asympt import PeriodicForm, asympt_full
from orthantwalks.enumeration import count_profile
from orthantwalks.fit import compare, estimate_growth
from orthantwalks.laurent import DEFAULT_PREC_BITS, GUARD_BITS
from orthantwalks.stepset import SHORTHAND_2D, StepSet, build_stepset, check_count

HS = "HighlySymmetric"
POS = "PositiveDrift"
NEG = "NegativeDrift"
ALG = "AlgebraicExceptional"
NOSYM = "NoSymmetryDFinite"

THEOREM_CLASSES = (HS, POS, NEG)


def eval_const(expr):
    """Evaluate a stored radical expression at the working precision.

    Grammar: integers, + - * / ** parentheses, sqrt(x), pi, gamma(x), and
    fr(a,b) for exact rational constants.
    """
    ns = {
        "sqrt": mp.sqrt,
        "pi": mp.pi,
        "gamma": mp.gamma,
        "fr": lambda a, b: mp.mpf(a) / b,
        "__builtins__": {},
    }
    return mp.mpf(eval(expr, ns))  # closed grammar, data is package-internal


@dataclass(frozen=True)
class StoredAsymptotics:
    rate: str  # exact radical expression for the exponential rate modulus
    alpha: Fraction  # exponent of n
    constants: tuple  # per-residue constants, length = period ("0" for gaps)

    @property
    def period(self):
        return len(self.constants)

    def rate_value(self):
        return eval_const(self.rate)

    def constant_values(self):
        return [eval_const(c) for c in self.constants]

    def periodic(self):
        """The stored values as a PeriodicForm, at the working precision."""
        return PeriodicForm(self.period, self.constant_values(), self.alpha,
                            self.rate_value(), self.rate)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    steps: tuple
    klass: str
    table1: StoredAsymptotics
    table2: dict | None  # keys x_axis, y_axis, origin

    def stepset(self) -> StepSet:
        return build_stepset(2, self.steps)

    def theorem_covered(self):
        return self.klass in THEOREM_CLASSES


def _sa(rate, alpha, *constants):
    return StoredAsymptotics(rate, Fraction(alpha), tuple(constants))


ENTRIES = (
    # ----- symmetric over both axes
    CatalogEntry(
        "N,S,E,W", ("N", "S", "E", "W"), HS,
        _sa("4", -1, "4/pi"),
        {"x_axis": _sa("4", -2, "8/pi"),
         "y_axis": _sa("4", -2, "8/pi"),
         "origin": _sa("4", -3, "32/pi", "0")}),
    CatalogEntry(
        "NE,SE,NW,SW", ("NE", "SE", "NW", "SW"), HS,
        _sa("4", -1, "2/pi"),
        {"x_axis": _sa("4", -2, "4/pi", "0"),
         "y_axis": _sa("4", -2, "4/pi", "0"),
         "origin": _sa("4", -3, "8/pi", "0")}),
    CatalogEntry(
        "N,S,NE,SE,NW,SW", ("N", "S", "NE", "SE", "NW", "SW"), HS,
        _sa("6", -1, "sqrt(6)/pi"),
        {"x_axis": _sa("6", -2, "3*sqrt(6)/(2*pi)"),
         "y_axis": _sa("6", -2, "2*sqrt(6)/pi", "0"),
         "origin": _sa("6", -3, "3*sqrt(6)/pi", "0")}),
    CatalogEntry(
        "N,S,E,W,NW,SW,SE,NE", ("N", "S", "E", "W", "NW", "SW", "SE", "NE"), HS,
        _sa("8", -1, "8/(3*pi)"),
        {"x_axis": _sa("8", -2, "32/(9*pi)"),
         "y_axis": _sa("8", -2, "32/(9*pi)"),
         "origin": _sa("8", -3, "128/(27*pi)")}),
    # ----- positive drift, one symmetry missing
    CatalogEntry(
        "NE,NW,S", ("NE", "NW", "S"), POS,
        _sa("3", Fraction(-1, 2), "sqrt(3)/(2*sqrt(pi))"),
        {"x_axis": _sa("3", Fraction(-3, 2), "3*sqrt(3)/(4*sqrt(pi))"),
         "y_axis": _sa("2*sqrt(2)", -2, "4*sqrt(2)/pi", "0"),
         "origin": _sa("2*sqrt(2)", -3, "16*sqrt(2)/pi", "0", "0", "0")}),
    CatalogEntry(
        "N,NW,NE,S", ("N", "NW", "NE", "S"), POS,
        _sa("4", Fraction(-1, 2), "4/(3*sqrt(pi))"),
        {"x_axis": _sa("4", Fraction(-3, 2), "8/(3*sqrt(pi))"),
         "y_axis": _sa("2*sqrt(3)", -2, "4*sqrt(3)/pi", "0"),
         "origin": _sa("2*sqrt(3)", -3, "12*sqrt(3)/pi", "0")}),
    CatalogEntry(
        "NE,NW,E,W,S", ("NE", "NW", "E", "W", "S"), POS,
        _sa("5", Fraction(-1, 2), "sqrt(5)/(2*sqrt(2*pi))"),
        {"x_axis": _sa("5", Fraction(-3, 2), "5*sqrt(10)/(16*sqrt(pi))"),
         "y_axis": _sa("2+2*sqrt(2)", -2, "sqrt(2)*(1+sqrt(2))**fr(3,2)/pi"),
         "origin": _sa("2+2*sqrt(2)", -3, "2*(1+sqrt(2))**fr(3,2)/pi")}),
    CatalogEntry(
        "N,NE,NW,SE,SW", ("N", "NE", "NW", "SE", "SW"), POS,
        _sa("5", Fraction(-1, 2), "sqrt(5)/(3*sqrt(2*pi))"),
        {"x_axis": _sa("5", Fraction(-3, 2), "5*sqrt(10)/(24*sqrt(pi))"),
         "y_axis": _sa("2*sqrt(6)", -2, "4*sqrt(30)/(5*pi)", "0"),
         "origin": _sa("2*sqrt(6)", -3, "24*sqrt(30)/(25*pi)", "0")}),
    CatalogEntry(
        "N,NW,NE,E,W,S", ("N", "NW", "NE", "E", "W", "S"), POS,
        _sa("6", Fraction(-1, 2), "2*sqrt(3)/(3*sqrt(pi))"),
        {"x_axis": _sa("6", Fraction(-3, 2), "sqrt(3)/sqrt(pi)"),
         "y_axis": _sa("2+2*sqrt(3)", -2, "2*sqrt(3)*(1+sqrt(3))**fr(3,2)/(3*pi)"),
         "origin": _sa("2+2*sqrt(3)", -3, "2*(1+sqrt(3))**fr(3,2)/pi")}),
    CatalogEntry(
        "N,E,W,NE,NW,SE,SW", ("N", "E", "W", "NE", "NW", "SE", "SW"), POS,
        _sa("7", Fraction(-1, 2), "sqrt(7)/(3*sqrt(3*pi))"),
        {"x_axis": _sa("7", Fraction(-3, 2), "7*sqrt(21)/(54*sqrt(pi))"),
         "y_axis": _sa("2+2*sqrt(6)", -2,
                       "(156+41*sqrt(6))*sqrt(23-3*sqrt(6))/(285*pi)"),
         "origin": _sa("2+2*sqrt(6)", -3,
                       "2*(583+138*sqrt(6))*sqrt(23-3*sqrt(6))/(1805*pi)")}),
    # ----- negative drift, one symmetry missing
    CatalogEntry(
        "N,SE,SW", ("N", "SE", "SW"), NEG,
        _sa("2*sqrt(2)", -2, "24*sqrt(2)/pi", "32/pi"),
        {"x_axis": _sa("2*sqrt(2)", -3, "448*sqrt(2)/(9*pi)", "640/(9*pi)",
                       "416*sqrt(2)/(9*pi)", "512/(9*pi)"),
         "y_axis": _sa("2*sqrt(2)", -2, "4*sqrt(2)/pi", "0"),
         "origin": _sa("2*sqrt(2)", -3, "16*sqrt(2)/pi", "0", "0", "0")}),
    CatalogEntry(
        "N,S,SE,SW", ("N", "S", "SE", "SW"), NEG,
        _sa("2*sqrt(3)", -2, "12*sqrt(3)/pi", "18/pi"),
        {"x_axis": _sa("2*sqrt(3)", -3, "36*sqrt(3)/pi", "54/pi"),
         "y_axis": _sa("2*sqrt(3)", -2, "4*sqrt(3)/pi", "0"),
         "origin": _sa("2*sqrt(3)", -3, "12*sqrt(3)/pi", "0")}),
    CatalogEntry(
        "NE,NW,SE,SW,S", ("NE", "NW", "SE", "SW", "S"), NEG,
        _sa("2*sqrt(6)", -2, "12*sqrt(30)/pi", "144/(sqrt(5)*pi)"),
        {"x_axis": _sa("2*sqrt(6)", -3, "72*sqrt(30)/(5*pi)", "864*sqrt(5)/(25*pi)"),
         "y_axis": _sa("2*sqrt(6)", -2, "4*sqrt(30)/(5*pi)", "0"),
         "origin": _sa("2*sqrt(6)", -3, "24*sqrt(30)/(25*pi)", "0")}),
    CatalogEntry(
        "N,E,W,SE,SW", ("N", "E", "W", "SE", "SW"), NEG,
        _sa("2+2*sqrt(2)", -2, "sqrt(8)*(1+sqrt(2))**fr(7,2)/pi"),
        {"x_axis": _sa("2+2*sqrt(2)", -3, "4*(1+sqrt(2))**fr(7,2)/pi"),
         "y_axis": _sa("2+2*sqrt(2)", -2, "sqrt(2)*(1+sqrt(2))**fr(3,2)/pi"),
         "origin": _sa("2+2*sqrt(2)", -3, "2*(1+sqrt(2))**fr(3,2)/pi")}),
    CatalogEntry(
        "N,E,W,S,SW,SE", ("N", "E", "W", "S", "SW", "SE"), NEG,
        _sa("2+2*sqrt(3)", -2, "sqrt(3)*(1+sqrt(3))**fr(7,2)/(2*pi)"),
        {"x_axis": _sa("2+2*sqrt(3)", -3, "3*(1+sqrt(3))**fr(7,2)/(2*pi)"),
         "y_axis": _sa("2+2*sqrt(3)", -2, "2*sqrt(3)*(1+sqrt(3))**fr(3,2)/(3*pi)"),
         "origin": _sa("2+2*sqrt(3)", -3, "2*(1+sqrt(3))**fr(3,2)/pi")}),
    CatalogEntry(
        "NE,NW,E,W,SE,SW,S", ("NE", "NW", "E", "W", "SE", "SW", "S"), NEG,
        _sa("2+2*sqrt(6)", -2, "sqrt(570-114*sqrt(6))*(24*sqrt(6)+59)/(19*pi)"),
        {"x_axis": _sa("2+2*sqrt(6)", -3,
                       "6*(4571+1856*sqrt(6))*sqrt(23-3*sqrt(6))/(1805*pi)"),
         "y_axis": _sa("2+2*sqrt(6)", -2,
                       "(156+41*sqrt(6))*sqrt(23-3*sqrt(6))/(285*pi)"),
         "origin": _sa("2+2*sqrt(6)", -3,
                       "2*(583+138*sqrt(6))*sqrt(23-3*sqrt(6))/(1805*pi)")}),
    # ----- algebraic exceptional (orbit sum vanishes; univariate methods)
    CatalogEntry(
        "NE,W,S", ("NE", "W", "S"), ALG,
        _sa("3", Fraction(-3, 4), "2*sqrt(2)/gamma(fr(1,4))"), None),
    CatalogEntry(
        "N,E,SW", ("N", "E", "SW"), ALG,
        _sa("3", Fraction(-3, 4), "3*sqrt(3)/(sqrt(2)*gamma(fr(1,4)))"), None),
    CatalogEntry(
        "N,NE,E,S,SW,W", ("N", "NE", "E", "S", "SW", "W"), ALG,
        _sa("6", Fraction(-3, 4), "sqrt(6*sqrt(3))/gamma(fr(1,4))"), None),
    CatalogEntry(
        "NE,E,SW,W", ("NE", "E", "SW", "W"), ALG,
        _sa("4", Fraction(-2, 3), "4*sqrt(3)/(3*gamma(fr(1,3)))"), None),
    # ----- no symmetry but D-finite
    CatalogEntry(
        "N,W,SE", ("N", "W", "SE"), NOSYM,
        _sa("3", Fraction(-3, 2), "3*sqrt(3)/(2*sqrt(pi))"),
        {"x_axis": _sa("3", Fraction(-5, 2), "27*sqrt(3)/(8*sqrt(pi))"),
         "y_axis": _sa("3", Fraction(-5, 2), "27*sqrt(3)/(8*sqrt(pi))"),
         "origin": _sa("3", -4, "81*sqrt(3)/pi", "0", "0")}),
    CatalogEntry(
        "NW,SE,N,S,E,W", ("NW", "SE", "N", "S", "E", "W"), NOSYM,
        _sa("6", Fraction(-3, 2), "3*sqrt(3)/(2*sqrt(pi))"),
        {"x_axis": _sa("6", Fraction(-5, 2), "27*sqrt(3)/(8*sqrt(pi))"),
         "y_axis": _sa("6", Fraction(-5, 2), "27*sqrt(3)/(8*sqrt(pi))"),
         "origin": _sa("6", -4, "27*sqrt(3)/pi")}),
    CatalogEntry(
        "E,SE,W,NW", ("E", "SE", "W", "NW"), NOSYM,
        _sa("4", -2, "8/pi"),
        {"x_axis": _sa("4", -3, "32/pi", "0"),
         "y_axis": _sa("4", -3, "32/pi"),
         "origin": _sa("4", -5, "768/pi", "0")}),
)

COLUMN_FILTERS = {
    "anywhere": "anywhere",
    "x_axis": ("axes", (0,)),
    "y_axis": ("axes", (1,)),
    "origin": ("axes", (0, 1)),
}


def _normalize_steps(model):
    if isinstance(model, str):
        names = [t.strip().upper() for t in model.split(",") if t.strip()]
        return frozenset(SHORTHAND_2D[n] for n in names)
    if isinstance(model, StepSet):
        if any(w != 1 for _, w in model.steps):
            raise KeyError("catalog holds unit-weight models only")
        return frozenset(v for v, _ in model.steps)
    return frozenset(tuple(v) for v in model)


def lookup(model) -> CatalogEntry:
    """Find a catalog entry by name string, step list, or StepSet."""
    key = _normalize_steps(model)
    for entry in ENTRIES:
        if _normalize_steps(entry.name) == key:
            return entry
    raise KeyError(f"unknown model {model!r}")


# --------------------------------------------------------------- empirical

@dataclass
class CellResult:
    model: str
    table: str
    column: str
    mode: str
    status: str  # pass | fail | partial | skipped
    details: dict


def cells(entry, which):
    """(table, column, stored) for each cell of ``entry`` in ``which``: table1,
    table2 or both."""
    columns = ["anywhere"] if which in ("table1", "both") else []
    if which in ("table2", "both") and entry.table2:
        columns += list(entry.table2)
    return [("table1", col, entry.table1) if col == "anywhere" else
            ("table2", col, entry.table2[col]) for col in columns]


def stored_cell(model, flt):
    """The stored asymptotics of ``model`` (anything ``lookup`` takes) under the
    normalized endpoint filter ``flt``, or None where the catalog has none."""
    try:
        entry = lookup(model)
    except KeyError:
        return None
    return next((sa for _, col, sa in cells(entry, "both") if COLUMN_FILTERS[col] == flt), None)


def _profile(name, n_max, which):
    """The float DP profile of catalog entry ``name`` under the filters of its
    cells in ``which``.  A process pool is handed this function by reference,
    never ``count_profile``, which a tracer may have rebound to a closure that
    cannot be pickled."""
    entry = lookup(name)
    return count_profile(entry.stepset(), n_max,
                         [COLUMN_FILTERS[col] for _, col, _ in cells(entry, which)])


def reproduce_tables(which="table1", modes=("symbolic", "empirical"), n_max=512,
                     prec=DEFAULT_PREC_BITS, entries=None, threads=None):
    """Reproduce the stored asymptotics tables; returns a list of CellResult.

    Symbolic mode runs the engine only on theorem-covered entries, every
    column of them, and reports the other entries' cells as skipped; empirical
    mode fits the float enumeration oracle on all entries and all columns.
    The float DP passes run in ``threads`` worker processes (``None``: one per
    CPU this process may run on; the parameter stays so that a caller such as
    the benchmark can fix it), at most one per pass, beside the engine and the
    fits in this process; with one worker each pass runs here, at its entry's
    first cell.  The cells do not depend on ``threads``.
    """
    n_max = check_count(n_max, "n_max")
    results = []
    chosen = entries if entries is not None else ENTRIES
    passes = [e.name for e in chosen if cells(e, which)] if "empirical" in modes else []
    if threads is None:
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    workers, pool = min(threads, len(passes)), None
    if workers > 1:
        # processes, not threads: a DP step is many short numpy calls with the
        # GIL held between them; imported here, as the import would add about
        # 35 ms to every start of the CLI.  The kernel, and numpy with it, is
        # loaded before the pool, so the forked workers inherit it rather than
        # each importing it again.
        from concurrent.futures import ProcessPoolExecutor

        from orthantwalks import _dp  # noqa: F401

        pool = ProcessPoolExecutor(workers)
    try:
        profiles = (pool.map if pool else map)(_profile, passes, repeat(n_max), repeat(which))
        with mp.workprec(prec + GUARD_BITS):
            for entry in chosen:
                s = entry.stepset()
                profile = None
                for table, col, stored in cells(entry, which):
                    flt = COLUMN_FILTERS[col]
                    want = stored.periodic()
                    if "symbolic" in modes:
                        if not entry.theorem_covered():
                            status, details = "skipped", {"reason": entry.klass}
                        elif (exp := asympt_full(s, flt, prec=prec)).partial:
                            status, details = "partial", {"notes": list(exp.notes)}
                        else:
                            ok, details = compare(want, exp.periodic)
                            status = "pass" if ok else "fail"
                        results.append(CellResult(entry.name, table, col, "symbolic",
                                                  status, details))
                    if "empirical" in modes:
                        if profile is None:
                            profile = next(profiles)
                        series = profile[flt]
                        ok, details = compare(want, estimate_growth(series))
                        results.append(CellResult(entry.name, table, col, "empirical",
                                                  "pass" if ok else "fail", details))
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return results
