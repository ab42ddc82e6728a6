"""Curated data for the 23 D-finite quarter-plane models: stored asymptotics
for walks ending anywhere and for boundary returns, closed-form generating
functions where known, and the reproduction harness comparing stored values
against the symbolic engine and the enumeration oracle.

Stored constants are exact radical expressions evaluated on demand at high
precision.  Boundary columns: ``x_axis`` means the endpoint has first
coordinate 0, ``y_axis`` second coordinate 0, ``origin`` both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from orthantwalks.asympt import asympt_full
from orthantwalks.enumeration import count_profile, normalize_filter
from orthantwalks.fit import compare_fit, estimate_growth
from orthantwalks.laurent import GUARD_BITS, DEFAULT_PREC_BITS
from orthantwalks.stepset import SHORTHAND_2D, StepSet, build_stepset

HS = "HighlySymmetric"
POS = "PositiveDrift"
NEG = "NegativeDrift"
ALG = "AlgebraicExceptional"
NOSYM = "NoSymmetryDFinite"

THEOREM_CLASSES = (HS, POS, NEG)


def eval_const(expr, prec=DEFAULT_PREC_BITS):
    """Evaluate a stored radical expression at the given binary precision.

    Grammar: integers, + - * / ** parentheses, sqrt(x), pi, gamma(x), and
    fr(a,b) for exact rational constants.
    """
    with mp.workprec(prec + GUARD_BITS):
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

    def rate_value(self, prec=DEFAULT_PREC_BITS):
        return eval_const(self.rate, prec)

    def constant_values(self, prec=DEFAULT_PREC_BITS):
        return [eval_const(c, prec) for c in self.constants]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    steps: tuple
    klass: str
    table1: StoredAsymptotics
    table2: dict | None  # keys x_axis, y_axis, origin
    gf_closed_form: tuple | None = None  # (p, r, q): F = (p(t) - sqrt(r(t))) / q(t)

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
         "origin": _sa("3", -4, "81*sqrt(3)/pi", "0", "0")},
        gf_closed_form=((1, -1), (1, -2, -3), (0, 0, 2))),
    CatalogEntry(
        "NW,SE,N,S,E,W", ("NW", "SE", "N", "S", "E", "W"), NOSYM,
        _sa("6", Fraction(-3, 2), "3*sqrt(3)/(2*sqrt(pi))"),
        {"x_axis": _sa("6", Fraction(-5, 2), "27*sqrt(3)/(8*sqrt(pi))"),
         "y_axis": _sa("6", Fraction(-5, 2), "27*sqrt(3)/(8*sqrt(pi))"),
         "origin": _sa("6", -4, "27*sqrt(3)/pi")},
        gf_closed_form=((1, -2), (1, -4, -12), (0, 0, 8))),
    CatalogEntry(
        "E,SE,W,NW", ("E", "SE", "W", "NW"), NOSYM,
        _sa("4", -2, "8/pi"),
        {"x_axis": _sa("4", -3, "32/pi", "0"),
         "y_axis": _sa("4", -3, "32/pi"),
         "origin": _sa("4", -5, "768/pi", "0")}),
)

COLUMN_FILTERS = {
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


def _compare_symbolic(entry, stored, expansion, prec, rel_tol=mp.mpf("1e-12")):
    details = {}
    if expansion.partial or expansion.periodic is None:
        return "partial", {"notes": list(expansion.notes)}
    pf = expansion.periodic
    with mp.workprec(prec + GUARD_BITS):
        rate_err = abs(pf.rate_modulus - stored.rate_value(prec)) / stored.rate_value(prec)
        details["rate_rel_err"] = float(rate_err)
        ok = rate_err < rel_tol
        details["alpha"] = str(pf.alpha)
        ok = ok and pf.alpha == stored.alpha
        want = stored.constant_values(prec)
        if pf.period != stored.period:
            # allow refolding onto a multiple of the stored period
            if pf.period % stored.period == 0:
                want = [want[r % stored.period] for r in range(pf.period)]
            else:
                ok = False
                want = []
        errs = []
        for got, w in zip(pf.constants, want):
            errs.append(abs(got) if w == 0 else abs(got - w) / abs(w))
            ok = ok and errs[-1] < rel_tol
        # errors below half the working precision are rounding noise: reported
        # as 0, so reordering the engine's sums cannot change the report
        noise = mp.mpf(2) ** (-(prec // 2))
        details["constant_rel_errs"] = [float(e) if e >= noise else 0.0 for e in errs]
    return ("pass" if ok else "fail"), details


def _cells(entry, which):
    """(table, column, stored) for each cell of ``entry`` that ``which`` reproduces."""
    cells = [("table1", "anywhere", entry.table1)] if which in ("table1", "both") else []
    if which in ("table2", "both") and entry.table2:
        cells += [("table2", col, stored) for col, stored in entry.table2.items()]
    return cells


def reproduce_tables(which="table1", modes=("symbolic", "empirical"), n_max=512,
                     prec=DEFAULT_PREC_BITS, entries=None, threads=1):
    """Reproduce the stored asymptotics tables; returns a list of CellResult.

    Symbolic mode runs the engine on theorem-covered entries (and on every
    boundary cell whose expansion is not flagged partial); empirical mode fits
    the float enumeration oracle on all entries and all boundary columns.
    """
    results = []
    chosen = entries if entries is not None else ENTRIES
    profiles = {}
    if "empirical" in modes and threads > 1:
        # numpy releases the GIL inside the float DP's array updates, so
        # prefetching the enumeration passes in a pool speeds the reproduction
        # up; fits and comparisons stay sequential (deterministic output either way)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            futs = {e.name: pool.submit(count_profile, e.stepset(), n_max)
                    for e in chosen if _cells(e, which)}
            profiles = {name: f.result() for name, f in futs.items()}
    for entry in chosen:
        s = entry.stepset()
        cells = _cells(entry, which)
        profile = None
        if "empirical" in modes and cells:
            profile = profiles.get(entry.name) or count_profile(s, n_max)
        for table, col, stored in cells:
            flt = "anywhere" if col == "anywhere" else COLUMN_FILTERS[col]
            if "symbolic" in modes:
                if entry.theorem_covered():
                    exp = asympt_full(s, flt, prec=prec)
                    status, details = _compare_symbolic(entry, stored, exp, prec)
                    results.append(CellResult(entry.name, table, col, "symbolic",
                                              status, details))
                else:
                    results.append(CellResult(entry.name, table, col, "symbolic",
                                              "skipped", {"reason": entry.klass}))
            if "empirical" in modes:
                fit = estimate_growth(profile[normalize_filter(flt, s.dim)])
                ok, details = compare_fit(
                    fit, float(stored.rate_value(prec)), float(stored.alpha),
                    [float(v) for v in stored.constant_values(prec)])
                results.append(CellResult(entry.name, table, col, "empirical",
                                          "pass" if ok else "fail", details))
    return results
