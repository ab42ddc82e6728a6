"""Weighted step-set models on {-1,0,1}^d: validation, symmetry classification,
endpoint filters (in the user's axes) and their canonical translation, and the
exact decompositions of the characteristic Laurent polynomial that the
asymptotic formulas consume.

A model's exact derived data (its class, decomposition, diagonal kernel,
contributing points and expansion plans) depends only on the model, so each
datum is built once per ``StepSet`` and kept with it (``StepSet.derived``)."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

from orthantwalks.laurent import LaurentPoly

SHORTHAND_2D = {
    "N": (0, 1),
    "S": (0, -1),
    "E": (1, 0),
    "W": (-1, 0),
    "NE": (1, 1),
    "NW": (-1, 1),
    "SE": (1, -1),
    "SW": (-1, -1),
}

HIGHLY_SYMMETRIC = "HighlySymmetric"
MISSING_ONE_AXIS = "MissingOneAxis"
UNSUPPORTED = "Unsupported"


class StepSetError(ValueError):
    """Invalid step-set data."""


class UnsupportedModelError(ValueError):
    """The model falls outside the supported symmetry classes."""


def _integer(value, what):
    """``value`` as an int when it is integral; StepSetError naming ``what``
    otherwise (a bool, JSON's true or false, is not an integer here)."""
    try:
        if isinstance(value, str):
            return int(value)
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise StepSetError(f"{what} {value!r} is not an integer")


def check_count(value, name, least=0):
    """``value`` as an int when it is an integer of at least ``least`` (0 for
    a length, 1 for an expansion depth); otherwise a ValueError naming
    ``name``.  A bool or an integral float is refused too.  Every route that
    takes a length or a depth checks it here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def parse_weight(w):
    """Exact rational weight from int/Fraction or a string like '3/2' or '0.25'."""
    if isinstance(w, Fraction):
        return w
    if isinstance(w, int) and not isinstance(w, bool):
        return Fraction(w)
    if isinstance(w, str):
        try:
            return Fraction(w)
        except (ValueError, ZeroDivisionError):  # e.g. 'abc', 'inf', '1/0'
            pass
    if isinstance(w, float):
        raise StepSetError("float weights are ambiguous; pass a string or Fraction")
    raise StepSetError(f"cannot parse weight {w!r}")


# ------------------------------------------------------------ endpoint filters

def normalize_filter(flt, dim):
    """Canonical filter form: 'anywhere' or ('axes', sorted axis tuple).

    Axes are 0-based user-coordinate indices, a tuple or list of ints;
    'origin' means all axes.
    """
    if flt in (None, "anywhere"):
        return "anywhere"
    if flt == "origin":
        return ("axes", tuple(range(dim)))
    if isinstance(flt, tuple) and len(flt) == 2 and flt[0] == "axes":
        if not (isinstance(flt[1], (tuple, list)) and all(type(a) is int for a in flt[1])):
            raise ValueError(f"endpoint filter {flt!r}: axes must be a tuple or list of ints")
        axes = tuple(sorted(set(flt[1])))
        if not axes:
            return "anywhere"
        if any(a < 0 or a >= dim for a in axes):
            raise ValueError(f"endpoint filter {flt!r}: axis out of range")
        return ("axes", axes)
    raise ValueError(f"unknown endpoint filter {flt!r}")


def parse_filter(text, dim):
    """Parse CLI filter syntax: anywhere | origin | axes=1,2 (1-based axes)."""
    text = text.strip().lower()
    if text in ("anywhere", "origin"):
        return normalize_filter(text, dim)
    if text.startswith("axes="):
        axes = []
        for a in filter(None, (a.strip() for a in text[5:].split(","))):
            try:
                axes.append(int(a))
            except ValueError:
                raise ValueError(f"endpoint filter {text!r}: {a!r} is not an axis number") from None
        if not axes:
            raise ValueError(f"endpoint filter {text!r} names no axis")
        if not all(1 <= a <= dim for a in axes):
            raise ValueError(f"endpoint filter {text!r}: axes are numbered 1 to {dim}")
        return normalize_filter(("axes", tuple(a - 1 for a in axes)), dim)
    raise ValueError(f"cannot parse endpoint filter {text!r}")


def filter_name(flt, dim):
    """The CLI name of a normalized filter, as ``parse_filter`` reads it."""
    if flt == "anywhere":
        return "anywhere"
    axes = flt[1]
    if len(axes) == dim:
        return "origin"
    return "axes=" + ",".join(str(a + 1) for a in axes)


@dataclass(frozen=True)
class SymmetryClass:
    kind: str  # HighlySymmetric | MissingOneAxis | Unsupported
    axis: int | None  # 0-based original index of the non-symmetric axis, if unique
    drift_sign: int  # -1, 0, +1


@dataclass(frozen=True)
class StepSet:
    """A validated weighted step set.

    ``steps`` keeps the user's coordinate order; ``axis_order`` is the
    canonical permutation (canonical axis i is original axis axis_order[i])
    placing the non-symmetric axis last, so the theory can always treat the
    final coordinate as the drift direction.

    The data ``derived`` keeps is no part of equality, hashing or repr, and a
    new StepSet (``scaled`` too) starts without any.
    """

    dim: int
    steps: tuple  # ((vector, weight), ...) in original axis order
    axis_order: tuple  # canonical position -> original axis
    _store: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def derived(self, key, build):
        """``build(self)``, built on the first call with ``key`` and kept with
        this StepSet; a build that raises keeps nothing."""
        if key not in self._store:
            self._store[key] = build(self)
        return self._store[key]

    # -------------------------------------------------------------- mappings

    def canonical_vector(self, v):
        return tuple(v[j] for j in self.axis_order)

    def canonical_steps(self):
        return tuple((self.canonical_vector(v), w) for v, w in self.steps)

    def canonical_variant(self, flt):
        """The sorted canonical axes of an endpoint filter in any form
        ``normalize_filter`` takes (user axes); () for 'anywhere'."""
        flt = normalize_filter(flt, self.dim)
        if flt == "anywhere":
            return ()
        return tuple(sorted(self.axis_order.index(a) for a in flt[1]))

    # ------------------------------------------------------------ invariants

    def total_weight(self):
        return sum((w for _, w in self.steps), Fraction(0))

    def char_poly(self):
        """The characteristic Laurent polynomial sum_i w_i z^i, in canonical order."""
        terms = {}
        for v, w in self.canonical_steps():
            terms[v] = terms.get(v, Fraction(0)) + w
        return LaurentPoly(self.dim, terms)

    def sbar_poly(self):
        """char_poly with the last canonical variable inverted."""
        return self.char_poly().invert_var(self.dim - 1)

    def scaled(self, factor):
        factor = parse_weight(factor)
        if factor <= 0:
            raise StepSetError("scale factor must be positive")
        return StepSet(self.dim, tuple((v, w * factor) for v, w in self.steps), self.axis_order)

    def describe(self):
        names = {v: k for k, v in SHORTHAND_2D.items()}
        if self.dim == 2 and all(w == 1 for _, w in self.steps) \
                and all(v in names for v, _ in self.steps):
            return ",".join(names[v] for v, _ in self.steps)
        return ";".join(f"{list(v)}:{w}" for v, w in self.steps)


def _symmetric_axes(dim, steps):
    wmap = {v: w for v, w in steps}
    symmetric = []
    for j in range(dim):
        ok = True
        for v, w in steps:
            rv = list(v)
            rv[j] = -rv[j]
            if wmap.get(tuple(rv)) != w:
                ok = False
                break
        if ok:
            symmetric.append(j)
    return symmetric


def build_stepset(dimension, steps):
    """Validate and canonicalize a weighted step set.

    ``steps`` is an iterable of (vector, weight) pairs or, in two dimensions,
    compass shorthands (optionally (shorthand, weight)).
    """
    dimension = _integer(dimension, "'dimension'")
    if dimension < 2:
        raise StepSetError("dimension must be at least 2")
    parsed = []
    for item in steps:
        if isinstance(item, str):
            vec, w = item, 1
        else:
            vec, w = item
        if isinstance(vec, str):
            if dimension != 2:
                raise StepSetError("compass shorthand only valid in dimension 2")
            try:
                vec = SHORTHAND_2D[vec.strip().upper()]
            except KeyError:
                raise StepSetError(f"unknown step shorthand {vec!r}") from None
        try:
            vec = tuple(_integer(c, "component") for c in vec)
        except (TypeError, StepSetError):
            raise StepSetError(f"step vector {vec!r} is not a list of integers") from None
        if len(vec) != dimension:
            raise StepSetError(f"step {vec} has wrong dimension")
        if any(c not in (-1, 0, 1) for c in vec):
            raise StepSetError(f"step {vec} outside {{-1,0,1}}^d")
        if not any(vec):
            raise StepSetError("zero step not allowed")
        w = parse_weight(w)
        if w <= 0:
            raise StepSetError(f"weight of step {vec} must be positive")
        if any(v == vec for v, _ in parsed):
            raise StepSetError(f"duplicate step vector {vec}")
        parsed.append((vec, w))
    vectors = [v for v, _ in parsed]
    for j in range(dimension):
        if not any(v[j] == 1 for v in vectors):
            raise StepSetError(f"no forward step along axis {j + 1}")
        if not any(v[j] == -1 for v in vectors):
            raise StepSetError(f"no backward step along axis {j + 1}")
    parsed.sort(key=lambda it: it[0])
    sym = _symmetric_axes(dimension, parsed)
    non_sym = [j for j in range(dimension) if j not in sym]
    if not non_sym:
        order = tuple(range(dimension))
    else:
        last = max(non_sym)
        order = tuple(j for j in range(dimension) if j != last) + (last,)
    return StepSet(dimension, tuple(parsed), order)


def classify(s: StepSet) -> SymmetryClass:
    """Symmetry class and drift sign; Unsupported when outside the theory."""
    return s.derived("class", _classify)


def _classify(s):
    sym = _symmetric_axes(s.dim, s.steps)
    non_sym = [j for j in range(s.dim) if j not in sym]
    d = s.dim
    drift = sum((w * v[s.axis_order[d - 1]] for v, w in s.steps), Fraction(0))
    sign = (drift > 0) - (drift < 0)
    if not non_sym:
        return SymmetryClass(HIGHLY_SYMMETRIC, None, 0)
    if len(non_sym) == 1:
        if sign == 0:
            # zero drift without full symmetry: asymptotics are open territory
            return SymmetryClass(UNSUPPORTED, non_sym[0], 0)
        return SymmetryClass(MISSING_ONE_AXIS, non_sym[0], sign)
    return SymmetryClass(UNSUPPORTED, None, sign)


@dataclass(frozen=True)
class Decomposition:
    """All exact splittings of S used downstream.

    Everything is expressed in canonical axis order with the drift axis last:
    S = (1/z_d) A + Q + z_d B and Sbar = (z_k + 1/z_k) B_k + Q_k for k < d.
    B_k is b_k with z_d inverted.
    """

    dim: int
    A: LaurentPoly  # d-1 variables z_1..z_{d-1}
    Q: LaurentPoly
    B: LaurentPoly
    total_weight: Fraction
    b_scalars: tuple  # b_k = weight moving forward along canonical axis k < d
    b_polys: tuple  # b_k(z) = [z_k] S, a Laurent poly in the other d-1 variables

    # --- evaluation helpers taking full-length canonical points -------------

    def eval_A(self, point):
        return self.A.eval(tuple(point[: self.dim - 1]))

    def eval_B(self, point):
        return self.B.eval(tuple(point[: self.dim - 1]))

    def eval_Bk(self, k, point):
        """B_k at a d-point (axis k dropped); B_d is B itself."""
        if k == self.dim - 1:
            return self.eval_B(point)
        reduced = tuple(c for i, c in enumerate(point) if i != k)
        return self.b_polys[k].invert_var(self.dim - 2).eval(reduced)


def decompose(s: StepSet) -> Decomposition:
    """Exact decompositions of the characteristic polynomial (canonical order)."""
    return s.derived("decomposition", _decompose)


def _decompose(s):
    cls = classify(s)
    if cls.kind == UNSUPPORTED:  # the one support check every analytic route meets
        if cls.axis is not None:
            raise UnsupportedModelError(
                "zero drift without full symmetry: asymptotics conjectural, unsupported")
        raise UnsupportedModelError(
            "model symmetry class not supported: it must be symmetric in every axis "
            "but at most one, with nonzero drift along that one")
    d = s.dim
    S = s.char_poly()
    A = S.coeff_slice(d - 1, -1)
    Q = S.coeff_slice(d - 1, 0)
    B = S.coeff_slice(d - 1, 1)
    b_scalars = []
    b_polys = []
    ones = (1,) * (d - 1)
    for k in range(d - 1):
        bp = S.coeff_slice(k, 1)
        b_polys.append(bp)
        b_scalars.append(bp.eval(ones))
    return Decomposition(
        dim=d,
        A=A,
        Q=Q,
        B=B,
        total_weight=s.total_weight(),
        b_scalars=tuple(b_scalars),
        b_polys=tuple(b_polys),
    )


# ------------------------------------------------------------------ file I/O

def stepset_from_document(doc):
    """Build a StepSet from a parsed model document (see the file format), or
    from a comma-separated compass list; StepSetError names a bad field."""
    if isinstance(doc, str):
        return build_stepset(2, [t.strip() for t in doc.split(",") if t.strip()])
    if not isinstance(doc, dict):
        raise StepSetError("model document must be a JSON object")
    for field in ("dimension", "steps"):
        if field not in doc:
            raise StepSetError(f"model document has no {field!r} field")
    if not isinstance(doc["steps"], list):
        raise StepSetError("'steps' must be a list of step records")
    steps = []
    for rec in doc["steps"]:
        if isinstance(rec, str):
            steps.append(rec)
        elif isinstance(rec, dict) and "vector" in rec:
            steps.append((rec["vector"], rec.get("weight", 1)))
        else:
            raise StepSetError(f"step record {rec!r} needs a 'vector' field")
    return build_stepset(doc["dimension"], steps)


def load_stepset(path):
    """Read a model file: JSON with fields ``dimension`` and ``steps``.

    Each step record has ``vector`` (integer list, or a 2D compass shorthand)
    and ``weight`` (rational string like "3/2"); a bare shorthand string is
    also accepted as a record.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return stepset_from_document(doc)
