"""Weighted step-set models on {-1,0,1}^d: validation, symmetry classification,
and the exact decompositions of the characteristic Laurent polynomial that the
asymptotic formulas consume."""

from __future__ import annotations

import json
from dataclasses import dataclass
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


def parse_weight(w):
    """Exact rational weight from int/Fraction or a string like '3/2' or '0.25'."""
    if isinstance(w, Fraction):
        return w
    if isinstance(w, int):
        return Fraction(w)
    if isinstance(w, str):
        return Fraction(w)
    if isinstance(w, float):
        raise StepSetError("float weights are ambiguous; pass a string or Fraction")
    raise StepSetError(f"cannot parse weight {w!r}")


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
    """

    dim: int
    steps: tuple  # ((vector, weight), ...) in original axis order
    axis_order: tuple  # canonical position -> original axis

    # -------------------------------------------------------------- mappings

    def canonical_vector(self, v):
        return tuple(v[j] for j in self.axis_order)

    def canonical_steps(self):
        return tuple((self.canonical_vector(v), w) for v, w in self.steps)

    def to_canonical_axes(self, axes):
        """Map a set of 0-based original axes to canonical axis indices."""
        inv = {j: i for i, j in enumerate(self.axis_order)}
        return frozenset(inv[a] for a in axes)

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
        vec = tuple(int(c) for c in vec)
        if len(vec) != dimension:
            raise StepSetError(f"step {vec} has wrong dimension")
        if any(c not in (-1, 0, 1) for c in vec):
            raise StepSetError(f"step {vec} outside {{-1,0,1}}^d")
        if not any(vec):
            raise StepSetError("zero step not allowed")
        w = parse_weight(w)
        if w <= 0:
            raise StepSetError(f"weight of step {vec} must be positive")
        parsed.append((vec, w))
    vectors = [v for v, _ in parsed]
    if len(set(vectors)) != len(vectors):
        raise StepSetError("duplicate step vector")
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


def _split_symmetric(p: LaurentPoly, j: int):
    """Write p = (z_j + 1/z_j) * P1 + P0 for p symmetric in z_j with exponents in {-1,0,1}."""
    if any(abs(e) > 1 for e in p.var_exponents(j)):
        raise StepSetError("degree in the split axis exceeds one")
    up = p.coeff_slice(j, 1)
    down = p.coeff_slice(j, -1)
    if up != down:
        raise StepSetError("polynomial is not symmetric in the split axis")
    return up, p.coeff_slice(j, 0)


@dataclass(frozen=True)
class Decomposition:
    """All exact splittings of S used downstream.

    Everything is expressed in canonical axis order with the drift axis last:
    S = (1/z_d) A + Q + z_d B, Sbar = (z_k + 1/z_k) B_k + Q_k for k < d,
    A = (z_j + 1/z_j) A'_j + A''_j and likewise for B.
    """

    dim: int
    A: LaurentPoly  # d-1 variables z_1..z_{d-1}
    Q: LaurentPoly
    B: LaurentPoly
    drift: Fraction
    total_weight: Fraction
    b_scalars: tuple  # b_k = weight moving forward along canonical axis k < d
    b_polys: tuple  # b_k(z) = [z_k] S, a Laurent poly in the other d-1 variables
    BQ_pairs: tuple  # (B_k, Q_k) for k < d, in the variables without z_k
    ABprime: tuple  # (A'_j, B'_j, A''_j, B''_j) for j < d, in d-2 variables

    # --- evaluation helpers taking full-length canonical points -------------

    def eval_hat(self, poly, drop, point):
        """Evaluate a poly living in the variables without axis ``drop``."""
        reduced = tuple(c for i, c in enumerate(point) if i != drop)
        return poly.eval(reduced)

    def eval_A(self, point):
        return self.A.eval(tuple(point[: self.dim - 1]))

    def eval_B(self, point):
        return self.B.eval(tuple(point[: self.dim - 1]))

    def eval_Bk(self, k, point):
        """B_k at a d-point (axis k dropped); B_d is B itself."""
        if k == self.dim - 1:
            return self.eval_B(point)
        return self.eval_hat(self.BQ_pairs[k][0], k, point)


def decompose(s: StepSet) -> Decomposition:
    """Exact decompositions of the characteristic polynomial (canonical order)."""
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
    sbar = s.sbar_poly()
    b_scalars = []
    b_polys = []
    bq_pairs = []
    abprime = []
    ones = (1,) * (d - 1)
    for k in range(d - 1):
        bp = S.coeff_slice(k, 1)
        b_polys.append(bp)
        b_scalars.append(bp.eval(ones))
        Bk, Qk = _split_symmetric(sbar, k)
        bq_pairs.append((Bk, Qk))
        Apj, App = _split_symmetric(A, k)
        Bpj, Bpp = _split_symmetric(B, k)
        abprime.append((Apj, Bpj, App, Bpp))
    return Decomposition(
        dim=d,
        A=A,
        Q=Q,
        B=B,
        drift=B.eval(ones) - A.eval(ones),
        total_weight=s.total_weight(),
        b_scalars=tuple(b_scalars),
        b_polys=tuple(b_polys),
        BQ_pairs=tuple(bq_pairs),
        ABprime=tuple(abprime),
    )


# ------------------------------------------------------------------ file I/O

def stepset_from_document(doc):
    """Build a StepSet from a parsed model document (see the file format)."""
    if isinstance(doc, str):
        return build_stepset(2, [t.strip() for t in doc.split(",") if t.strip()])
    dim = int(doc["dimension"])
    steps = []
    for rec in doc["steps"]:
        if isinstance(rec, str):
            steps.append(rec)
        else:
            steps.append((rec["vector"], rec.get("weight", 1)))
    return build_stepset(dim, steps)


def load_stepset(path):
    """Read a model file: JSON with fields ``dimension`` and ``steps``.

    Each step record has ``vector`` (integer list, or a 2D compass shorthand)
    and ``weight`` (rational string like "3/2"); a bare shorthand string is
    also accepted as a record.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return stepset_from_document(doc)
