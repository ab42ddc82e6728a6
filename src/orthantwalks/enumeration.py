"""Independent enumeration oracle: exact and float dynamic programming over the
orthant, with endpoint filters (anywhere / chosen boundary hyperplanes / origin)
and full endpoint-resolved tables.

Both modes run the one kernel in ``_dp`` on the weights scaled to integers by
D, the lcm of their denominators.  The kernel keeps cell-by-cell only the walks
that can still return to a boundary hyperplane by the horizon n_max and sums
the rest over the axes they can no longer reach, so a filter's count adds up
the parts that keep all of its axes.  Exact mode counts in Python big integers
and divides by D^n when it reads a count (giving Fractions for non-integer
weights); it is bit-reproducible.  An exact count of the walks ending anywhere
reads only boundary counts: the kernel equation at z = (1, ..., 1) gives s_n
from s_(n-1) and the counts of the walks ending on each set of hyperplanes
(``_anywhere_counts``), so no step sums the walks far from every axis.  Float
mode renormalizes by the total weight S(1) at every step, storing
u_n = s_n / S(1)^n together with the log scale, so series up to n ~ 1000
neither overflow nor silently degrade; it sums every part for its anywhere
count, as the recurrence would cancel catastrophically in floating point at
negative drift.  numpy and the kernel load at the first count (``_kernel``).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from orthantwalks.stepset import StepSet, check_count, normalize_filter


class CapacityError(RuntimeError):
    """A resource bound (state count / table size) was exceeded."""


DEFAULT_STATE_CAP = 1 << 26  # largest box (n_max+1)^d any count may span
ENDPOINT_TABLE_MAX_N = 12


@dataclass
class CountSeries:
    """Walk counts s_0..s_n under an endpoint filter.

    mode 'exact': values are ints/Fractions.  mode 'float': values are the
    renormalized u_n = s_n / S(1)^n, log_scale = log S(1) and scale = S(1)
    as a float (exp(log_scale) when not given), so s_n = u_n * scale^n and
    log s_n = log u_n + n * log_scale.
    """

    mode: str
    filter: object
    values: object
    log_scale: float = 0.0
    underflow: bool = False
    scale: float | None = None

    def __post_init__(self):
        if self.scale is None:
            self.scale = math.exp(self.log_scale)

    def n_max(self):
        return len(self.values) - 1

    def value(self, n):
        """s_n; in float mode a float, finite whenever s_n is (else OverflowError)."""
        if self.mode == "exact":
            return self.values[n]
        try:  # S(1)^n as a float power: exact while it fits, so 6 walks read 6.0
            return self.values[n] * self.scale**n
        except OverflowError:  # S(1)^n overflows, s_n need not: scale in base 2
            k, r = divmod(n * self.log_scale / math.log(2), 1)
            return math.ldexp(self.values[n] * 2.0**r, int(k))

    def log_value(self, n):
        if self.mode == "exact":  # an int or Fraction: its logarithm without a float of it
            v = self.values[n]
            return math.log(v.numerator) - math.log(v.denominator) if v > 0 else -math.inf
        u = self.values[n]
        return (math.log(u) + n * self.log_scale) if u > 0 else -math.inf


@dataclass
class EndpointTable:
    """Exact endpoint-resolved counts after n steps."""

    n: int
    counts: dict

    def total(self):
        return sum(self.counts.values())


def _integer_weights(s: StepSet):
    """The step vectors, integer weights w*D, and D, the lcm of the weight denominators."""
    denom = math.lcm(*(w.denominator for _, w in s.steps))
    return [v for v, _ in s.steps], [int(w * denom) for _, w in s.steps], denom


def _check_box(s: StepSet, n_max, what):
    cells = (n_max + 1) ** s.dim
    if cells > DEFAULT_STATE_CAP:
        raise CapacityError(
            f"{what} box (n+1)^{s.dim} = {cells} cells for n = {n_max} exceeds "
            f"the limit of {DEFAULT_STATE_CAP} cells"
        )


def _exact(count, denom, n):
    """Read an integer-weight count as the model's count: an int, or a Fraction
    when the weights are not all integers."""
    return count if denom == 1 or not count else Fraction(count, denom**n)


def _axes(flt):
    """The axes a normalized filter pins to 0."""
    return () if flt == "anywhere" else flt[1]


def _kernel():
    """numpy and the DP kernel, imported by the functions that count walks:
    the rest of the package never needs them, and loading them costs about
    0.13 s and 12 MB."""
    import numpy

    from orthantwalks import _dp

    return numpy, _dp


def count_walks(s: StepSet, n_max, flt="anywhere", mode="exact"):
    """Total weight of n-step orthant walks satisfying the endpoint filter, n <= n_max.

    An exact count at 'anywhere' comes from the boundary counts by the kernel
    equation at z = (1, ..., 1) (``_anywhere_counts``); every other count,
    and every float count, sums the kernel's parts that keep the filter's
    axes.  Both modes raise CapacityError when the box {0..n_max}^d the walks span
    has more than ``DEFAULT_STATE_CAP`` cells, although no buffer of the
    kernel holds more than (n_max//2 + 3)^d of them and a zero pad of one
    unit at the widest stride, sum((n_max//2 + 3)^j for j < d) cells.
    """
    n_max = check_count(n_max, "n_max")
    flt = normalize_filter(flt, s.dim)
    if mode == "float":
        return count_profile(s, n_max, filters=[flt])[flt]
    if mode != "exact":
        raise ValueError("mode must be 'exact' or 'float'")
    _check_box(s, n_max, "exact DP")
    vectors, weights, denom = _integer_weights(s)
    if flt == "anywhere":
        counts = _anywhere_counts(vectors, weights, n_max)
    else:
        _, _dp = _kernel()
        axes = [_axes(flt)]
        read = _dp.totals_reader(axes)
        counts = [read(state)[0] for state in _dp.evolve(vectors, weights, n_max, object, axes)]
    return CountSeries("exact", flt, [_exact(c, denom, n) for n, c in enumerate(counts)])


def _anywhere_counts(vectors, weights, n_max):
    """Integer-weight counts of the walks ending anywhere, n <= n_max, from
    the kernel equation at z = (1, ..., 1):

        s_n = S(1) s_(n-1) + sum over non-empty J of (-1)^|J| N_J s_(n-1)(J),

    where N_J is the weight of the steps with v_j = -1 for every j in J and
    s_(n-1)(J) counts the walks ending on x_j = 0 for every j in J: by
    inclusion-exclusion over the axes, the sum takes off every step that
    leaves the orthant.  Only boundary counts are read, so the pass to the
    horizon n_max - 1 never builds the part of the walks far from every axis.
    """
    _, _dp = _kernel()
    # not empty: every axis has a step with v_j = -1
    filters, signed = zip(*_boundary_weights(vectors, weights))
    read = _dp.totals_reader(filters)
    total = sum(weights)
    counts = [1]
    if n_max:
        for state in _dp.evolve(vectors, weights, n_max - 1, object, filters):
            counts.append(total * counts[-1] + sum(map(operator.mul, signed, read(state))))
    return counts


def _boundary_weights(vectors, weights):
    """(J, (-1)^|J| N_J) for each non-empty axis set J with N_J != 0, N_J the
    weight of the steps with v_j = -1 for every j in J."""
    d = len(vectors[0])
    out = []
    for r in range(1, d + 1):
        for axes in itertools.combinations(range(d), r):
            weight = sum(w for v, w in zip(vectors, weights) if all(v[j] == -1 for j in axes))
            if weight:
                out.append((axes, (-1) ** r * weight))
    return out


def count_profile(s: StepSet, n_max, filters=None):
    """One float DP pass returning CountSeries for every standard filter, or for
    the given ones only.

    Standard filters: anywhere and every non-empty axis subset (the full
    subset being the origin).  ``filters`` lists filters in any form
    ``normalize_filter`` takes; the result is keyed by their normal forms.
    """
    n_max = check_count(n_max, "n_max")
    _check_box(s, n_max, "float DP")
    np, _dp = _kernel()
    vectors, weights, _ = _integer_weights(s)
    if filters is None:
        keys = ["anywhere"] + [("axes", tuple(j for j in range(s.dim) if mask >> j & 1))
                               for mask in range(1, 2**s.dim)]
    else:
        keys = list(dict.fromkeys(normalize_filter(flt, s.dim) for flt in filters))
    axes = [_axes(key) for key in keys]
    read = _dp.totals_reader(axes)
    raw = [np.zeros(n_max + 1) for _ in keys]
    for n, state in enumerate(_dp.evolve(vectors, weights, n_max, np.float64, axes)):
        for arr, total in zip(raw, read(state)):
            arr[n] = total
    scale = float(s.total_weight())
    out = {}
    for flt, arr in zip(keys, raw):
        positive = arr[arr > 0]
        underflow = bool(positive.size and positive.min() < 1e-290)
        out[flt] = CountSeries("float", flt, arr, math.log(scale), underflow, scale)
    return out


def endpoint_tables(s: StepSet, n_max):
    """Exact coefficients of the length-n slices of the full endpoint generating
    function for n = 0..n_max, one table per n, from one DP pass."""
    n_max = check_count(n_max, "n_max")
    if n_max > ENDPOINT_TABLE_MAX_N:
        raise CapacityError(f"endpoint tables limited to n <= {ENDPOINT_TABLE_MAX_N}")
    _check_box(s, n_max, "exact DP")
    np, _dp = _kernel()
    vectors, weights, denom = _integer_weights(s)
    # n <= n_max steps before a horizon of 2 n_max no walk is far from any axis
    # yet, so each state is one part holding every endpoint
    states = _dp.evolve(vectors, weights, 2 * n_max, object)
    tables = []
    for n, state in enumerate(itertools.islice(states, n_max + 1)):
        (box,) = state.values()
        tables.append(EndpointTable(n, {tuple(pos): _exact(box[tuple(pos)], denom, n)
                                        for pos in np.argwhere(box != 0).tolist()}))
    return tables


def endpoint_table(s: StepSet, n):
    """Exact coefficients of the length-n slice of the full endpoint generating function."""
    return endpoint_tables(s, n)[n]
