"""The dynamic-programming kernel behind exact and float walk counting.

One flat-offset update serves both modes; the array dtype picks the
arithmetic.  Weights are integers (the model's weights times the common
denominator D), so exact mode runs on Python ints in an ``object`` array and
float mode on float64.

The kernel only computes what can still change a count up to the horizon
H = n_max.  Steps move each coordinate by at most 1, so a walk with x_a > H - n
after step n stays positive on axis a through step H: axis a can neither kill
it nor put it on hyperplane a.  Such cells are summed over axis a and carried on
in a *part* over the remaining (live) axes, which evolves under the step set
projected off a, the weights of steps that share their live components added.
A walk far on every axis becomes a scalar.  Every live coordinate stays within
min(n, H - n), and the work is about 2^-d of a pass over {0..n}^d per step.

A part over k axes keeps its state in one flat buffer, allocated once, and a
step forms each new cell by gathering the old cells one merged step away, one
contiguous array pass per merged step.  The stride tracks the live box: a part
uses only the first w^k cells of its buffer, w slots per axis, with w a little
wider than the box; about every ``SLACK`` steps the box is copied to a new
stride inside the same buffer, so a step spans about live^k cells rather than
live rows of the widest stride.  The buffer holds the widest box,
(H//2 + 3)^k cells, and past it a zero pad of one unit at the widest stride,
so a gather from the top of the box reads zeros at any stride.

A part of at most ``IN_PLACE_CELLS`` cells fits in the cache with a second
buffer (and a third with non-unit weights): each step forms the next state
there, and the two trade places.  A larger part, in 3D and 4D, would run each
of a step's array passes from memory, so it keeps the one buffer and steps it
in place, ``BLOCK`` cells at a time: each block is formed straight into the
buffer from a window holding the old cells within a unit of it.  Both
kinds form their cells through one formula, ``_Part._form``, so both give
every cell the same operations in the same order, and the same bits.  Both
stay: with every part stepped in place, the 2D catalog ran 20% slower (2 cores).

A model may also bound how far an orthant walk gets along an axis: with
reach rate rho_a (``_reach_rates``), no walk of n steps passes x_a =
floor(rho_a n).  On a part whose first axis, the slowest in the flat layout,
has rho_a < 1, a step forms, zeroes, moves and collapses only the rows up to
that one: its flat spans just end sooner, and the pages past them stay
untouched, so unmapped.  On the 3D example's symmetric axes rho = 1/2.  The
cells left unformed would have been formed as exact zeros, so the views a
state yields, and the counts read from them, keep every bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SLACK = 16  # spare slots per axis while the box grows: a re-stride every ~SLACK steps
IN_PLACE_CELLS = 2**17  # a part with more cells than this keeps one buffer, stepped in place
BLOCK = 2**15  # the cells an in-place step forms at a time, so its passes run from cache
_sum = np.add.reduce  # ndarray.sum without its Python wrapper: the same reduction


def kernel_backend():
    """Name of the array library the kernel runs on."""
    return "numpy"


def _box(k, m, rows=None):
    """Index of the slots of {0..m-1}^k, the first axis cut to {0..rows-1} if
    given; the Ellipsis makes the 0-d part a view too."""
    if rows is None or rows >= m or not k:
        return (...,) + (slice(1, m + 1),) * k
    return (..., slice(1, rows + 1)) + (slice(1, m + 1),) * (k - 1)


def _reach_rates(vectors):
    """Twice the reach rate rho_a of each axis a with rho_a < 1, an int: no
    orthant walk of n steps gets past x_a = floor(rho_a n).

    A walk that ends with x_b >= 0 takes steps whose v_b average at least 0,
    so the average of their v_a is at most the largest over the steps with
    v_b >= 0 and over the even mixes of a step with v_b = 1 and one with
    v_b = -1; rho_a is the least of these over the other axes b.  The bound
    depends on the steps alone, not on their weights.
    """
    d = len(vectors[0])
    rates = {}
    for a in range(d):
        twice = min((max([2 * v[a] for v in vectors if v[b] >= 0]
                         + [u[a] + v[a] for u in vectors if u[b] == 1
                            for v in vectors if v[b] == -1], default=0)
                     for b in range(d) if b != a), default=2)
        if twice < 2:
            rates[a] = max(twice, 0)
    return rates


class _Buffer:
    """One flat buffer of a part, with its views under the part's stride."""

    __slots__ = ("flat", "nd", "faces")

    def __init__(self, size, dtype):
        self.flat = np.zeros(size, dtype=dtype)

    def layout(self, k, width):
        """Read the first width^k cells as k axes of ``width`` slots each."""
        self.nd = self.flat[:width**k].reshape((width,) * k)
        # slot 0 of each axis, which catches the walks that step off it; no
        # flat span reaches the first axis's, which lies before slot 1 of it
        self.faces = [self.nd[(slice(None),) * j + (0, ...)] for j in range(1, k)]


class _Part:
    """The walks whose collapsed axes are all far: a flat buffer over the live axes.

    Each live axis has ``width`` slots, coordinate x at slot x + 1 and slot 0
    catching walks that step off the orthant.  ``cur`` is zero outside the live
    box, so no ±1 step of a nonzero cell wraps into the next row or hyperplane,
    and on the first axis, ``lead``, past coordinate ``rows`` - 1.
    """

    __slots__ = ("k", "lead", "rows", "children", "projected", "pad", "width", "unit", "plane",
                 "steps", "cur", "scratch")

    def __init__(self, axes, vectors, weights, size, dtype):
        merged = {}
        for v, w in zip(vectors, weights):
            key = tuple(v[a] for a in axes)
            merged[key] = merged.get(key, 0) + w
        if np.dtype(dtype) != np.dtype(object):
            merged = {key: float(w) for key, w in merged.items()}
        self.k = len(axes)
        self.lead = axes[0] if axes else None
        self.rows = size  # no bound until a step sets one
        self.children = [axes[:i] + axes[i + 1:] for i in range(self.k)]
        self.projected = list(merged.items())
        self.pad = sum(size**j for j in range(self.k))  # the unit at the widest stride
        self.cur = _Buffer(size**self.k + self.pad, dtype)

    def _scratch(self, cells, dtype):
        """Where the products of the merged steps after the first land, so no
        step allocates a temporary; None when those steps all weigh 1."""
        if any(w != 1 for _, w in self.projected[1:]):
            return np.zeros(cells, dtype=dtype)
        return None

    def _set_width(self, width):
        k = self.k
        self.width = width
        self.unit = sum(width**j for j in range(k))  # from (c,..,c) to (c+1,..,c+1)
        self.plane = width**k // width  # the cells of one hyperplane of the first axis
        self.steps = [(sum(c * width**j for j, c in enumerate(reversed(v))), w)
                      for v, w in self.projected]
        self.cur.layout(k, width)

    def _form(self, new, old, at, scale):
        """Set new[i] to the sum of w * old[at + i - off] over the merged steps
        (off, w), then apply ``scale``, a ufunc and its operand, if given: the
        first step writes, the others add in order, through ``scratch`` when
        their weight is not 1.
        """
        n = len(new)
        (off, w), *rest = self.steps
        src = old[at - off:at - off + n]
        if w == 1:
            new[...] = src
        else:
            np.multiply(src, w, out=new)
        for off, w in rest:
            src = old[at - off:at - off + n]
            if w == 1:
                new += src
            else:
                part = self.scratch[:n]
                np.multiply(src, w, out=part)
                new += part
        if scale is not None:
            op, by = scale
            op(new, by, out=new)

    def _end(self, reach):
        """The end of the flat span [unit, end) of {0..reach-1}^k, its first
        axis cut to {0..rows-1}."""
        return reach * self.unit + 1 - (reach - self.rows) * self.plane

    def _zero_faces(self, buf):
        """Drop the walks that stepped off an axis, in the rows a step formed."""
        for face in buf.faces:
            face[:self.rows + 1].fill(0)

    def box(self, m, rows=None):
        """View of cur on {0..m-1}^k, the first axis cut to {0..rows-1} if given."""
        return self.cur.nd[_box(self.k, m, rows)]


class _TwoBuffers(_Part):
    """A part small enough for the cache: each step writes the next state into
    a second buffer, and the two trade places."""

    __slots__ = ("nxt",)

    def __init__(self, axes, vectors, weights, size, width, dtype):
        super().__init__(axes, vectors, weights, size, dtype)
        self.nxt = _Buffer(len(self.cur.flat), dtype)
        self.scratch = self._scratch(size**self.k, dtype)
        self._set_width(width)

    def _set_width(self, width):
        super()._set_width(width)
        self.nxt.layout(self.k, width)

    def restride(self, width, live):
        """Move the live box {0..live-1}^k of cur to ``width`` slots per axis."""
        # cur and nxt, the states one and two steps back, lie in {0..live}^k
        used = self._end(live + 1)
        box = _box(self.k, live, self.rows)
        old = self.cur.nd[box]
        self.nxt.flat[:used] = 0
        self.cur, self.nxt = self.nxt, self.cur
        self._set_width(width)
        self.cur.nd[box] = old
        self.nxt.flat[:used] = 0

    def step(self, reach, scale):
        """Advance cur to {0..reach-1}^k, then apply ``scale``, a ufunc and its
        operand, if given."""
        # nxt holds the state of two steps back: zero on the faces and past the
        # flat span of {0..reach-1}^k, which _form fills
        unit = self.unit
        self._form(self.nxt.flat[unit:self._end(reach)], self.cur.flat, unit, scale)
        self._zero_faces(self.nxt)
        self.cur, self.nxt = self.nxt, self.cur


class _InPlace(_Part):
    """A part too large for the cache: one buffer, stepped in place one block
    of ``BLOCK`` cells at a time.

    A step copies the old cells within ``unit`` of a block into a ``window``
    and forms the block's new values from it straight into the buffer; the
    window's first ``unit`` cells are carried over from the previous block,
    whose old values the buffer no longer holds.
    """

    __slots__ = ("window",)

    def __init__(self, axes, vectors, weights, size, width, dtype):
        super().__init__(axes, vectors, weights, size, dtype)
        self.window = np.zeros(BLOCK + 2 * self.pad, dtype=dtype)
        self.scratch = self._scratch(BLOCK, dtype)
        self._set_width(width)

    def restride(self, width, live):
        """Move the live box {0..live-1}^k to ``width`` slots per axis, one
        hyperplane at a time through a copy in the window, which steps use only
        while they run: in descending order when the stride grows and ascending
        when it shrinks, so no hyperplane lands on one not yet moved."""
        old = self.cur.nd
        grows = width > self.width
        self._set_width(width)
        new = self.cur.nd
        inner = _box(self.k - 1, live)
        plane = self.window[:live**(self.k - 1)].reshape((live,) * (self.k - 1))
        rows = min(live, self.rows)
        for s in range(rows, 0, -1) if grows else range(1, rows + 1):
            src = old[(s,) + inner]
            plane[...] = src
            src.fill(0)
            new[(s,) + inner] = plane

    def step(self, reach, scale):
        """Advance cur to {0..reach-1}^k, then apply ``scale``, a ufunc and its
        operand, if given."""
        flat, window = self.cur.flat, self.window
        unit, cells = self.unit, len(window) - 2 * self.pad  # BLOCK when the window was made
        end = self._end(reach)
        window[:unit] = 0  # the cells before the span, all on a face
        for a in range(unit, end, cells):
            b = min(a + cells, end)
            n = b - a
            window[unit:n + 2 * unit] = flat[a:b + unit]  # window[i] is old cell a - unit + i
            self._form(flat[a:b], window, unit, scale)
            window[:unit] = window[n:n + unit]  # old cells [b - unit, b), for the next block
        self._zero_faces(self.cur)


def evolve(vectors, weights, n_max, dtype, filters=None):
    """Yield the state after 0, 1, ..., n_max steps.

    A state maps each tuple of live axes to an array over them: the full tuple
    holds the walks near every hyperplane, cell by cell, on {0..m}^d with
    m = min(n, n_max - n); a shorter tuple holds the walks far from each
    missing axis, summed over it.  ``weights`` are integers.  With
    ``dtype=object`` the state holds exact integer-weight counts; with a float
    dtype each step is divided by sum(weights), so the state after n steps is
    the count over sum(weights)^n.  A yielded state is valid until the
    generator is resumed.

    ``filters``, tuples of axes as ``totals_reader`` takes them, keeps only
    the parts over a superset of some filter's axes, the only ones it reads;
    the walks that move on to no kept part are dropped.  A part is fed only by
    larger parts, so every kept part holds what it holds without ``filters``.
    """
    d = len(vectors[0])
    scale = None
    if np.dtype(dtype) != np.dtype(object):
        total = float(sum(weights))
        # x / 2^k and x * 2^-k are the same correctly rounded number; a
        # product is several times cheaper than a quotient
        scale = ((np.multiply, 1 / total) if math.frexp(total)[0] == 0.5
                 else (np.true_divide, total))
    rates = _reach_rates(vectors)
    size = n_max // 2 + 3  # the widest a live axis gets, plus the off-orthant slot
    width = min(3 + SLACK, size)  # the stride of every part
    parts = {}

    @functools.cache
    def needed(axes):
        """Whether some filter reads the part over ``axes``."""
        return filters is None or any(set(f) <= set(axes) for f in filters)

    def part(axes):
        if axes not in parts:
            kind = _InPlace if size ** len(axes) > IN_PLACE_CELLS else _TwoBuffers
            parts[axes] = kind(axes, vectors, weights, size, width, dtype)
        return parts[axes]

    def state(live):
        return {axes: p.box(live) for axes, p in parts.items()}

    part(tuple(range(d))).box(1)[(0,) * d] = 1
    live = 1  # every live axis of the state holds coordinates 0..live-1
    yield state(live)
    for n in range(1, n_max + 1):
        reach = live + 1
        cut = min(n, n_max - n) + 1
        rows = {a: min(reach, n * twice // 2 + 1) for a, twice in rates.items()}
        for p in parts.values():
            p.rows = rows.get(p.lead, reach)
        # a step needs reach + 1 slots per axis; the box grows up to the middle
        # of the horizon and shrinks after it
        if not live + 2 <= width <= live + 2 + SLACK:
            width = min(live + 2 + (SLACK if 2 * n <= n_max else 0), size)
            for p in parts.values():
                p.restride(width, live)
        for p in parts.values():
            p.step(reach, scale)
        # a walk with x_a >= cut is far from axis a: move it to the part without a,
        # larger parts first so a walk far on several axes moves on down
        if reach > cut:
            near, beyond, whole = slice(0, cut), slice(cut, reach), slice(0, reach)
            for k in range(d, 0, -1):
                for p in [p for p in parts.values() if p.k == k]:
                    arr = p.box(reach, p.rows)
                    for i, child in enumerate(p.children):
                        # the axes before i are already cut to {0..cut-1}
                        far = arr[(...,) + (near,) * i + (beyond,) + (whole,) * (k - 1 - i)]
                        if needed(child):
                            # a child that keeps axis 0 keeps its rows too
                            into = part(child).box(reach, p.rows if i else None)
                            if far.size:  # empty when the rows on axis 0 end before the cut
                                into[(...,) + (near,) * i + (whole,) * (k - 1 - i)] += _sum(far, i)
                        far[...] = 0  # keeps cur zero outside {0..cut-1}^k
        live = min(reach, cut)
        yield state(live)


def totals_reader(filters):
    """A function from a state to the total weight of the walks of each filter.

    A filter is a tuple of axes, and its walks are those ending with x_j = 0
    for every j in it.  A part without some axis of a filter holds only walks
    far from it, so it adds nothing; each filter adds up the others in the
    state's order.
    """
    plans = {}

    def plan(live):
        reads = []
        for i, axes in enumerate(filters):
            if all(a in live for a in axes):
                index = tuple(0 if a in axes else slice(None) for a in live)
                reads.append((i, index, len(axes) == len(live)))  # one cell: no sum
        return reads

    def read(state):
        totals = [0] * len(filters)
        for live, arr in state.items():
            reads = plans.get(live)
            if reads is None:
                reads = plans[live] = plan(live)
            for i, index, cell in reads:
                totals[i] += arr[index] if cell else _sum(arr[index], None)
        return totals

    return read
