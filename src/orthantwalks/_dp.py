"""The dynamic-programming kernel behind exact and float walk counting.

One shifted-slice update serves both modes; the array dtype picks the
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
min(n, H - n), so no part exceeds (H//2 + 2)^d cells, and the work is about
2^-d of a pass over the box {0..n}^d at every step.
"""

from __future__ import annotations

import numpy as np


def kernel_backend():
    """Name of the array library the kernel runs on."""
    return "numpy"


class _Part:
    """The walks whose collapsed axes are all far: an array over the live axes.

    Index tuples start with an Ellipsis so that the part with no live axis is a
    0-d array that slices, like every other, to a view.
    """

    __slots__ = ("steps", "cur", "nxt", "scratch")

    def __init__(self, axes, vectors, weights, extent, dtype):
        merged = {}
        for v, w in zip(vectors, weights):
            key = tuple(v[a] for a in axes)
            merged[key] = merged.get(key, 0) + w
        if np.dtype(dtype) != np.dtype(object):
            merged = {v: float(w) for v, w in merged.items()}
        self.steps = list(merged.items())
        shape = (extent,) * len(axes)
        self.cur = np.zeros(shape, dtype=dtype)
        self.nxt = np.zeros(shape, dtype=dtype)
        # products for non-unit weights land here, so no step allocates a temporary
        self.scratch = (np.zeros(shape, dtype=dtype)
                        if any(w != 1 for _, w in self.steps) else None)

    def step(self, live, reach, total):
        """Fill nxt on {0..reach-1}^k from cur on {0..live-1}^k; divide by total if given."""
        box = (...,) + (slice(0, reach),) * self.cur.ndim
        self.nxt[box] = 0
        for v, w in self.steps:
            lo = [max(-s, 0) for s in v]
            src = (...,) + tuple(slice(a, live) for a in lo)
            dst = (...,) + tuple(slice(a + s, live + s) for a, s in zip(lo, v))
            if w == 1:
                self.nxt[dst] += self.cur[src]
            else:
                part = self.scratch[(...,) + tuple(slice(0, live - a) for a in lo)]
                np.multiply(self.cur[src], w, out=part)
                self.nxt[dst] += part
        if total is not None:
            self.nxt[box] /= total


def evolve(vectors, weights, n_max, dtype):
    """Yield the state after 0, 1, ..., n_max steps.

    A state maps each tuple of live axes to an array over them: the full tuple
    holds the walks near every hyperplane, cell by cell, on {0..m}^d with
    m = min(n, n_max - n); a shorter tuple holds the walks far from each
    missing axis, summed over it.  ``weights`` are integers.  With
    ``dtype=object`` the state holds exact integer-weight counts; with a float
    dtype each step is divided by sum(weights), so the state after n steps is
    the count over sum(weights)^n.  A yielded state is valid until the
    generator is resumed.
    """
    d = len(vectors[0])
    total = None if np.dtype(dtype) == np.dtype(object) else float(sum(weights))
    extent = n_max // 2 + 2  # the widest any live axis gets, just before a cut
    parts = {}

    def part(axes):
        if axes not in parts:
            parts[axes] = _Part(axes, vectors, weights, extent, dtype)
        return parts[axes]

    def state(live):
        return {axes: p.cur[(...,) + (slice(0, live),) * len(axes)]
                for axes, p in parts.items()}

    part(tuple(range(d))).cur[(0,) * d] = 1
    live = 1  # every live axis of the state holds coordinates 0..live-1
    yield state(live)
    for n in range(1, n_max + 1):
        reach = live + 1
        cut = min(n, n_max - n) + 1
        for p in parts.values():
            p.step(live, reach, total)
        # a walk with x_a >= cut is far from axis a: move it to the part without a,
        # larger parts first so a walk far on several axes moves on down
        if reach > cut:
            for k in range(d, 0, -1):
                for axes in [axes for axes in parts if len(axes) == k]:
                    arr = parts[axes].nxt
                    for i in range(k):
                        far = (...,) + tuple(slice(0, cut) if j < i else
                                             slice(cut, reach) if j == i else
                                             slice(0, reach) for j in range(k))
                        into = (...,) + tuple(slice(0, cut) if j < i else slice(0, reach)
                                              for j in range(k - 1))
                        part(axes[:i] + axes[i + 1:]).nxt[into] += arr[far].sum(axis=i)
        for p in parts.values():
            p.cur, p.nxt = p.nxt, p.cur
        live = min(reach, cut)
        yield state(live)


def restricted_total(state, axes):
    """Total weight in ``state`` of the walks ending with x_j = 0 for every j in ``axes``.

    A part without some axis in ``axes`` holds only walks far from it, so it
    adds nothing.
    """
    total = 0
    for live, arr in state.items():
        if all(a in live for a in axes):
            total += arr[(...,) + tuple(0 if a in axes else slice(None) for a in live)].sum()
    return total
