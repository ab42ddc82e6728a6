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
min(n, H - n), and the work is about 2^-d of a pass over {0..n}^d per step.  A
part over k axes keeps two flat buffers (three with non-unit weights) of
(H//2 + 3)^k cells, and a step moves its live box by one contiguous add.
"""

from __future__ import annotations

import functools

import numpy as np


def kernel_backend():
    """Name of the array library the kernel runs on."""
    return "numpy"


class _Part:
    """The walks whose collapsed axes are all far: one flat buffer over the live axes.

    Each live axis has ``width`` slots, coordinate x at slot x + 1 and slot 0
    catching walks that step off the orthant.  ``cur`` is zero outside the live
    box, so no ±1 step of a nonzero cell wraps into the next row or hyperplane.
    """

    __slots__ = ("steps", "shape", "unit", "cur", "nxt", "scratch")

    def __init__(self, axes, vectors, weights, width, dtype):
        merged = {}
        for v, w in zip(vectors, weights):
            off = sum(v[a] * width**j for j, a in enumerate(reversed(axes)))
            merged[off] = merged.get(off, 0) + w
        if np.dtype(dtype) != np.dtype(object):
            merged = {off: float(w) for off, w in merged.items()}
        self.steps = list(merged.items())
        self.shape = (width,) * len(axes)
        self.unit = sum(width**j for j in range(len(axes)))  # from (c,..,c) to (c+1,..,c+1)
        self.cur = np.zeros(width ** len(axes), dtype=dtype)
        self.nxt = np.zeros(width ** len(axes), dtype=dtype)
        # products for non-unit weights land here, so no step allocates a temporary
        self.scratch = (np.zeros(width ** len(axes), dtype=dtype)
                        if any(w != 1 for _, w in self.steps) else None)

    def box(self, m):
        """View of cur on {0..m-1}^k; the Ellipsis makes the 0-d part a view too."""
        return self.cur.reshape(self.shape)[(...,) + (slice(1, m + 1),) * len(self.shape)]

    def step(self, live, reach, total):
        """Advance cur from {0..live-1}^k to {0..reach-1}^k; divide by total if given."""
        lo, hi = self.unit, live * self.unit + 1  # the flat span of {0..live-1}^k
        # nxt holds the state of two steps back, zero outside {0..reach-1}^k
        self.nxt[:hi + self.unit] = 0
        for off, w in self.steps:
            dst = self.nxt[lo + off:hi + off]
            if w == 1:
                dst += self.cur[lo:hi]
            else:
                part = self.scratch[:hi - lo]
                np.multiply(self.cur[lo:hi], w, out=part)
                dst += part
        for j in range(len(self.shape)):  # drop the walks that stepped off axis j
            self.nxt.reshape(self.shape)[(slice(None),) * j + (0,)] = 0
        if total is not None:
            self.nxt[lo:hi + self.unit] /= total
        self.cur, self.nxt = self.nxt, self.cur


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
    width = n_max // 2 + 3  # the widest a live axis gets, plus the off-orthant slot
    parts = {}

    def part(axes):
        if axes not in parts:
            parts[axes] = _Part(axes, vectors, weights, width, dtype)
        return parts[axes]

    def state(live):
        return {axes: p.box(live) for axes, p in parts.items()}

    part(tuple(range(d))).box(1)[(0,) * d] = 1
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
                    arr = parts[axes].box(reach)
                    for i in range(k):
                        far = (...,) + tuple(slice(0, cut) if j < i else
                                             slice(cut, reach) if j == i else
                                             slice(0, reach) for j in range(k))
                        into = (...,) + tuple(slice(0, cut) if j < i else slice(0, reach)
                                              for j in range(k - 1))
                        part(axes[:i] + axes[i + 1:]).box(reach)[into] += arr[far].sum(axis=i)
                        arr[far] = 0  # keeps cur zero outside {0..cut-1}^k
        live = min(reach, cut)
        yield state(live)


def restricted_total(state, axes):
    """Total weight in ``state`` of the walks ending with x_j = 0 for every j in ``axes``.

    A part without some axis in ``axes`` holds only walks far from it, so it
    adds nothing.
    """
    total = 0
    for live, arr in state.items():
        index = _restricted_index(live, axes)
        if index is not None:
            total += arr[index].sum()
    return total


@functools.cache
def _restricted_index(live, axes):
    """Index of the walks on x_j = 0 (j in ``axes``) in the part over ``live``, or None."""
    if all(a in live for a in axes):
        return (...,) + tuple(0 if a in axes else slice(None) for a in live)
