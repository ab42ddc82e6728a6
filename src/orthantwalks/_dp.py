"""The dynamic-programming kernel behind exact and float walk counting.

One shifted-slice update serves both modes; the array dtype picks the
arithmetic.  Weights are integers (the model's weights times the common
denominator D), so exact mode runs on Python ints in an ``object`` array and
float mode on float64.  A walk of n steps never leaves the box {0..n}^d, so
step n touches only that box, not the whole (n_max+1)^d grid.
"""

from __future__ import annotations

import numpy as np


def kernel_backend():
    """Name of the array library the kernel runs on."""
    return "numpy"


def evolve(vectors, weights, n_max, dtype):
    """Yield the state after 0, 1, ..., n_max steps as a view of the reachable box.

    ``weights`` are integers.  With ``dtype=object`` the state holds exact
    integer-weight counts; with a float dtype each step is divided by
    sum(weights), so the state after n steps is the count over sum(weights)^n.
    A yielded view is valid until the generator is resumed.
    """
    d = len(vectors[0])
    exact = np.dtype(dtype) == np.dtype(object)
    shape = (n_max + 1,) * d
    cur = np.zeros(shape, dtype=dtype)
    nxt = np.zeros(shape, dtype=dtype)
    cur[(0,) * d] = 1
    # products for non-unit weights land here, so no step allocates a temporary
    scratch = np.zeros(shape, dtype=dtype) if any(w != 1 for w in weights) else None
    if not exact:
        total = float(sum(weights))
        weights = [float(w) for w in weights]
    yield cur[(slice(0, 1),) * d]
    for n in range(1, n_max + 1):
        # cur is nonzero only on {0..n-1}^d; clear nxt's {0..n}^d and fill it
        box = (slice(0, n + 1),) * d
        nxt[box] = 0
        for v, w in zip(vectors, weights):
            lo = [max(-s, 0) for s in v]
            src = tuple(slice(a, n) for a in lo)
            dst = tuple(slice(a + s, n + s) for a, s in zip(lo, v))
            if w == 1:
                nxt[dst] += cur[src]
            else:
                part = scratch[tuple(slice(0, n - a) for a in lo)]
                np.multiply(cur[src], w, out=part)
                nxt[dst] += part
        if not exact:
            nxt[box] /= total
        cur, nxt = nxt, cur
        yield cur[box]
