"""Shared test utilities: random model generation, brute-force oracles, and
the exact helpers only tests use (group action, rational equality, closed-form
series)."""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import strategies as st
from mpmath import mp

from orthantwalks.asympt import _saddle_jets
from orthantwalks.laurent import GUARD_BITS, Jet, LaurentPoly
from orthantwalks.stepset import build_stepset

WEIGHT_CHOICES = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2)]


@st.composite
def symmetric_models(draw, dims=(2, 3), want=("pos", "neg", "hs")):
    """Random weighted step sets symmetric over all canonical axes but the last.

    Weights are assigned per reflection orbit of the first d-1 coordinates, so
    the symmetry constraints hold by construction.  The drift class is drawn
    from ``want``.
    """
    d = draw(st.sampled_from(list(dims)))
    mode = draw(st.sampled_from(list(want)))
    reps = list(itertools.product((0, 1), repeat=d - 1))

    def draw_layer(force_nonzero):
        coeffs = {}
        for r in reps:
            use = draw(st.booleans())
            if use:
                coeffs[r] = draw(st.sampled_from(WEIGHT_CHOICES))
        if force_nonzero and not coeffs:
            coeffs[draw(st.sampled_from(reps))] = draw(st.sampled_from(WEIGHT_CHOICES))
        return coeffs

    a = draw_layer(True)
    b = draw_layer(True) if mode != "hs" else dict(a)
    q = draw_layer(False)
    q.pop((0,) * (d - 1), None)  # the zero vector is not a step
    # every symmetric axis needs a forward step somewhere
    for j in range(d - 1):
        if not any(r[j] for layer in (a, q, b) for r in layer):
            rj = tuple(1 if i == j else 0 for i in range(d - 1))
            a[rj] = a.get(rj, Fraction(0)) + draw(st.sampled_from(WEIGHT_CHOICES))
            if mode == "hs":
                b[rj] = a[rj]
    asum = sum(w * 2 ** sum(r) for r, w in a.items())
    bsum = sum(w * 2 ** sum(r) for r, w in b.items())
    if mode == "pos" and asum >= bsum:
        a, b, asum, bsum = b, a, bsum, asum
    if mode == "neg" and asum <= bsum:
        a, b, asum, bsum = b, a, bsum, asum
    if mode == "pos" and asum == bsum:
        b[reps[0]] = b.get(reps[0], Fraction(0)) + 1
    if mode == "neg" and asum == bsum:
        a[reps[0]] = a.get(reps[0], Fraction(0)) + 1

    steps = []
    for layer, zd in ((a, -1), (q, 0), (b, 1)):
        for r, w in layer.items():
            signs = [(-1, 1) if c else (0,) for c in r]
            for pattern in itertools.product(*signs):
                steps.append((pattern + (zd,), w))
    return build_stepset(d, steps)


def brute_force_counts(steps, n_max, dim, endpoint=None, axes=None):
    """Oracle: direct recursive enumeration of orthant paths, no DP reuse.

    ``steps`` is a list of (vector, weight).  Returns the list s_0..s_{n_max}
    of total weights of paths whose endpoint satisfies the filter:
    everything, exact ``endpoint``, or zero on every axis in ``axes``.
    """
    totals = []
    frontier = {(0,) * dim: Fraction(1)}
    for n in range(n_max + 1):
        tot = Fraction(0)
        for pos, w in frontier.items():
            if endpoint is not None and pos != tuple(endpoint):
                continue
            if axes is not None and any(pos[j] != 0 for j in axes):
                continue
            tot += w
        totals.append(tot)
        nxt = {}
        for pos, w in frontier.items():
            for v, wv in steps:
                q = tuple(p + c for p, c in zip(pos, v))
                if any(c < 0 for c in q):
                    continue
                nxt[q] = nxt.get(q, Fraction(0)) + w * wv
        frontier = nxt
    return totals


def operator_saddle_coefficients(s, point, N, numerator_variant=(), prec=192):
    """Oracle: the depth-N saddle coefficients by the operator route.

    Builds every jet to degree 6(N-1) and applies H = -sum_a lam_a^{-1} d_a^2
    k+l times to the full jet u gU^l before reading its constant term, for
    L_k = sum_{l <= 2k} H^{k+l}(u gU^l)(0) / ((-1)^k 2^{k+l} l! (k+l)!).
    Shares only the jet construction with ``asympt.smooth_contribution``.
    """
    wp = prec + GUARD_BITS
    order = max(2, 6 * (N - 1))
    with mp.workprec(wp):
        u, g, lam = _saddle_jets(s, point, numerator_variant, order, order, wp)
        d = g.dim

        def H(jet):
            out = {}
            for a, la in enumerate(lam):
                for e, c in jet.coeffs.items():
                    if e[a] >= 2:
                        f = e[:a] + (e[a] - 2,) + e[a + 1:]
                        out[f] = out.get(f, mp.mpc(0)) - c * e[a] * (e[a] - 1) / la
            return Jet(d, jet.order - 2, out, wp)

        gU = Jet(d, order, {e: c for e, c in g.coeffs.items() if sum(e) >= 3}, wp)
        gU_pows = [Jet.const(d, order, 1, wp)]
        for _ in range(2 * (N - 1)):
            gU_pows.append(gU_pows[-1] * gU)
        pref = (2 * mp.pi) ** (-mp.mpf(d) / 2)
        for la in lam:
            pref = pref / mp.sqrt(la)
        coeffs = []
        for k in range(N):
            total = mp.mpc(0)
            for l in range(2 * k + 1):
                jet = u * gU_pows[l]
                for _ in range(k + l):
                    jet = H(jet)
                denom = mp.mpf((-1) ** k * 2 ** (k + l)) * mp.factorial(l) * mp.factorial(k + l)
                total += jet.constant_term() / denom
            coeffs.append(pref * total)
        return coeffs


def act(el, p, dcmp):
    """Apply the group element ``el`` to a Laurent polynomial, clearing denominators.

    The drift involution sends z_d to (A/B)/z_d, so the image is rational;
    returns (numerator, apow, bpow) meaning numerator / (A^apow * B^bpow)
    with A, B lifted to d variables.
    """
    d = el.dim
    for j in el.flips:
        p = p.invert_var(j)
    if not el.gamma:
        return p, 0, 0
    exps = p.var_exponents(d - 1)
    if not exps:
        return p, 0, 0
    lo, hi = min(exps), max(exps)
    apow = max(0, -lo)
    bpow = max(0, hi)
    A = dcmp.A.insert_var(d - 1)
    B = dcmp.B.insert_var(d - 1)
    out = LaurentPoly.zero(d)
    for k in exps:
        piece = p.coeff_slice(d - 1, k).insert_var(d - 1, -k)
        out = out + piece * A ** (k + apow) * B ** (bpow - k)
    return out, apow, bpow


def rational_equal(lhs, rhs, dcmp):
    """Equality of (num, apow, bpow) pairs as rational functions in A, B."""
    n1, a1, b1 = lhs
    n2, a2, b2 = rhs
    d = dcmp.dim
    A = dcmp.A.insert_var(d - 1)
    B = dcmp.B.insert_var(d - 1)
    left = n1 * A ** max(0, a2 - a1) * B ** max(0, b2 - b1)
    right = n2 * A ** max(0, a1 - a2) * B ** max(0, b1 - b2)
    return left == right


def gf_series(entry, n_max):
    """Exact Maclaurin coefficients of a catalog entry's stored algebraic closed form."""
    if entry.gf_closed_form is None:
        raise ValueError(f"{entry.name} carries no closed-form generating function")
    p, r, q = entry.gf_closed_form
    order = n_max + 3
    rr = [Fraction(r[k]) if k < len(r) else Fraction(0) for k in range(order)]
    if rr[0] != 1:
        raise ValueError("radicand must have constant term 1")
    s = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for n in range(1, order):
        acc = rr[n]
        for i in range(1, n):
            acc -= s[i] * s[n - i]
        s[n] = acc / 2
    num = [(Fraction(p[k]) if k < len(p) else Fraction(0)) - s[k] for k in range(order)]
    shift = next(i for i, c in enumerate(q) if c != 0)
    if any(num[k] != 0 for k in range(shift)):
        raise ValueError("numerator is not divisible by the denominator monomial")
    c = Fraction(q[shift])
    return [num[k + shift] / c for k in range(n_max + 1)]
