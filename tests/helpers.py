"""Shared test utilities: random model generation, oracles (brute-force counts,
the direct sum of the exact DP's anywhere counts, the shifted-slice DP kernel, the mpmath jets with the numeric substitution
and the engine's explicit formula on them, the operator saddle route, numeric
point selection, numeric folding), and the exact
helpers only tests use (group action, rational equality, closed-form
series), with an exact jet's coefficients read at the working precision."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add

import numpy as np
from hypothesis import strategies as st
from mpmath import mp

from orthantwalks import _dp
from orthantwalks.asympt import PeriodicForm, _Integrand
from orthantwalks.critical import (
    SMOOTH,
    TRANSVERSE,
    ContributingPoint,
    QuadVal,
)
from orthantwalks.fit import PERIOD_CANDIDATES
from orthantwalks.laurent import (
    DEFAULT_PREC_BITS,
    GUARD_BITS,
    Jet,
    LaurentPoly,
    multi_indices,
    to_mp,
)
from orthantwalks.stepset import (
    StepSetError,
    UnsupportedModelError,
    build_stepset,
    classify,
    decompose,
)

WEIGHT_CHOICES = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2)]
# the numeric oracles' own tolerances, fixed whatever the working precision
# (at least 192 bits there): point residuals and the realness of residue sums
ORACLE_RESIDUAL_TOL = mp.mpf(2) ** -160
ORACLE_REALNESS_TOL = mp.mpf(2) ** -100


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


def symmetric_corpus(d, masks):
    """The unit-weight d-dimensional models symmetric over every axis but the
    last: for each bit mask, in order, the union of the chosen reflection
    orbits of {-1,0,1}^d \\ {0} under the sign flips of the first d-1 axes,
    kept when ``build_stepset``, ``classify`` and ``decompose`` accept it."""
    reps = [r + (c,) for r in itertools.product((0, 1), repeat=d - 1) for c in (-1, 0, 1)
            if any(r) or c]
    orbits = [sorted({tuple(s * a for s, a in zip(signs, rep)) + (rep[-1],)
                      for signs in itertools.product((1, -1), repeat=d - 1)})
              for rep in reps]
    corpus = []
    for mask in masks:
        steps = [(v, 1) for i, orbit in enumerate(orbits) if mask >> i & 1 for v in orbit]
        try:
            s = build_stepset(d, steps)
            classify(s)
            decompose(s)
        except (StepSetError, UnsupportedModelError):
            continue
        corpus.append(s)
    return corpus


def symmetric_3d_corpus():
    """Every unit-weight 3D model symmetric over x and y: each nonempty union
    of the 11 reflection orbits, in the order of its bit mask."""
    return symmetric_corpus(3, range(1, 2**11))


def brute_force_endpoints(steps, n_max, dim):
    """Oracle: the endpoint weights {position: total weight} after 0..n_max steps.

    ``steps`` is a list of (vector, weight); steps leaving the orthant are dropped.
    """
    frontier = {(0,) * dim: Fraction(1)}
    yield frontier
    for _ in range(n_max):
        nxt = {}
        for pos, w in frontier.items():
            for v, wv in steps:
                q = tuple(p + c for p, c in zip(pos, v))
                if any(c < 0 for c in q):
                    continue
                nxt[q] = nxt.get(q, Fraction(0)) + w * wv
        frontier = nxt
        yield frontier


def brute_force_counts(steps, n_max, dim, endpoint=None, axes=None):
    """Oracle: direct recursive enumeration of orthant paths, no DP reuse.

    ``steps`` is a list of (vector, weight).  Returns the list s_0..s_{n_max}
    of total weights of paths whose endpoint satisfies the filter:
    everything, exact ``endpoint``, or zero on every axis in ``axes``.
    """
    totals = []
    for frontier in brute_force_endpoints(steps, n_max, dim):
        tot = Fraction(0)
        for pos, w in frontier.items():
            if endpoint is not None and pos != tuple(endpoint):
                continue
            if axes is not None and any(pos[j] != 0 for j in axes):
                continue
            tot += w
        totals.append(tot)
    return totals


class SlicePart:
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


def direct_anywhere_counts(s, n_max):
    """Oracle for ``count_walks(s, n_max)``: the exact counts s_0..s_n_max of
    the walks ending anywhere, as the sum of every cell of every part of the
    exact DP pass to the horizon n_max, on the weights scaled to integers."""
    denom = math.lcm(*(w.denominator for _, w in s.steps))
    vectors, weights = [v for v, _ in s.steps], [int(w * denom) for _, w in s.steps]
    read = _dp.totals_reader([()])
    return [Fraction(read(state)[0], denom**n)
            for n, state in enumerate(_dp.evolve(vectors, weights, n_max, object))]


def slice_evolve(vectors, weights, n_max, dtype):
    """Oracle for ``_dp.evolve``: the state after 0, 1, ..., n_max steps, by
    shifted slices of one array per part.

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
            parts[axes] = SlicePart(axes, vectors, weights, extent, dtype)
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


class MpcJet:
    """Oracle: the truncated Taylor jet of ``laurent.Jet`` in mpmath complex
    numbers, as the engine computed before its jets became exact.

    Coefficients are Taylor coefficients (derivative / factorial), rounded
    at the caller's working precision by every operation.  Multi-indices are
    trusted, not re-checked.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim, order, coeffs=None):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.dim = dim
        self.order = order
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if sum(e) <= order and c != 0}

    @classmethod
    def const(cls, dim, order, value):
        return cls(dim, order, {(0,) * dim: to_mp(value) + mp.mpc(0)})

    def coefficient(self, expo):
        return self.coeffs.get(tuple(expo), mp.mpc(0))

    def constant_term(self):
        return self.coefficient((0,) * self.dim)

    def _like(self, coeffs, order=None):
        return MpcJet(self.dim, self.order if order is None else order, coeffs)

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, MpcJet):
            c = to_mp(other)
            return self._like({e: v * c for e, v in self.coeffs.items()})
        if self.dim != other.dim:
            raise ValueError("jet dimension mismatch")
        order = min(self.order, other.order)
        # the right factor by total degree, so each row stops at the order
        right = sorted(((sum(e), e, c) for e, c in other.coeffs.items()),
                       key=lambda t: t[0])
        out = {}
        for e1, c1 in self.coeffs.items():
            room = order - sum(e1)
            for d2, e2, c2 in right:
                if d2 > room:
                    break
                e = tuple(map(add, e1, e2))
                p = c1 * c2
                out[e] = out[e] + p if e in out else p
        return self._like(out, order)

    __rmul__ = __mul__

    def _by_degree(self, x0, weight, plus_self=False):
        """Solve X_0 = x0, X_D = p_D + sum_{0<i<=D} weight(i, D) (f_i X_{D-i})_D
        for D = 1..order, f_i the degree-i part of this jet and p_D = f_D if
        ``plus_self`` else 0: one triangular product in all."""
        f = [{} for _ in range(self.order + 1)]
        for e, c in self.coeffs.items():
            if any(e):
                f[sum(e)][e] = c
        parts = [{(0,) * self.dim: x0}]
        for deg in range(1, self.order + 1):
            acc = dict(f[deg]) if plus_self else {}
            for i in range(1, deg + 1):
                w = weight(i, deg)
                for e1, c1 in f[i].items():
                    c1 = c1 * w
                    for e2, c2 in parts[deg - i].items():
                        e = tuple(map(add, e1, e2))
                        acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
            parts.append(acc)
        return self._like({e: c for part in parts for e, c in part.items()})

    def reciprocal(self):
        """1/f for a jet with nonzero constant term: f R = 1 degree by degree."""
        if self.constant_term() == 0:
            raise ZeroDivisionError("jet has zero constant term")
        r0 = 1 / self.constant_term()
        return self._by_degree(r0, lambda i, deg: -r0)

    def log(self):
        """Principal log of a jet with nonzero constant term.

        For f = c0 (1 + g), L = log(1 + g) solves E L = E g - g E L, E the
        Euler operator (a term of degree D times D), so
        L_D = g_D - sum_{0<i<D} ((D-i)/D) (g_i L_{D-i})_D.
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise ZeroDivisionError("jet has zero constant term")
        return (self * (1 / c0))._by_degree(
            mp.log(c0), lambda i, deg: mp.mpf(i - deg) / deg, plus_self=True)


def jet_coefficient(jet, expo):
    """A ``laurent.Jet``'s coefficient at ``expo`` at the working precision:
    i^{|e|} times its exact ``value``."""
    expo = tuple(expo)
    return jet.value(expo).to_mp() * (1, 1j, -1, -1j)[sum(expo) % 4]


def jet_constant_term(jet):
    """A ``laurent.Jet``'s constant term at the working precision."""
    return jet_coefficient(jet, (0,) * jet.dim)


def jet_truncated(jet, order):
    """A ``laurent.Jet``'s terms to degree ``order``, at most its own order."""
    if order > jet.order:
        raise ValueError(f"a jet of order {jet.order} does not know degree {order}")
    return Jet(jet.dim, order, jet.coeffs, jet.r, jet.scale, jet.base)


def var_exponents(p, var):
    """The sorted exponents of z_var in the support of the ``LaurentPoly`` p."""
    return sorted({e[var] for e in p.terms})


def numeric_jet_of_exponential_substitution(p, center, order, prec=DEFAULT_PREC_BITS):
    """Oracle: the substitution jet of ``laurent.jet_of_exponential_substitution``
    evaluated numerically at an mpmath centre, as before that routine took
    exact centres.

    Uses exp(i<e,theta>) = prod_j exp(i e_j theta_j), whose Taylor coefficient
    at multi-index m is prod_j (i e_j)^{m_j} / m_j!.  Evaluated at
    ``prec + GUARD_BITS`` bits whatever the working precision; coefficients
    that vanish exactly come out as rounding noise.
    """
    d = p.dim
    with mp.workprec(prec + GUARD_BITS):
        coords = [to_mp(c) for c in center]
        factorials = [mp.mpf(1)]
        for k in range(1, order + 1):
            factorials.append(factorials[-1] * k)
        indices = list(multi_indices(d, order))
        out = {}
        for expo, coeff in p.terms.items():
            scale = to_mp(coeff)
            for c, e in zip(coords, expo):
                scale *= c ** e
            taylor = [[mp.mpc(0, e) ** k / factorials[k] for k in range(order + 1)]
                      for e in expo]
            for m in indices:
                if any(mj and not e for mj, e in zip(m, expo)):
                    continue
                val = scale
                for j, mj in enumerate(m):
                    if mj:
                        val *= taylor[j][mj]
                out[m] = out.get(m, mp.mpc(0)) + val
        return MpcJet(d, order, out)


def numeric_saddle_jets(s, point, variant, phase_order, amplitude_order, prec=DEFAULT_PREC_BITS):
    """Oracle: the amplitude jet, the phase jet and its diagonal Hessian
    entries of ``asympt._Integrand.jets`` as ``MpcJet``s, from the numeric
    substitution at the rounded centre; shares only the plan's polynomials
    with the engine."""
    f = _Integrand(s, variant)
    with mp.workprec(prec + GUARD_BITS):
        w = point.w[:f.dim]
        sj = numeric_jet_of_exponential_substitution(f.phase, w, phase_order, prec)
        g = -((sj * (1 / sj.constant_term())).log())
        d = f.dim
        lam = [2 * g.coefficient(tuple(2 * (j == a) for j in range(d))) for a in range(d)]
        u = numeric_jet_of_exponential_substitution(f.num, w, amplitude_order, prec)
        for den in f.dens:
            u = u * numeric_jet_of_exponential_substitution(den, w, amplitude_order,
                                                            prec).reciprocal()
        return u, g, lam


def numeric_saddle_coefficients(s, point, N, variant=(), prec=DEFAULT_PREC_BITS):
    """Oracle: ``asympt.smooth_contribution``'s coefficients by the engine's
    explicit formula in ``MpcJet`` arithmetic, as before the exact jets."""
    u, g, lam = numeric_saddle_jets(s, point, variant, 2 * N, 2 * (N - 1), prec)
    with mp.workprec(prec + GUARD_BITS):
        d = g.dim
        u_terms = [(e, sum(e), tuple(x & 1 for x in e), c) for e, c in u.coeffs.items()
                   if sum(e) <= 2 * (N - 1)]
        gU = MpcJet(d, 2 * N, {e: c for e, c in g.coeffs.items() if sum(e) >= 3})
        weight = [[mp.factorial(2 * j) / (mp.factorial(j) * l**j) for j in range(3 * N)]
                  for l in lam]
        totals = [mp.mpc(0)] * N
        power = MpcJet.const(d, 0, 1)  # gU^0
        for l in range(2 * N - 1):
            if l:
                top = 2 * (N - 1 + l)
                power = MpcJet(d, top, power.coeffs) * MpcJet(d, top, gU.coeffs)
            partners = {}
            for e, c in power.coeffs.items():
                partners.setdefault((sum(e), tuple(x & 1 for x in e)), []).append((e, c))
            for k in range((l + 1) // 2, N):
                m = k + l
                f = {}  # b -> Taylor coefficient of u gU^l at 2b
                for e1, deg1, par1, c1 in u_terms:
                    for e2, c2 in partners.get((2 * m - deg1, par1), ()):
                        b = tuple((x + y) >> 1 for x, y in zip(e1, e2))
                        f[b] = f.get(b, 0) + c1 * c2
                total = mp.mpc(0)
                for b, v in f.items():
                    for a, ba in enumerate(b):
                        v *= weight[a][ba]
                    total += v
                totals[k] += (-1) ** l * total / (2 ** m * mp.factorial(l))
        pref = (2 * mp.pi) ** (-mp.mpf(d) / 2)
        for l in lam:
            pref = pref / mp.sqrt(l)
        return [pref * t for t in totals]


def operator_saddle_coefficients(s, point, N, variant=(), prec=192):
    """Oracle: the depth-N saddle coefficients by the operator route.

    Builds every jet to degree 6(N-1) and applies H = -sum_a lam_a^{-1} d_a^2
    k+l times to the full jet u gU^l before reading its constant term, for
    L_k = sum_{l <= 2k} H^{k+l}(u gU^l)(0) / ((-1)^k 2^{k+l} l! (k+l)!).
    Shares only ``asympt._Integrand``'s polynomials with the engine: its
    jets are ``MpcJet``s from the numeric substitution.
    """
    wp = prec + GUARD_BITS
    order = max(2, 6 * (N - 1))
    with mp.workprec(wp):
        u, g, lam = numeric_saddle_jets(s, point, variant, order, order, prec)
        d = g.dim

        def H(jet):
            out = {}
            for a, la in enumerate(lam):
                for e, c in jet.coeffs.items():
                    if e[a] >= 2:
                        f = e[:a] + (e[a] - 2,) + e[a + 1:]
                        out[f] = out.get(f, mp.mpc(0)) - c * e[a] * (e[a] - 1) / la
            return MpcJet(d, jet.order - 2, out)

        gU = MpcJet(d, order, {e: c for e, c in g.coeffs.items() if sum(e) >= 3})
        gU_pows = [MpcJet.const(d, order, 1)]
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


def numeric_sign_vector_points(s, crossing, prec=DEFAULT_PREC_BITS):
    """Oracle: contributing points selected numerically, as before the exact
    identities of ``critical._sign_vector_points``.

    Off the crossing a sign vector is kept when |B(w)/A(w)| matches the
    positive point, and each drift root when Sbar(w) is not numerically zero
    and |t| matches the positive point's within ORACLE_RESIDUAL_TOL; at the
    crossing when |S(w,1)| = S(1).  Every kept point must also have gradient
    residuals of Sbar below ORACLE_RESIDUAL_TOL.  The kept points are built
    as the same exact records.
    """
    dcmp = decompose(s)
    d = s.dim
    ones = (1,) * (d - 1)
    q_ref = Fraction(dcmp.B.eval(ones), dcmp.A.eval(ones))
    sbar = s.sbar_poly()
    gradients = [sbar.deriv(j) for j in range(d - 1 if crossing else d)]
    out = []
    with mp.workprec(prec + GUARD_BITS):
        tol = ORACLE_RESIDUAL_TOL
        t_ref = None  # |t| at the positive point, which is the first candidate
        for signs in itertools.product((1, -1), repeat=d - 1):
            aw, qw, bw = (p.eval(signs) for p in (dcmp.A, dcmp.Q, dcmp.B))
            prod = math.prod(signs)
            drifts = []
            if crossing:
                sw = aw + qw + bw
                if abs(sw) == dcmp.total_weight:
                    drifts.append((0, mp.mpc(1), Fraction(1),
                                   QuadVal(sw, Fraction(0), Fraction(0))))
            elif aw != 0 and bw != 0 and abs(Fraction(bw, aw)) == abs(q_ref):
                q = Fraction(bw, aw)
                wd0 = QuadVal(Fraction(0), Fraction(1), q).to_mp()
                sign_a = 1 if aw > 0 else -1
                for nu, root in ((0, 1), (2, -1)):
                    wd = root * wd0
                    sval = wd * to_mp(aw) + to_mp(qw) + to_mp(bw) / wd
                    if abs(sval) < tol:
                        continue
                    t = 1 / (prod * wd * sval)
                    t_ref = abs(t) if t_ref is None else t_ref
                    if abs(abs(t) - t_ref) > tol:
                        continue
                    drifts.append((nu, wd, q, QuadVal(qw, Fraction(2 * sign_a * root),
                                                      Fraction(aw * bw))))
            for nu, wd, wd_squared, rate in drifts:
                point = signs + (wd,)
                if any(abs(g.eval(point)) > tol for g in gradients):
                    continue
                stratum = TRANSVERSE if wd_squared == 1 and nu == 0 else SMOOTH
                out.append(ContributingPoint(stratum, nu, signs, wd_squared, rate, crossing))
    out.sort(key=lambda p: (p.w_signs, p.nu), reverse=True)
    return out


def numeric_fold(terms, base_alpha, rate_mod_exact, prec):
    """Oracle: the periodic normal form found numerically, as before
    ``asympt._fold`` read exact units.

    Keeps the terms whose |rate| is the largest within a tolerance, snaps each
    rate/|rate| to the nearest of 1, -1, i, -i within 2^-(prec/2), and takes
    the first of the fitter's ``PERIOD_CANDIDATES`` p with omega^p = 1 within
    2^-(prec/3) whose residue sums are real.
    """
    def lead_index(t, tol):
        for k, c in enumerate(t.coefficients):
            if abs(c) > tol:
                return k
        return None

    with mp.workprec(prec + GUARD_BITS):
        # floored at 1: when every coefficient is rounding noise, the largest
        # of them must not set the scale that decides what counts as zero
        tol_scale = max([max(abs(c) for c in t.coefficients) for t in terms
                         if t.coefficients] + [mp.mpf(1)])
        tol = tol_scale * mp.mpf(2) ** (-(prec // 2))
        k0 = None
        for t in terms:
            lead = lead_index(t, tol)
            if lead is not None:
                k0 = lead if k0 is None else min(k0, lead)
        if k0 is None:
            return None
        rates = [t.rate_exact.to_mp() for t in terms]
        rate_mod = max(abs(r) for r in rates)
        live = []
        for t, rate in zip(terms, rates):
            if abs(abs(rate) - rate_mod) > tol:
                continue
            v = t.coefficients[k0] if k0 < len(t.coefficients) else mp.mpc(0)
            if abs(v) <= tol:
                continue
            omega = rate / rate_mod
            # snap to the nearest root of unity of small order for exact powers
            for cand in (mp.mpc(1), mp.mpc(-1), mp.mpc(0, 1), mp.mpc(0, -1)):
                if abs(omega - cand) < mp.mpf(2) ** (-(prec // 2)):
                    omega = cand
                    break
            live.append((omega, v))
        if not live:
            return None
        period = None
        for p in PERIOD_CANDIDATES:
            if all(abs(om**p - 1) < mp.mpf(2) ** (-(prec // 3)) for om, _ in live):
                consts = []
                ok = True
                for r in range(p):
                    tot = mp.mpc(0)
                    for om, v in live:
                        tot += v * om**r
                    if abs(mp.im(tot)) > ORACLE_REALNESS_TOL * max(1, abs(tot)):
                        ok = False
                        break
                    consts.append(mp.re(tot))
                if ok:
                    period = p
                    break
        if period is None:
            return None
        return PeriodicForm(period, consts, base_alpha - k0, rate_mod, rate_mod_exact)


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
    exps = var_exponents(p, d - 1)
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


# algebraic generating functions F = (p(t) - sqrt(r(t))) / q(t) of catalog
# entries, by entry name, as coefficient lists (p, r, q) in increasing degree
GF_CLOSED_FORMS = {
    "N,W,SE": ((1, -1), (1, -2, -3), (0, 0, 2)),
    "NW,SE,N,S,E,W": ((1, -2), (1, -4, -12), (0, 0, 8)),
}


def gf_series(entry, n_max):
    """Exact Maclaurin coefficients of a catalog entry's algebraic closed form."""
    if entry.name not in GF_CLOSED_FORMS:
        raise ValueError(f"{entry.name} carries no closed-form generating function")
    p, r, q = GF_CLOSED_FORMS[entry.name]
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
