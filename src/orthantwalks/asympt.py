"""Coefficient asymptotics for orthant walks.

Two routes produce (rate, polynomial order, per-residue constants):

* closed forms for the three drift classes (fully symmetric, one-axis
  positive drift, one-axis negative drift);
* one saddle engine that expands the phase and amplitude as high-precision
  jets at the point's exact coordinates (so vanishing Taylor coefficients are
  exact zeros), each only to the degree it is read, and sums Hörmander's
  explicit formula to any depth (for the diagonal Hessian it reads u gU^l
  only at even multi-indices).  One constructor, ``_integrand``, gives each
  point's exact phase and amplitude polynomials: the one-factor form for fully
  symmetric models; the kernel sheet, in z_1..z_d, for smooth points; and at the
  crossing points, where the sheet meets the pole {z_d = 1}, the residue
  there, leaving a smooth integral in z_1..z_{d-1}.

The leading-order crossing formula ``transverse_contribution`` is kept only
as an independent check on the engine.

``asympt_full`` decides once whether the crossing applies: positive drift
with the drift axis left free.  Then it expands the crossing points, and
otherwise the smooth-sheet points, both chosen exactly by ``critical``; the
base exponent is read off the terms.  Every output is folded into a periodic
normal form with real per-residue constants, which is what verification
compares.  The fold reads exact zeros and exact units: the leading index is
the first with a nonzero coefficient, each rate is 1, -1, i or -i
(``QuadVal.unit``, decided exactly) times one shared modulus, and the period
is the order of the units of the leading terms.  The folded rate is that of
the first term with unit 1: the principal point for the engine, the first
term for the closed forms.  Neither route checks support itself:
``stepset.decompose`` refuses unsupported models.

``asympt_full`` and ``asympt_closed`` each set the one working precision,
``prec + GUARD_BITS``; everything else here runs at the precision it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from orthantwalks.critical import (
    SMOOTH,
    TRANSVERSE,
    ContributingPoint,
    contributing_points,
    smooth_sheet_points,
)
from orthantwalks.kernel import diag_kernel
from orthantwalks.laurent import (
    DEFAULT_PREC_BITS,
    GUARD_BITS,
    Jet,
    LaurentPoly,
    QuadVal,
    jet_of_exponential_substitution,
    to_mp,
)
from orthantwalks.stepset import (
    HIGHLY_SYMMETRIC,
    StepSet,
    classify,
    decompose,
)
from orthantwalks.enumeration import normalize_filter


@dataclass
class ContributionTerm:
    """One singularity's asymptotic contribution.

    Represents rate^n * n^alpha * (c_0 + c_1/n + ... + c_{N-1}/n^{N-1});
    ``coefficients`` holds c_k as high-precision complex numbers, so N is
    their number.  The rate is exact; ``rate`` gives it at the caller's
    working precision.
    """

    point: object
    rate_exact: QuadVal
    alpha: Fraction
    coefficients: list

    @property
    def rate(self):
        return self.rate_exact.to_mp()


@dataclass
class PeriodicForm:
    period: int
    constants: list  # per-residue leading constants (mpf), length = period
    alpha: Fraction  # effective exponent of n for the leading constants
    rate_modulus: object  # mpf
    rate_modulus_exact: str


@dataclass
class AsymptoticExpansion:
    terms: list
    alpha: Fraction  # base exponent shared by the terms
    periodic: PeriodicForm | None
    partial: bool = False
    route: str = ""
    notes: tuple = ()


# ------------------------------------------------------------ jet machinery

def _phase_jets(poly, center, order):
    """The log-phase jet of ``poly`` at the exact ``center`` and its diagonal
    Hessian entries.  At a contributing point each symmetric axis pairs every
    phase term with its reflection and the drift coordinate is critical, so
    the jet has no first-order or mixed second-order key; every phase term has
    one argument there, so each entry is a positive real."""
    sj = jet_of_exponential_substitution(poly, center, order)
    g = -((sj * (1 / sj.constant_term())).log())
    d = poly.dim
    lam = [2 * g.coefficient(tuple(2 * (j == a) for j in range(d))) for a in range(d)]
    return g, lam


def _saddle_coefficients(u, g, lam, N):
    """c_k = (2 pi)^{-d/2} det(g'')^{-1/2} L_k for k < N.

    Hörmander's explicit formula: with gU the phase g minus its quadratic
    part and H = -sum_a lam_a^{-1} d_a^2,
    L_k = sum_{l <= 2k} H^{k+l}(u gU^l)(0) / ((-1)^k 2^{k+l} l! (k+l)!), and
    for the diagonal Hessian
    H^m f(0) = (-1)^m m! sum_{|b| = m} prod_a (2 b_a)! / (b_a! lam_a^{b_a}) f_{2b},
    f_{2b} the Taylor coefficient at the multi-index 2b.  So L_k reads u to
    degree 2k and gU^l only at degrees 3l..2(k+l): u is needed to degree
    2(N-1), g to degree 2N, and gU^l to degree 2(N-1+l).

    The determinant root is the product of principal square roots of the
    diagonal Hessian entries, which is the branch the saddle-point theorem
    prescribes for minimal points (each entry has non-negative real part).
    """
    if g.order < 2 * N or u.order < 2 * (N - 1):
        raise ValueError(f"depth {N} needs the phase jet to degree {2 * N} "
                         f"and the amplitude jet to degree {2 * (N - 1)}")
    d = g.dim
    u_terms = [(e, sum(e), tuple(x & 1 for x in e), c) for e, c in u.coeffs.items()
               if sum(e) <= 2 * (N - 1)]
    gU = Jet(d, 2 * N, {e: c for e, c in g.coeffs.items() if sum(e) >= 3})
    weight = [[mp.factorial(2 * j) / (mp.factorial(j) * l**j) for j in range(3 * N)]
              for l in lam]
    totals = [mp.mpc(0)] * N
    power = Jet.const(d, 0, 1)  # gU^0
    for l in range(2 * N - 1):
        if l:
            # gU^l to degree 2(N-1+l); its l factors each have degree >= 3,
            # so the degrees of gU^(l-1) and gU left out cannot reach it
            top = 2 * (N - 1 + l)
            power = Jet(d, top, power.coeffs) * Jet(d, top, gU.coeffs)
        # a term of u pairs with the terms of gU^l that complete it to an
        # even multi-index 2b of the degree H^m reads
        partners = {}
        for e, c in power.coeffs.items():
            partners.setdefault((sum(e), tuple(x & 1 for x in e)), []).append((e, c))
        for k in range((l + 1) // 2, N):
            m = k + l
            f = {}  # b -> Taylor coefficient of u gU^l at 2b
            for e1, deg1, par1, c1 in u_terms:
                for e2, c2 in partners.get((2 * m - deg1, par1), ()):
                    b = tuple((x + y) >> 1 for x, y in zip(e1, e2))
                    p = c1 * c2
                    f[b] = f[b] + p if b in f else p
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


# --------------------------------------------------- point-level expansions

def _integrand(s, point, variant):
    """The integrand at one contributing point: its phase polynomial, the
    exact centre of the expansion, one exact amplitude numerator and a list of
    amplitude denominator factors.

    Fully symmetric models use the one-factor form: phase S, amplitude
    prod_j (1+z_j).  A crossing point (stratum TRANSVERSE) is expanded after
    the residue at z_d = 1, in z_1..z_{d-1}: phase S(z', 1) = A + Q + B,
    amplitude prod_{j<d} (1+z_j) (B - A) / B.  Every other point lies on the
    kernel sheet of the three-factor form: phase Sbar, amplitude
    prod_{j<d} (1+z_j) (B - z_d^2 A) / (B (1-z_d)).  Each axis in ``variant``
    adds a factor (1 - z_j); on the kernel sheet the drift-axis one cancels
    1/(1-z_d).  Denominator factors stay apart: each one's jet is sparse, so
    its reciprocal is cheap.
    """
    d = s.dim
    dcmp = decompose(s)
    symmetric = classify(s).kind == HIGHLY_SYMMETRIC
    residue = not symmetric and point.stratum == TRANSVERSE
    dim = d - 1 if residue else d
    num = LaurentPoly.const(dim, 1)
    for j in range(d if symmetric else d - 1):
        num = num * (1 + LaurentPoly.variable(dim, j))
    for j in variant:
        if symmetric or residue or j != d - 1:
            num = num * (1 - LaurentPoly.variable(dim, j))
    center = point.exact_w()
    if symmetric:
        return s.char_poly(), center, num, []
    if residue:
        return dcmp.A + dcmp.Q + dcmp.B, center[:d - 1], num * (dcmp.B - dcmp.A), [dcmp.B]
    A, B = dcmp.A.insert_var(d - 1), dcmp.B.insert_var(d - 1)
    dens = [B] if d - 1 in variant else [B, 1 - LaurentPoly.variable(d, d - 1)]
    return s.sbar_poly(), center, num * (B - LaurentPoly.variable(d, d - 1, 2) * A), dens


def _saddle_jets(s, point, variant, phase_order, amplitude_order):
    """Amplitude jet u, phase jet g and diagonal Hessian entries of
    ``_integrand`` at one contributing point, to the given degrees, at the
    working precision the caller has set."""
    phase, center, num, dens = _integrand(s, point, tuple(variant))
    g, lam = _phase_jets(phase, center, phase_order)
    u = jet_of_exponential_substitution(num, center, amplitude_order)
    for den in dens:
        u = u * jet_of_exponential_substitution(den, center, amplitude_order).reciprocal()
    return u, g, lam


def smooth_contribution(s: StepSet, point: ContributingPoint, N=2,
                        numerator_variant=()) -> ContributionTerm:
    """Depth-N saddle expansion at one contributing point, at the caller's
    working precision (``asympt_full`` sets it once for all its points).

    ``numerator_variant`` is a set of canonical axes carrying boundary factors
    (1 - z_j).  The expansion form follows the model and the point (see
    ``_integrand``).  Coefficients are reported against n^{-m/2 - k}, m the
    number of integration variables (d, or d-1 after the residue at a
    crossing point).
    """
    if N < 1:
        raise ValueError(f"expansion depth N must be at least 1, got {N}")
    # each jet only to the degree _saddle_coefficients reads
    u, g, lam = _saddle_jets(s, point, numerator_variant, 2 * N, 2 * (N - 1))
    return ContributionTerm(point, point.rate_exact, Fraction(-g.dim, 2),
                            _saddle_coefficients(u, g, lam, N))


def transverse_contribution(s: StepSet, point: ContributingPoint,
                            numerator_variant=()) -> ContributionTerm:
    """Leading-order contribution at a crossing point (kernel sheet meeting
    {z_d=1}) from the closed crossing formula; a zero coefficient where the
    effective numerator vanishes there.  Kept as an independent check on the
    residue expansion of ``smooth_contribution``."""
    if point.stratum != TRANSVERSE:
        raise ValueError("transverse_contribution requires a crossing point")
    d = s.dim
    dcmp = decompose(s)
    kern = diag_kernel(s)
    coords = point.coords()
    geff = kern.G.eval(coords) / kern.H2.eval(coords)
    for j in numerator_variant:
        geff *= 1 - coords[j]
    if abs(geff) < mp.mpf(2) ** (-mp.prec // 2):
        geff = mp.mpc(0)  # the effective numerator vanishes here
    det_gamma = math.prod(point.w_signs)
    sval = point.rate_exact.rat  # S(w, 1), exact
    hess_root = mp.mpf(1)
    for j in range(d - 1):
        bj = dcmp.eval_Bk(j, coords[:d])
        entry = 2 * to_mp(point.w_signs[j]) * to_mp(bj) / ((d + 1) * to_mp(sval))
        hess_root *= mp.sqrt(entry)
    c0 = (2 * mp.pi) ** (-mp.mpf(d - 1) / 2) * (d + 1) ** (-mp.mpf(d - 1) / 2)
    c0 = c0 * geff / (det_gamma * hess_root)
    return ContributionTerm(point, point.rate_exact, Fraction(-(d - 1), 2), [c0])


def negative_drift_closed_constant(s: StepSet, point: ContributingPoint):
    """Closed-form (K_p, C_p) for a smooth point; K_p C_p is the n^{-d/2-1}
    leading coefficient, matching the depth-2 engine."""
    if point.stratum != SMOOTH:
        raise ValueError("closed constants require a smooth-sheet point")
    d = s.dim
    dcmp = decompose(s)
    w = point.w
    pd = w[d - 1]  # not 1: the stratum is decided exactly, and 1 is the crossing
    sbar = point.rate()
    bks = [to_mp(dcmp.eval_Bk(j, w)) for j in range(d - 1)]
    bd = to_mp(dcmp.eval_B(w))
    lam = [2 * w[j] * bks[j] / sbar for j in range(d - 1)] + [2 * bd / (pd * sbar)]
    kp = (2 * mp.pi) ** (-mp.mpf(d) / 2)
    for l in lam:
        kp = kp / mp.sqrt(l)
    aval = to_mp(dcmp.eval_A(w))
    bracket = 1 / (aval * pd * (1 - pd))
    for j in range(d - 1):
        apj, bpj, _, _ = dcmp.ABprime[j]
        zhat = tuple(c for i, c in enumerate(w[: d - 1]) if i != j)
        apv, bpv = to_mp(apj.eval(zhat)), to_mp(bpj.eval(zhat))
        bracket += (1 - w[j]) / (2 * w[j] * bks[j]) * (apv / aval - bpv / bd)
    front = sbar
    for j in range(d - 1):
        front *= 1 + w[j]
    front = front / (1 - pd)
    return kp, front * bracket


# ------------------------------------------------------------------ folding

def _fold(terms, base_alpha):
    """Fold contribution terms into the periodic normal form at leading order.

    The leading index is the first with a nonzero coefficient (the engine's
    zeros are exact).  Every rate is an exact unit (1, -1, i or -i) times one
    shared modulus, so the period is the order of the units of the terms that
    lead: 4 if any is +-i, 2 if any is -1, else 1.  No fold when a leading
    term's rate has no unit or a residue sum is not real (conjugate points are
    summed numerically, so that test keeps a tolerance).
    """
    k0 = min((k for t in terms for k, c in enumerate(t.coefficients) if c != 0),
             default=None)
    if k0 is None:
        return None
    live = [(t.rate_exact.unit(), t.coefficients[k0]) for t in terms
            if k0 < len(t.coefficients) and t.coefficients[k0] != 0]
    units = {u for u, _ in live}
    if None in units:
        return None
    period = 4 if units & {1j, -1j} else 2 if -1 in units else 1
    consts = []
    for r in range(period):
        tot = mp.mpc(0)
        for u, v in live:
            tot += v * mp.mpc(u) ** r
        if abs(mp.im(tot)) > mp.mpf(2) ** -100 * max(1, abs(tot)):
            return None
        consts.append(mp.re(tot))
    ref = next(t for t in terms if t.rate_exact.unit() == 1)
    return PeriodicForm(period, consts, base_alpha - k0, abs(ref.rate), str(ref.rate_exact))


# ------------------------------------------------------------- closed forms

def asympt_closed(s: StepSet, prec=DEFAULT_PREC_BITS) -> AsymptoticExpansion:
    """Closed-form leading asymptotics from the drift-class theorems."""
    cls = classify(s)
    d = s.dim
    dcmp = decompose(s)
    ones = (1,) * (d - 1)
    a1, b1, q1 = dcmp.A.eval(ones), dcmp.B.eval(ones), dcmp.Q.eval(ones)
    s1 = s.total_weight()
    with mp.workprec(prec + GUARD_BITS):
        if cls.kind == HIGHLY_SYMMETRIC or cls.drift_sign > 0:
            if cls.kind == HIGHLY_SYMMETRIC:
                alpha = Fraction(-d, 2)
                c0 = mp.pi ** (-mp.mpf(d) / 2) * to_mp(s1) ** (mp.mpf(d) / 2)
                prod = to_mp(a1)
            else:
                alpha = Fraction(-(d - 1), 2)
                c0 = (1 - to_mp(a1) / to_mp(b1)) * (to_mp(s1) / mp.pi) ** (mp.mpf(d - 1) / 2)
                prod = mp.mpf(1)
            for b in dcmp.b_scalars:
                prod *= to_mp(b)
            terms = [ContributionTerm(None, QuadVal(s1, Fraction(0), Fraction(0)),
                                      alpha, [c0 / mp.sqrt(prod)])]
        else:
            alpha = Fraction(-d, 2) - 1
            rho = mp.sqrt(to_mp(a1) / to_mp(b1))

            def c_of(r):
                s_at = to_mp(a1) / r + to_mp(q1) + r * to_mp(b1)
                val = s_at * r / (2 * mp.pi ** (mp.mpf(d) / 2) * to_mp(a1) * (1 - 1 / r) ** 2)
                inner = s_at**d / (r * to_mp(b1))
                for bp in dcmp.b_polys:
                    inner = inner / bp.eval((1,) * (d - 2) + (r,))
                return val * mp.sqrt(inner)

            # the point at -rho contributes only when Q = 0 (then |Sbar| matches there)
            terms = [ContributionTerm(None, QuadVal(q1, Fraction(2 * r), Fraction(a1 * b1)),
                                      alpha, [c_of(r * rho)])
                     for r in ((1, -1) if dcmp.Q.is_zero() else (1,))]
        return AsymptoticExpansion(terms, alpha, _fold(terms, alpha), partial=False,
                                   route="closed")


# ------------------------------------------------------------ full pipeline

def default_depth(s: StepSet, variant):
    drift_axis = s.dim - 1
    return 2 + len([j for j in variant if j != drift_axis])


def asympt_full(s: StepSet, flt="anywhere", N=None, prec=DEFAULT_PREC_BITS
                ) -> AsymptoticExpansion:
    """Sum point contributions for the requested endpoint filter and fold.

    The filter is given in user axes; it is translated to canonical axes
    internally.  Zero-drift models must be fully symmetric; they are handled
    through the one-factor symmetric representation, which keeps every
    contributing point on a smooth sheet for any filter.  The folded rate
    string is the exact rate of the principal point; unsupported models are
    refused by ``decompose`` when the points are sought.
    """
    cls = classify(s)
    variant = s.canonical_variant(normalize_filter(flt, s.dim))
    if N is None:
        N = default_depth(s, variant)
    if N < 1:
        raise ValueError(f"expansion depth N must be at least 1, got {N}")
    # a returning drift axis cancels the crossing factor: smooth sheet only
    crossing = cls.drift_sign > 0 and s.dim - 1 not in variant
    if crossing:
        pts, route = contributing_points(s), "transverse"
    else:
        pts = smooth_sheet_points(s)
        route = "plain-smooth" if cls.kind == HIGHLY_SYMMETRIC else "smooth"
    with mp.workprec(prec + GUARD_BITS):
        terms = [smooth_contribution(s, p, N, variant) for p in pts]
        base_alpha = terms[0].alpha  # -(integration variables)/2, the same for every term
        periodic = _fold(terms, base_alpha)
    notes = () if periodic is not None else ("no nonzero leading coefficient at this expansion depth",)
    return AsymptoticExpansion(terms, base_alpha, periodic, periodic is None, route, notes)
