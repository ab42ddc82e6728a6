"""Coefficient asymptotics for orthant walks.

Two routes produce (rate, polynomial order, per-residue constants):

* closed forms for the three drift classes (fully symmetric, one-axis
  positive drift, one-axis negative drift);
* one saddle engine that expands the phase and amplitude as high-precision
  jets, each only to the degree it is read, and sums Hörmander's explicit
  formula to any depth (for the diagonal Hessian it reads u gU^l only at even
  multi-indices).  Smooth points of the kernel sheet are expanded in
  z_1..z_d; at the crossing points, where the sheet meets the pole {z_d = 1},
  the engine takes the residue there and expands the smooth integral left in
  z_1..z_{d-1}.

The leading-order crossing formula ``transverse_contribution`` is kept only
as an independent check on the engine.

Every engine output is folded into a periodic normal form (smallest period
with real per-residue constants), which is what verification compares.  The
engine takes its points from ``critical`` and reports the exact rate of the
principal one; the closed forms report that of their first term.  Neither
route checks support itself: ``stepset.decompose`` refuses unsupported models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from orthantwalks.critical import (
    SMOOTH,
    TRANSVERSE,
    ContributingPoint,
    QuadVal,
    contributing_points,
    smooth_sheet_points,
)
from orthantwalks.kernel import diag_kernel
from orthantwalks.laurent import (
    DEFAULT_PREC_BITS,
    GUARD_BITS,
    Jet,
    LaurentPoly,
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


class HessianError(ArithmeticError):
    """The phase Hessian is singular at a saddle point."""


@dataclass
class ContributionTerm:
    """One singularity's asymptotic contribution.

    Represents rate^n * n^alpha * (c_0 + c_1/n + ... + c_{N-1}/n^{N-1});
    ``coefficients`` holds c_k as high-precision complex numbers and
    ``order_bound`` is N.
    """

    point: object
    rate: object  # mpc
    rate_exact: QuadVal
    alpha: Fraction
    coefficients: list
    order_bound: int

    def lead_index(self, tol):
        for k, c in enumerate(self.coefficients):
            if abs(c) > tol:
                return k
        return None


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

def _phase_jets(poly, center, order, prec):
    """S-tilde jet, its log-phase, and the diagonal Hessian entries."""
    sj = jet_of_exponential_substitution(poly, center, order, prec)
    s0 = sj.constant_term()
    if abs(s0) == 0:
        raise HessianError("kernel polynomial vanishes at the expansion point")
    g = -((sj * (1 / s0)).log())
    d = poly.dim
    lam = []
    for a in range(d):
        e2 = tuple(2 if j == a else 0 for j in range(d))
        lam.append(2 * g.coefficient(e2))
    for a in range(d):
        for b in range(a + 1, d):
            e = tuple(1 if j in (a, b) else 0 for j in range(d))
            if abs(g.coefficient(e)) > mp.mpf(2) ** (-prec // 2):
                raise HessianError("phase Hessian is not diagonal")
    if any(abs(l) < mp.mpf(2) ** (-prec // 2) for l in lam):
        raise HessianError("phase Hessian is singular")
    return sj, g, lam


def _saddle_coefficients(u, g, lam, N, prec):
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
    with mp.workprec(prec):
        u_terms = [(e, sum(e), tuple(x & 1 for x in e), c) for e, c in u.coeffs.items()
                   if sum(e) <= 2 * (N - 1)]
        gU = Jet(d, 2 * N, {e: c for e, c in g.coeffs.items() if sum(e) >= 3}, prec)
        weight = [[mp.factorial(2 * j) / (mp.factorial(j) * l**j) for j in range(3 * N)]
                  for l in lam]
        totals = [mp.mpc(0)] * N
        power = Jet.const(d, 0, 1, prec)  # gU^0
        for l in range(2 * N - 1):
            if l:
                # gU^l to degree 2(N-1+l); its l factors each have degree >= 3,
                # so the degrees of gU^(l-1) and gU left out cannot reach it
                top = 2 * (N - 1 + l)
                power = Jet(d, top, power.coeffs, prec) * Jet(d, top, gU.coeffs, prec)
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

def _amplitude(dcmp, variant, representation):
    """The amplitude as one exact numerator and a list of denominator factors.

    'plain' (fully symmetric one-factor form): prod_j (1+z_j); 'split' (kernel
    sheet of the three-factor form): prod_{j<d} (1+z_j) (B - z_d^2 A) / (B
    (1-z_d)); 'residue' (split form after the residue at z_d = 1, in
    z_1..z_{d-1}): prod_{j<d} (1+z_j) (B - A) / B.  Each axis in ``variant``
    adds a factor (1 - z_j); on the split form the drift-axis one cancels
    1/(1-z_d).  Denominator factors stay apart: each one's jet is sparse, so
    its reciprocal is cheap.
    """
    d = dcmp.dim
    dim = d - 1 if representation == "residue" else d
    num = LaurentPoly.const(dim, 1)
    for j in range(d if representation == "plain" else d - 1):
        num = num * (1 + LaurentPoly.variable(dim, j))
    for j in variant:
        if not (representation == "split" and j == d - 1):
            num = num * (1 - LaurentPoly.variable(dim, j))
    if representation == "plain":
        return num, []
    if representation == "residue":
        return num * (dcmp.B - dcmp.A), [dcmp.B]
    A, B = dcmp.A.insert_var(d - 1), dcmp.B.insert_var(d - 1)
    dens = [B] if d - 1 in variant else [B, 1 - LaurentPoly.variable(d, d - 1)]
    return num * (B - LaurentPoly.variable(d, d - 1, 2) * A), dens


def _saddle_jets(s, point, variant, phase_order, amplitude_order, prec):
    """Amplitude jet u, phase jet g and diagonal Hessian entries at one
    contributing point, to the given degrees; call at working precision
    ``prec``.

    Fully symmetric models use the one-factor form; a crossing point (stratum
    TRANSVERSE) is expanded after the residue at z_d = 1, in the d-1
    variables z_1..z_{d-1} with phase S(z', 1) = A + Q + B; every other point
    lies on the kernel sheet of the three-factor form.
    """
    d = s.dim
    dcmp = decompose(s)
    if classify(s).kind == HIGHLY_SYMMETRIC:
        representation, phase_poly, center = "plain", s.char_poly(), point.w
    elif point.stratum == TRANSVERSE:
        representation, phase_poly, center = "residue", dcmp.A + dcmp.Q + dcmp.B, point.w[:d - 1]
    else:
        representation, phase_poly, center = "split", s.sbar_poly(), point.w
    _, g, lam = _phase_jets(phase_poly, center, phase_order, prec)
    num, dens = _amplitude(dcmp, tuple(variant), representation)
    u = jet_of_exponential_substitution(num, center, amplitude_order, prec)
    for den in dens:
        u = u * jet_of_exponential_substitution(den, center, amplitude_order, prec).reciprocal()
    return u, g, lam


def smooth_contribution(s: StepSet, point: ContributingPoint, N=2,
                        numerator_variant=(), prec=DEFAULT_PREC_BITS) -> ContributionTerm:
    """Depth-N saddle expansion at one contributing point.

    ``numerator_variant`` is a set of canonical axes carrying boundary factors
    (1 - z_j).  The expansion form follows the model and the point (see
    ``_saddle_jets``).  Coefficients are reported against n^{-m/2 - k}, m the
    number of integration variables (d, or d-1 after the residue at a
    crossing point).
    """
    if N < 1:
        raise ValueError(f"expansion depth N must be at least 1, got {N}")
    wp = prec + GUARD_BITS
    with mp.workprec(wp):
        # each jet only to the degree _saddle_coefficients reads
        u, g, lam = _saddle_jets(s, point, numerator_variant, 2 * N, 2 * (N - 1), wp)
        return ContributionTerm(
            point=point, rate=point.rate(), rate_exact=point.rate_exact,
            alpha=Fraction(-g.dim, 2), coefficients=_saddle_coefficients(u, g, lam, N, wp),
            order_bound=N)


def transverse_contribution(s: StepSet, point: ContributingPoint,
                            numerator_variant=(), prec=DEFAULT_PREC_BITS
                            ) -> ContributionTerm:
    """Leading-order contribution at a crossing point (kernel sheet meeting
    {z_d=1}) from the closed crossing formula; a zero coefficient where the
    effective numerator vanishes there.  Kept as an independent check on the
    residue expansion of ``smooth_contribution``."""
    if point.stratum != TRANSVERSE:
        raise ValueError("transverse_contribution requires a crossing point")
    d = s.dim
    dcmp = decompose(s)
    kern = diag_kernel(s)
    wp = prec + GUARD_BITS
    with mp.workprec(wp):
        coords = point.coords()
        geff = kern.G.eval(coords) / kern.H2.eval(coords)
        for j in numerator_variant:
            geff *= 1 - point.w[j]
        if abs(geff) < mp.mpf(2) ** (-wp // 2):
            geff = mp.mpc(0)  # the effective numerator vanishes here
        det_gamma = 1
        for sg in point.w_signs:
            det_gamma *= sg
        sval = point.rate_exact.rat  # S(w, 1), exact
        hess_root = mp.mpf(1)
        zcoords = point.w
        for j in range(d - 1):
            bj = dcmp.eval_Bk(j, zcoords)
            entry = 2 * to_mp(point.w_signs[j]) * to_mp(bj) / ((d + 1) * to_mp(sval))
            hess_root *= mp.sqrt(entry)
        c0 = (2 * mp.pi) ** (-mp.mpf(d - 1) / 2) * (d + 1) ** (-mp.mpf(d - 1) / 2)
        c0 = c0 * geff / (det_gamma * hess_root)
        return ContributionTerm(
            point=point, rate=point.rate(), rate_exact=point.rate_exact,
            alpha=Fraction(-(d - 1), 2), coefficients=[c0], order_bound=1)


def negative_drift_closed_constant(s: StepSet, point: ContributingPoint,
                                   prec=DEFAULT_PREC_BITS):
    """Closed-form (K_p, C_p) for a smooth point; K_p C_p is the n^{-d/2-1}
    leading coefficient, matching the depth-2 engine."""
    if point.stratum != SMOOTH:
        raise ValueError("closed constants require a smooth-sheet point")
    d = s.dim
    dcmp = decompose(s)
    wp = prec + GUARD_BITS
    with mp.workprec(wp):
        w = point.w
        pd = w[d - 1]
        if abs(pd - 1) < mp.mpf(2) ** (-wp // 2):
            raise ZeroDivisionError("drift coordinate equals 1 (crossing point)")
        sbar = point.rate()
        lam = []
        for j in range(d - 1):
            bj = to_mp(dcmp.eval_Bk(j, w))
            lam.append(2 * w[j] * bj / sbar)
        bd = to_mp(dcmp.eval_B(w))
        lam.append(2 * bd / (pd * sbar))
        kp = (2 * mp.pi) ** (-mp.mpf(d) / 2)
        for l in lam:
            kp = kp / mp.sqrt(l)
        aval = to_mp(dcmp.eval_A(w))
        bracket = 1 / (aval * pd * (1 - pd))
        for j in range(d - 1):
            apj, bpj, _, _ = dcmp.ABprime[j]
            zhat = tuple(c for i, c in enumerate(w[: d - 1]) if i != j)
            apv = to_mp(apj.eval(zhat)) if apj.dim else to_mp(apj.eval(()))
            bpv = to_mp(bpj.eval(zhat)) if bpj.dim else to_mp(bpj.eval(()))
            bj = to_mp(dcmp.eval_Bk(j, w))
            bval = to_mp(dcmp.eval_B(w))
            bracket += (1 - w[j]) / (2 * w[j] * bj) * (apv / aval - bpv / bval)
        front = sbar
        for j in range(d - 1):
            front *= 1 + w[j]
        front = front / (1 - pd)
        return kp, front * bracket


# ------------------------------------------------------------------ folding

FOLD_PERIODS = (1, 2, 3, 4, 6, 8)


def _fold(terms, base_alpha, rate_mod_exact, prec):
    """Fold contribution terms into the periodic normal form at leading order."""
    with mp.workprec(prec + GUARD_BITS):
        # floored at 1: when every coefficient is rounding noise, the largest
        # of them must not set the scale that decides what counts as zero
        tol_scale = max([max(abs(c) for c in t.coefficients) for t in terms
                         if t.coefficients] + [mp.mpf(1)])
        tol = tol_scale * mp.mpf(2) ** (-(prec // 2))
        k0 = None
        for t in terms:
            lead = t.lead_index(tol)
            if lead is not None:
                k0 = lead if k0 is None else min(k0, lead)
        if k0 is None:
            return None
        rate_mod = max(abs(t.rate) for t in terms)
        live = []
        for t in terms:
            if abs(abs(t.rate) - rate_mod) > tol:
                continue
            v = t.coefficients[k0] if k0 < len(t.coefficients) else mp.mpc(0)
            if abs(v) <= tol:
                continue
            omega = t.rate / rate_mod
            # snap to the nearest root of unity of small order for exact powers
            for cand in (mp.mpc(1), mp.mpc(-1), mp.mpc(0, 1), mp.mpc(0, -1)):
                if abs(omega - cand) < mp.mpf(2) ** (-(prec // 2)):
                    omega = cand
                    break
            live.append((omega, v))
        if not live:
            return None
        period = None
        for p in FOLD_PERIODS:
            if all(abs(om**p - 1) < mp.mpf(2) ** (-(prec // 3)) for om, _ in live):
                consts = []
                ok = True
                for r in range(p):
                    tot = mp.mpc(0)
                    for om, v in live:
                        tot += v * om**r
                    if abs(mp.im(tot)) > mp.mpf(2) ** -100 * max(1, abs(tot)):
                        ok = False
                        break
                    consts.append(mp.re(tot))
                if ok:
                    period = p
                    break
        if period is None:
            return None
        return PeriodicForm(period, consts, base_alpha - k0, rate_mod, rate_mod_exact)


# ------------------------------------------------------------- closed forms

def asympt_closed(s: StepSet, prec=DEFAULT_PREC_BITS) -> AsymptoticExpansion:
    """Closed-form leading asymptotics from the drift-class theorems."""
    cls = classify(s)
    d = s.dim
    dcmp = decompose(s)
    ones = (1,) * (d - 1)
    a1, b1, q1 = dcmp.A.eval(ones), dcmp.B.eval(ones), dcmp.Q.eval(ones)
    s1 = s.total_weight()
    wp = prec + GUARD_BITS
    with mp.workprec(wp):
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
            terms = [ContributionTerm(None, to_mp(s1) + mp.mpc(0),
                                      QuadVal(s1, Fraction(0), Fraction(0)),
                                      alpha, [c0 / mp.sqrt(prod)], 1)]
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

            terms = [ContributionTerm(
                None, to_mp(q1) + 2 * mp.sqrt(to_mp(a1) * to_mp(b1)) + mp.mpc(0),
                QuadVal(q1, Fraction(2), Fraction(a1 * b1)),
                alpha, [c_of(rho)], 1)]
            if dcmp.Q.is_zero():
                terms.append(ContributionTerm(
                    None, to_mp(q1) - 2 * mp.sqrt(to_mp(a1) * to_mp(b1)) + mp.mpc(0),
                    QuadVal(q1, Fraction(-2), Fraction(a1 * b1)),
                    alpha, [c_of(-rho)], 1))
        periodic = _fold(terms, alpha, str(terms[0].rate_exact), prec)
        return AsymptoticExpansion(terms, alpha, periodic, partial=False, route="closed")


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
    d = s.dim
    flt = normalize_filter(flt, d)
    variant = tuple(sorted(s.to_canonical_axes(flt[1]))) if flt != "anywhere" else ()
    if N is None:
        N = default_depth(s, variant)
    if N < 1:
        raise ValueError(f"expansion depth N must be at least 1, got {N}")
    if cls.drift_sign > 0 and d - 1 not in variant:
        pts = contributing_points(s, prec)
        route = "transverse"
        base_alpha = Fraction(-(d - 1), 2)
    else:
        # a returning drift axis cancels the crossing factor: smooth sheet only
        pts = smooth_sheet_points(s, prec) if cls.drift_sign > 0 else contributing_points(s, prec)
        route = "plain-smooth" if cls.kind == HIGHLY_SYMMETRIC else "smooth"
        base_alpha = Fraction(-d, 2)
    rate_str = str(next(p for p in pts if p.is_principal()).rate_exact)
    terms = [smooth_contribution(s, p, N, variant, prec) for p in pts]
    periodic = _fold(terms, base_alpha, rate_str, prec)
    notes = () if periodic is not None else ("no nonzero leading coefficient at this expansion depth",)
    return AsymptoticExpansion(terms, base_alpha, periodic, periodic is None, route, notes)
