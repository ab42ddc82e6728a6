"""Coefficient asymptotics for orthant walks.

Three routes produce (rate, polynomial order, per-residue constants):

* closed forms for the three drift classes (fully symmetric, one-axis
  positive drift, one-axis negative drift);
* a smooth-point saddle engine that expands the kernel and numerator as
  high-precision jets and applies the inverse-Hessian differential operator
  to arbitrary depth;
* a leading-order formula at the crossing points where the kernel sheet
  meets {z_d = 1}.

Every engine output is folded into a periodic normal form (smallest period
with real per-residue constants), which is what verification compares.
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
    jet_of_exponential_substitution,
    to_mp,
)
from orthantwalks.stepset import (
    HIGHLY_SYMMETRIC,
    StepSet,
    UnsupportedModelError,
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
    higher_order_required: bool = False
    route: str = "smooth"

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

def _needed_order(N):
    return max(2, 6 * (N - 1))


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


def _hessian_operator(lam):
    inv = [1 / l for l in lam]

    def H(jet):
        out = None
        for a, c in enumerate(inv):
            term = jet.deriv(a).deriv(a) * (-c)
            out = term if out is None else out + term
        return out

    return H


def _unit_jet(d, order, axis, center_coord, sign, prec):
    """Jet of 1 + sign * c * exp(i theta_axis) (sign=-1 gives boundary factors)."""
    from orthantwalks.laurent import LaurentPoly

    e = tuple(1 if j == axis else 0 for j in range(d))
    base = jet_of_exponential_substitution(
        LaurentPoly.monomial(d, e),
        tuple(1 if j != axis else center_coord for j in range(d)),
        order, prec)
    return Jet.const(d, order, 1, prec) + base * sign


def _saddle_coefficients(u, g, lam, N, prec):
    """c_k = (2 pi)^{-d/2} det(g'')^{-1/2} L_k for k < N.

    The determinant root is the product of principal square roots of the
    diagonal Hessian entries, which is the branch the saddle-point theorem
    prescribes for minimal points (each entry has non-negative real part).
    """
    with mp.workprec(prec):
        H = _hessian_operator(lam)
        gU = g.zero_degree(2).zero_degree(1).zero_degree(0)
        gU_pows = [Jet.const(g.dim, g.order, 1, prec)]
        for _ in range(2 * (N - 1)):
            gU_pows.append(gU_pows[-1] * gU)
        pref = (2 * mp.pi) ** (-mp.mpf(g.dim) / 2)
        for l in lam:
            pref = pref / mp.sqrt(l)
        coeffs = []
        for k in range(N):
            total = mp.mpc(0)
            for l in range(2 * k + 1):
                jet = u * gU_pows[l]
                for _ in range(k + l):
                    jet = H(jet)
                term = jet.constant_term()
                denom = mp.mpf((-1) ** k * 2 ** (k + l))
                denom *= mp.factorial(l) * mp.factorial(k + l)
                total += term / denom
            coeffs.append(pref * total)
        return coeffs


# --------------------------------------------------- point-level expansions

def _smooth_u_jet(s, dcmp, point, variant, order, prec, representation):
    """Numerator jet at a smooth saddle.

    representation 'split': kernel sheet of the three-factor form, u =
    prod(1+z_j) (1 - z_d^2 A/B) / (1-z_d); 'plain': fully symmetric one-factor
    form, u = prod over all axes of (1+z_j).  ``variant`` lists canonical axes
    whose boundary factor (1 - z_j) multiplies the numerator; the drift-axis
    factor cancels the 1/(1-z_d) pole.
    """
    d = s.dim
    w = point.w
    from orthantwalks.laurent import LaurentPoly

    u = Jet.const(d, order, 1, prec)
    cross_axes = range(d) if representation == "plain" else range(d - 1)
    for j in cross_axes:
        u = u * _unit_jet(d, order, j, w[j], 1, prec)
    if representation == "split":
        AB = []
        for poly, name in ((dcmp.A, "A"), (dcmp.B, "B")):
            lifted = poly.insert_var(d - 1)
            AB.append(jet_of_exponential_substitution(lifted, w, order, prec))
        ratio = AB[0] * AB[1].reciprocal()
        e2 = tuple(2 if j == d - 1 else 0 for j in range(d))
        zd2 = jet_of_exponential_substitution(
            LaurentPoly.monomial(d, e2), w, order, prec)
        u = u * (Jet.const(d, order, 1, prec) - zd2 * ratio)
        if (d - 1) not in variant:
            u = u * _unit_jet(d, order, d - 1, w[d - 1], -1, prec).reciprocal()
    for j in variant:
        if representation == "split" and j == d - 1:
            continue  # cancelled the pole above
        u = u * _unit_jet(d, order, j, w[j], -1, prec)
    return u


def smooth_contribution(s: StepSet, point: ContributingPoint, N=2,
                        numerator_variant=(), prec=DEFAULT_PREC_BITS,
                        representation="split") -> ContributionTerm:
    """Depth-N saddle expansion at a smooth kernel point.

    ``numerator_variant`` is a set of canonical axes carrying boundary factors
    (1 - z_j).  Coefficients are reported against n^{-d/2 - k}.
    """
    if point.stratum != SMOOTH and representation == "split":
        raise ValueError("smooth_contribution requires a smooth-sheet point")
    d = s.dim
    dcmp = decompose(s)
    order = _needed_order(N)
    wp = prec + GUARD_BITS
    with mp.workprec(wp):
        phase_poly = s.char_poly() if representation == "plain" else s.sbar_poly()
        _, g, lam = _phase_jets(phase_poly, point.w, order, wp)
        u = _smooth_u_jet(s, dcmp, point, tuple(numerator_variant), order, wp,
                          representation)
        coeffs = _saddle_coefficients(u, g, lam, N, wp)
        return ContributionTerm(
            point=point,
            rate=point.rate(),
            rate_exact=point.rate_exact,
            alpha=Fraction(-d, 2),
            coefficients=coeffs,
            order_bound=N,
            route="plain" if representation == "plain" else "smooth",
        )


def transverse_contribution(s: StepSet, point: ContributingPoint,
                            numerator_variant=(), prec=DEFAULT_PREC_BITS
                            ) -> ContributionTerm:
    """Leading-order contribution at a crossing point (kernel sheet meeting
    {z_d=1}); returns a zero coefficient flagged higher_order_required when
    the effective numerator vanishes there."""
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
        tol = mp.mpf(2) ** (-wp // 2)
        if abs(geff) < tol:
            return ContributionTerm(
                point=point, rate=point.rate(), rate_exact=point.rate_exact,
                alpha=Fraction(-(d - 1), 2), coefficients=[mp.mpc(0)],
                order_bound=1, higher_order_required=True, route="transverse")
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
            alpha=Fraction(-(d - 1), 2), coefficients=[c0], order_bound=1,
            route="transverse")


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
        tol_scale = max([max(abs(c) for c in t.coefficients) for t in terms
                         if t.coefficients] or [mp.mpf(1)])
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


def _rate_modulus_string(s, dcmp, drift_sign, boundary_with_drift):
    ones = (1,) * (s.dim - 1)
    a1, b1, q1 = dcmp.A.eval(ones), dcmp.B.eval(ones), dcmp.Q.eval(ones)
    if drift_sign > 0 and not boundary_with_drift:
        return str(QuadVal(s.total_weight(), Fraction(0), Fraction(0)))
    if drift_sign == 0:
        return str(QuadVal(s.total_weight(), Fraction(0), Fraction(0)))
    return str(QuadVal(q1, Fraction(2), Fraction(a1 * b1)))


# ------------------------------------------------------------- closed forms

def asympt_closed(s: StepSet, prec=DEFAULT_PREC_BITS) -> AsymptoticExpansion:
    """Closed-form leading asymptotics from the drift-class theorems."""
    cls = classify(s)
    if cls.kind == "Unsupported":
        if cls.drift_sign == 0:
            raise UnsupportedModelError(
                "zero drift without full symmetry: asymptotics conjectural, unsupported")
        raise UnsupportedModelError("model symmetry class not supported")
    d = s.dim
    dcmp = decompose(s)
    ones = (1,) * (d - 1)
    a1, b1, q1 = dcmp.A.eval(ones), dcmp.B.eval(ones), dcmp.Q.eval(ones)
    s1 = s.total_weight()
    wp = prec + GUARD_BITS
    with mp.workprec(wp):
        if cls.kind == HIGHLY_SYMMETRIC:
            alpha = Fraction(-d, 2)
            c0 = mp.pi ** (-mp.mpf(d) / 2) * to_mp(s1) ** (mp.mpf(d) / 2)
            prod = to_mp(a1)
            for b in dcmp.b_scalars:
                prod *= to_mp(b)
            c0 = c0 / mp.sqrt(prod)
            term = ContributionTerm(None, to_mp(s1) + mp.mpc(0),
                                    QuadVal(s1, Fraction(0), Fraction(0)),
                                    alpha, [c0], 1, route="closed")
            terms = [term]
        elif cls.drift_sign > 0:
            alpha = Fraction(-(d - 1), 2)
            c0 = (1 - to_mp(a1) / to_mp(b1)) * (to_mp(s1) / mp.pi) ** (mp.mpf(d - 1) / 2)
            prod = mp.mpf(1)
            for b in dcmp.b_scalars:
                prod *= to_mp(b)
            c0 = c0 / mp.sqrt(prod)
            term = ContributionTerm(None, to_mp(s1) + mp.mpc(0),
                                    QuadVal(s1, Fraction(0), Fraction(0)),
                                    alpha, [c0], 1, route="closed")
            terms = [term]
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
                alpha, [c_of(rho)], 1, route="closed")]
            if dcmp.Q.is_zero():
                terms.append(ContributionTerm(
                    None, to_mp(q1) - 2 * mp.sqrt(to_mp(a1) * to_mp(b1)) + mp.mpc(0),
                    QuadVal(q1, Fraction(-2), Fraction(a1 * b1)),
                    alpha, [c_of(-rho)], 1, route="closed"))
        periodic = _fold(terms, alpha, _rate_modulus_string(s, dcmp, cls.drift_sign, False), prec)
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
    contributing point on a smooth sheet for any filter.
    """
    cls = classify(s)
    if cls.kind == "Unsupported":
        if cls.drift_sign == 0 and cls.axis is not None:
            raise UnsupportedModelError(
                "zero drift without full symmetry: asymptotics conjectural, unsupported")
        raise UnsupportedModelError("model symmetry class not supported")
    d = s.dim
    dcmp = decompose(s)
    flt = normalize_filter(flt, d)
    variant = tuple(sorted(s.to_canonical_axes(flt[1]))) if flt != "anywhere" else ()
    if N is None:
        N = default_depth(s, variant)
    drift_axis = d - 1
    notes = []
    partial = False
    if cls.kind == HIGHLY_SYMMETRIC:
        pts = contributing_points(s, prec)
        terms = [smooth_contribution(s, p, N, variant, prec, representation="plain")
                 for p in pts]
        route = "plain-smooth"
        rate_str = _rate_modulus_string(s, dcmp, 0, False)
        base_alpha = Fraction(-d, 2)
    elif cls.drift_sign < 0 or drift_axis in variant:
        pts = contributing_points(s, prec) if cls.drift_sign < 0 \
            else smooth_sheet_points(s, prec)
        terms = [smooth_contribution(s, p, N, variant, prec) for p in pts]
        route = "smooth"
        rate_str = _rate_modulus_string(s, dcmp, -1, True)
        base_alpha = Fraction(-d, 2)
    else:
        pts = contributing_points(s, prec)
        terms = [transverse_contribution(s, p, variant, prec) for p in pts]
        route = "transverse"
        rate_str = _rate_modulus_string(s, dcmp, 1, False)
        base_alpha = Fraction(-(d - 1), 2)
        if any(t.higher_order_required for t in terms):
            partial = True
            notes.append("crossing-point numerator vanishes; leading term incomplete")
    periodic = _fold(terms, base_alpha, rate_str, prec)
    if periodic is None:
        partial = True
        notes.append("no nonzero leading coefficient at this expansion depth")
    return AsymptoticExpansion(terms, base_alpha, periodic, partial, route, tuple(notes))
