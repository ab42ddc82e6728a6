"""Coefficient asymptotics for orthant walks.

Two routes produce (rate, polynomial order, per-residue constants):

* closed forms for the three drift classes (fully symmetric, one-axis
  positive drift, one-axis negative drift);
* one saddle engine that expands the phase and amplitude as exact jets over
  Q(sqrt(q)) at the point's exact coordinates (so vanishing coefficients are
  exact zeros), each only to the degree it is read, and sums Hörmander's
  explicit formula to any depth exactly in ``QuadVal`` arithmetic (for the
  diagonal Hessian it reads u gU^l only at even multi-indices); only the
  prefactor (2 pi)^{-m/2} prod_a lam_a^{-1/2} is numeric, and each coefficient is
  rounded once.  One expansion plan, ``_Integrand``, built once per model and
  endpoint variant and kept with the ``StepSet``, decides the form and
  gives its exact phase and amplitude polynomials: the one-factor form for
  fully symmetric models; the kernel sheet, in z_1..z_d, for smooth points;
  and with positive drift and the drift axis left free, the crossing points,
  where the sheet meets the pole {z_d = 1}, expanded after the residue there
  in z_1..z_{d-1}.

The contributing points come in families, and the plan expands one point of
each; every other point takes the coefficients of an earlier one by one of
two exact rules (``_Integrand.expand_all``):

* complex conjugation: where a point's centre is the complex conjugate of
  another's, so are its coefficients.  Every plan polynomial has rational
  coefficients, so the jets at the conjugate centre are the conjugate jets
  with theta -> -theta, and the engine reads them only at even multi-indices.
* sign flips: where the centre is signs * (another centre), signs in
  {+-1}^m, and z -> signs * z maps the phase to +-itself, the numerator to
  mu times itself and each denominator k to nu_k times itself (mu, nu_k =
  +-1, checked term by term on the ``LaurentPoly``s), the jets at the two
  centres are those of the same polynomials up to these signs: the phase
  jet is unchanged, the amplitude jet is mu / prod nu_k times the other.

Both rules give the expansion's own bits: the sums L_k are exact, so the
derived L_k are the expanded ones negated or conjugated exactly, and rounding
to nearest commutes with a change of sign, so the rounded coefficients follow.

The leading-order crossing formula ``transverse_contribution`` is kept only
as an independent check on the engine.

Each function here that takes an endpoint filter takes it in the user's
axes, as ``count_walks`` does; the plan is keyed by its canonical axes
(``StepSet.canonical_variant``).  ``asympt_full`` takes the plan and the
points of its form (crossing or smooth-sheet, both chosen exactly by
``critical``), expands them and folds: every output is folded into a
periodic normal form with real per-residue constants, which is what
verification compares.  The fold reads exact zeros and exact units: the
leading index is the first with a nonzero coefficient, each rate is 1, -1,
i or -i (the exact ``QuadVal.unit`` of the rate) times one shared modulus,
and the period is the order of the units of the leading terms.  The folded
rate is that of the first term with unit 1: the principal point for the
engine, the first term for the closed forms.  Neither route checks support
itself: ``stepset.decompose`` refuses unsupported models.

``asympt_full`` and ``asympt_closed`` each set the one working precision,
``prec + GUARD_BITS``; everything else here runs at the precision it is given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from orthantwalks.critical import (
    SMOOTH,
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
    noise_floor,
    to_mp,
)
from orthantwalks.stepset import HIGHLY_SYMMETRIC, StepSet, check_count, classify, decompose


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
    route: str = ""
    notes: tuple = ()

    @property
    def partial(self):
        """Whether the terms did not fold into a periodic normal form."""
        return self.periodic is None


# ------------------------------------------------------------ jet machinery

def _phase_jets(poly, center, order):
    """The log-phase jet -log(poly/poly(c)) of ``poly`` at the exact centre c,
    and its diagonal Hessian entries lam_a = 2! i^2 times the exact value at
    2 e_a, as ``QuadVal``s of the jet's field.
    At a contributing point each symmetric axis pairs every phase term with
    its reflection and the drift coordinate is critical, so the jet has no
    first-order or mixed second-order key; every phase term has one argument
    there, so each entry is a positive real."""
    g = -jet_of_exponential_substitution(poly, center, order).log()
    lam = [-2 * g.value(tuple(2 * (j == a) for j in range(g.dim))) for a in range(g.dim)]
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
    2(N-1), g to degree 2N, and gU^l to degree 2(N-1+l).  The jets check
    that their orders fix each product that far (``Jet.times``,
    ``Jet.even_part``), so shorter jets raise ``ValueError``.

    Each L_k is summed exactly in the jets' field, in ``QuadVal``s: f_{2b} is
    (-1)^m times the exact value v_{2b} (``Jet.even_part``), so
    L_k = sum_l (-1)^l / l! sum_{|b| = k+l} w_b v_{2b} with
    w_b = prod_a (2 b_a)! / (b_a! (-2 lam_a)^{b_a}).  Only the prefactor is
    rounded, and each c_k once, at the working precision.

    The determinant root is the product of principal square roots of the
    diagonal Hessian entries, which is the branch the saddle-point theorem
    prescribes for minimal points (each entry has non-negative real part).
    """
    gU = g.tail(3)
    inv = [1 / (-2 * a) for a in lam]
    pows = [[QuadVal(1)] for _ in lam]  # (2j)!/j! (-2 lam_a)^{-j}, as far as some 2b reads

    @functools.cache  # the same b recurs across l
    def weight(b):
        for row, i, j in zip(pows, inv, b):
            for n in range(len(row), j + 1):  # (2n)!/n! = (2n-2)!/(n-1)! 2(2n-1)
                row.append(row[-1] * i * (4 * n - 2))
        return math.prod(row[j] for row, j in zip(pows, b))

    totals = [QuadVal(0)] * N
    power = Jet.const(g.dim, 2 * (N - 1), 1)  # gU^0
    for l in range(2 * N - 1):
        top = 2 * (N - 1 + l)
        if l:
            power = power.times(gU, top)  # gU^l
        sums = {}  # m -> sum_{|b| = m} w_b v_{2b}
        for b, v in u.even_part(power, top).items():
            sums[sum(b)] = weight(b) * v + sums.get(sum(b), 0)
        scale = Fraction((-1) ** l, math.factorial(l))
        for m, total in sums.items():
            totals[m - l] += scale * total
    pref = (2 * mp.pi) ** (-mp.mpf(g.dim) / 2)
    for a in lam:
        pref = pref / mp.sqrt(a.to_mp())
    return [pref * total.to_mp() for total in totals]


# --------------------------------------------------- point-level expansions

class _Integrand:
    """The expansion plan of one model and endpoint filter: its form, the
    integrand's phase polynomial, one exact amplitude numerator and a list of
    amplitude denominator factors.  They depend on the model and the filter,
    not on the point, whose exact coordinates are only the centre each jet is
    taken at.

    The plan decides the form once: ``crossing`` when the drift is positive
    and the drift axis is left free (fully symmetric models have zero drift).
    Fully symmetric models use the one-factor form: phase S, amplitude
    prod_j (1+z_j).  The crossing points are expanded after the residue at
    z_d = 1, in z_1..z_{d-1}: phase S(z', 1) = A + Q + B, amplitude
    prod_{j<d} (1+z_j) (B - A) / B.  Every other point lies on the kernel
    sheet of the three-factor form: phase Sbar, amplitude
    prod_{j<d} (1+z_j) (B - z_d^2 A) / (B (1-z_d)).  Each axis in ``variant``
    adds a factor (1 - z_j); on the kernel sheet the drift-axis one cancels
    1/(1-z_d), which is why a returning drift axis leaves no crossing.
    Denominator factors stay apart: each one's jet is sparse, so its
    reciprocal is cheap.  ``alpha`` is -(integration variables)/2, and
    ``depth`` the default depth: 2, plus one per axis in ``variant`` other
    than the drift axis.
    """

    def __init__(self, s, variant):
        d = s.dim
        cls = classify(s)
        symmetric = cls.kind == HIGHLY_SYMMETRIC
        self.crossing = crossing = cls.drift_sign > 0 and d - 1 not in variant
        self.route = "transverse" if crossing else "plain-smooth" if symmetric else "smooth"
        self.dim = dim = d - 1 if crossing else d
        self.alpha = Fraction(-dim, 2)
        self.depth = 2 + len([j for j in variant if j != d - 1])
        self._units = {}  # sign vector -> flip_unit
        num = LaurentPoly.const(dim, 1)
        for j in range(d if symmetric else d - 1):
            num = num * (1 + LaurentPoly.variable(dim, j))
        for j in variant:
            if symmetric or j != d - 1:
                num = num * (1 - LaurentPoly.variable(dim, j))
        if symmetric:
            self.phase, self.num, self.dens = s.char_poly(), num, []
            return
        dcmp = decompose(s)
        if crossing:
            self.phase, self.dens = dcmp.A + dcmp.Q + dcmp.B, [dcmp.B]
            self.num = num * (dcmp.B - dcmp.A)
            return
        A, B = dcmp.A.insert_var(d - 1), dcmp.B.insert_var(d - 1)
        self.phase = s.sbar_poly()
        self.num = num * (B - LaurentPoly.variable(d, d - 1, 2) * A)
        self.dens = [B] if d - 1 in variant else [B, 1 - LaurentPoly.variable(d, d - 1)]

    def center(self, point):
        """The point's exact coordinates in this plan's variables."""
        return point.exact_w()[:self.dim]

    def jets(self, point, phase_order, amplitude_order):
        """Amplitude jet u, phase jet g and diagonal Hessian entries at one
        contributing point, to the given degrees."""
        center = self.center(point)
        g, lam = _phase_jets(self.phase, center, phase_order)
        u = jet_of_exponential_substitution(self.num, center, amplitude_order)
        for den in self.dens:
            u = u * jet_of_exponential_substitution(den, center, amplitude_order).reciprocal()
        return u, g, lam

    def _check_form(self, point):
        if point.crossing != self.crossing:
            kind = "a crossing point" if point.crossing else "a smooth-sheet point"
            raise ValueError(f"the {self.route} expansion does not take {kind}")

    def expand(self, point, N):
        """The depth-N expansion at one point of this plan's form; each jet
        only to the degree ``_saddle_coefficients`` reads."""
        self._check_form(point)
        u, g, lam = self.jets(point, 2 * N, 2 * (N - 1))
        return ContributionTerm(point, point.rate_exact, self.alpha,
                                _saddle_coefficients(u, g, lam, N))

    def expand_all(self, points, N):
        """The depth-N expansions at ``points``, in order.  A point whose
        centre is the complex conjugate, or a sign flip (``flip_unit``), of
        an earlier point's centre takes that point's coefficients, conjugated
        or times the flip's unit; every other point is expanded."""
        terms, known = [], []  # known: (center, its complex conjugate, coefficients)
        for p in points:
            self._check_form(p)
            center = self.center(p)
            derived = next((c for k in known if (c := self._image(center, *k)) is not None), None)
            term = (self.expand(p, N) if derived is None
                    else ContributionTerm(p, p.rate_exact, self.alpha, derived))
            known.append((center, tuple(c.conjugate() for c in center), term.coefficients))
            terms.append(term)
        return terms

    def _image(self, center, other, other_conj, coefficients):
        """The coefficients at ``center`` from the ``coefficients`` at the
        centre ``other``, or None when neither rule relates the two."""
        if center == other_conj:
            return [mp.conj(c) for c in coefficients]
        signs = tuple(1 if c == o else -1 if c == -o else 0 for c, o in zip(center, other))
        unit = None if 0 in signs else self.flip_unit(signs)
        if unit is None:
            return None
        return list(coefficients) if unit == 1 else [-c for c in coefficients]

    def flip_unit(self, signs):
        """mu / prod_k nu_k when z -> signs * z maps the phase to +-itself,
        the numerator to mu times itself and each denominator k to nu_k times
        itself; None otherwise.  Decided once per sign vector."""
        if signs not in self._units:
            parts = [p.reflection_sign(signs) for p in (self.phase, self.num, *self.dens)]
            self._units[signs] = None if None in parts else math.prod(parts[1:])
        return self._units[signs]


def _plan(s: StepSet, flt) -> _Integrand:
    """The expansion plan of ``s`` and an endpoint filter in the user's axes,
    built once per StepSet and canonical variant."""
    variant = s.canonical_variant(flt)
    return s.derived(("plan", variant), lambda s: _Integrand(s, variant))


def smooth_contribution(s: StepSet, point: ContributingPoint, N=2,
                        flt="anywhere") -> ContributionTerm:
    """Depth-N saddle expansion at one contributing point, at the caller's
    working precision (``asympt_full`` sets it once for all its points).

    ``flt`` is the endpoint filter in the user's axes, as for
    ``asympt_full``: each axis it pins to 0 carries a boundary factor
    (1 - z_j).  The expansion plan of the model and the filter (see
    ``_Integrand``) fixes the form; a point that plan does not expand (a
    crossing point where it takes the smooth sheet, or the reverse) raises
    ``ValueError``, and so does a filter ``normalize_filter`` refuses.
    Coefficients are reported against n^{-m/2 - k}, m the number of
    integration variables (d, or d-1 after the residue at a crossing point).
    """
    return _plan(s, flt).expand(point, check_count(N, "expansion depth N", 1))


def transverse_contribution(s: StepSet, point: ContributingPoint,
                            flt="anywhere") -> ContributionTerm:
    """Leading-order contribution at a crossing point (kernel sheet meeting
    {z_d=1}) from the closed crossing formula; a zero coefficient where the
    effective numerator vanishes there.  Kept as an independent check on the
    residue expansion of ``smooth_contribution``.  Only points from the
    crossing search are taken (``ContributingPoint.crossing``): the
    zero-drift all-ones point, which lies on z_d = 1 too, is refused.
    ``flt`` is the endpoint filter in the user's axes."""
    if not point.crossing:
        raise ValueError("transverse_contribution requires a crossing point")
    d = s.dim
    dcmp = decompose(s)
    kern = diag_kernel(s)
    coords = point.coords()
    geff = kern.G.eval(coords) / kern.H2.eval(coords)
    for j in s.canonical_variant(flt):
        geff *= 1 - coords[j]
    if abs(geff) < noise_floor():
        geff = mp.mpc(0)  # the effective numerator vanishes here
    det_gamma = math.prod(point.w_signs)
    sval = mp.re(point.rate())  # S(w, 1), rational
    hess_root = mp.mpf(1)
    for j in range(d - 1):
        bj = dcmp.eval_Bk(j, coords[:d])
        entry = 2 * to_mp(point.w_signs[j]) * to_mp(bj) / ((d + 1) * sval)
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
        # A = (z_j + 1/z_j) A'_j + A''_j, and likewise for B
        apj, bpj = dcmp.A.coeff_slice(j, 1), dcmp.B.coeff_slice(j, 1)
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
    term's rate has no unit or a residue sum is not real, its imaginary part
    above ``noise_floor`` times max(1, |sum|) (the terms are summed numerically).
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
        if abs(mp.im(tot)) > noise_floor() * max(1, abs(tot)):
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
            terms = [ContributionTerm(None, QuadVal(s1),
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
            terms = [ContributionTerm(None, QuadVal(q1, 2 * r, a1 * b1),
                                      alpha, [c_of(r * rho)])
                     for r in ((1, -1) if dcmp.Q.is_zero() else (1,))]
        return AsymptoticExpansion(terms, alpha, _fold(terms, alpha), route="closed")


# ------------------------------------------------------------ full pipeline

def asympt_full(s: StepSet, flt="anywhere", N=None, prec=DEFAULT_PREC_BITS
                ) -> AsymptoticExpansion:
    """Sum point contributions for the requested endpoint filter and fold.

    The filter is given in the user's axes; the plan is keyed by its
    canonical axes.  Zero-drift models must be fully symmetric; they are handled
    through the one-factor symmetric representation, which keeps every
    contributing point on a smooth sheet for any filter.  The folded rate
    string is the exact rate of the principal point; unsupported models are
    refused by ``decompose`` when the plan or the points are built.
    """
    plan = _plan(s, flt)
    N = plan.depth if N is None else check_count(N, "expansion depth N", 1)
    pts = contributing_points(s) if plan.crossing else smooth_sheet_points(s)
    with mp.workprec(prec + GUARD_BITS):
        terms = plan.expand_all(pts, N)
        periodic = _fold(terms, plan.alpha)
    notes = () if periodic is not None else ("no nonzero leading coefficient at this expansion depth",)
    return AsymptoticExpansion(terms, plan.alpha, periodic, plan.route, notes)
