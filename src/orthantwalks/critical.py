"""Contributing singularities of the diagonal kernel, and the minimal point.

Two candidate families build every point: the smooth sheet (sign vectors on
the symmetric axes, either square root of B(w)/A(w) on the drift axis, and the
solved t) and the crossing of that sheet with {z_d = 1}.  The minimal point is
the principal member of the family the drift selects: all signs +1 and the
principal root.  Exact rational filtering is used where the squared moduli
are rational; everything else is checked at high precision against a 2^-160
residual tolerance, which is rigorous here because distinct candidate moduli
in this family are never that close.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from orthantwalks.kernel import diag_kernel
from orthantwalks.laurent import DEFAULT_PREC_BITS, GUARD_BITS, to_mp
from orthantwalks.stepset import StepSet, decompose

SMOOTH = "SmoothV1"
TRANSVERSE = "TransverseV1V3"

RESIDUAL_TOL_EXP = -160  # residuals compared against 2**-160
# Smallest precision (before GUARD_BITS) whose rounding leaves a residual 8 bits
# below the tolerance; at prec + GUARD_BITS == -RESIDUAL_TOL_EXP no point passes.
MIN_PREC_BITS = -RESIDUAL_TOL_EXP - GUARD_BITS + 8


def _exact_root(q: Fraction):
    """The rational square root of q >= 0, or None when q is not a square."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


@dataclass(frozen=True)
class QuadVal:
    """Exact value rat + coef*sqrt(m) with rational rat, coef, m (m may be
    negative, meaning sqrt(m) = i*sqrt(|m|))."""

    rat: Fraction
    coef: Fraction
    m: Fraction

    def to_mp(self):
        val = mp.mpc(mp.mpf(self.rat.numerator) / self.rat.denominator)
        if self.coef:
            root = mp.sqrt(mp.mpc(self.m.numerator) / self.m.denominator)
            val = val + (mp.mpf(self.coef.numerator) / self.coef.denominator) * root
        return val

    def __str__(self):
        """A perfect-square radicand is printed as its root: 2 + 2*sqrt(9) reads 8."""
        root = _exact_root(abs(self.m))
        if root is not None and self.m >= 0:
            return str(self.rat + self.coef * root)
        if root is None:
            coef, unit = self.coef, (f"i*sqrt({-self.m})" if self.m < 0 else f"sqrt({self.m})")
        else:  # i times a rational
            coef, unit = self.coef * root, "i"
        term = unit if abs(coef) == 1 else f"{abs(coef)}*{unit}"
        if self.rat == 0:
            return term if coef > 0 else f"-{term}"
        return f"{self.rat} {'+' if coef > 0 else '-'} {term}"


@dataclass(frozen=True)
class ContributingPoint:
    """A minimal critical point of the diagonal kernel.

    Coordinates are in canonical axis order; the first d-1 are exactly +-1,
    the drift coordinate is i^nu * sqrt(B(w)/A(w)) for smooth points or exactly
    1 for transverse ones, and t solves H1 = 0.
    """

    w: tuple  # d mpmath coordinates
    t: object  # mpmath
    stratum: str  # SmoothV1 | TransverseV1V3
    nu: int  # power of i applied to the principal root: 0 or 2; 0 for transverse
    w_signs: tuple  # exact +-1 for the first d-1 coordinates
    wd_squared: object  # Fraction: exact square of the drift coordinate
    rate_exact: QuadVal  # exact form of 1/(w_1..w_d t) = Sbar(w)

    def is_principal(self):
        """All signs +1 and the principal root: the point with positive coordinates."""
        return self.nu == 0 and all(sg == 1 for sg in self.w_signs)

    def coords(self):
        return self.w + (self.t,)

    def rate(self):
        """1/(w_1...w_d t), the reciprocal of the point's coordinate product."""
        return self.rate_exact.to_mp()


def _tol():
    return mp.mpf(2) ** RESIDUAL_TOL_EXP


def _sqrt_fraction(q: Fraction):
    """Principal square root of a rational: real for q>0, i*sqrt(|q|) for q<0."""
    mag = mp.sqrt(mp.mpf(abs(q).numerator) / abs(q).denominator)
    return mp.mpc(0, mag) if q < 0 else mp.mpc(mag, 0)


def _gradient_residuals(s: StepSet, point, upto):
    sbar = s.sbar_poly()
    res = []
    for j in range(upto):
        res.append(abs(to_mp(abs(sbar.deriv(j).eval(point)))))
    return res


def _reference_t(dcmp):
    """|t| at the positive critical point of the smooth kernel sheet."""
    ones = (1,) * (dcmp.dim - 1)
    a1, b1, q1 = dcmp.A.eval(ones), dcmp.B.eval(ones), dcmp.Q.eval(ones)
    c = mp.sqrt(mp.mpf(b1.numerator) / b1.denominator
                / (mp.mpf(a1.numerator) / a1.denominator))
    sval = to_mp(q1) + 2 * mp.sqrt(to_mp(a1) * to_mp(b1))
    return 1 / (c * sval)


def _smooth_family(s: StepSet, dcmp, prec):
    """Candidates (w, +-sqrt(B(w)/A(w)), t) on the smooth kernel sheet,
    filtered by the squared-modulus conditions and the criticality residuals."""
    d = s.dim
    ones = (1,) * (d - 1)
    a1, b1 = dcmp.A.eval(ones), dcmp.B.eval(ones)
    q_ref = Fraction(b1, a1)
    out = []
    with mp.workprec(prec + GUARD_BITS):
        tol = _tol()
        t_ref = _reference_t(dcmp)
        for signs in itertools.product((1, -1), repeat=d - 1):
            aw = dcmp.A.eval(signs)
            bw = dcmp.B.eval(signs)
            qw = dcmp.Q.eval(signs)
            if aw == 0 or bw == 0:
                continue
            q = Fraction(bw, aw)
            if abs(q) != abs(q_ref):  # exact |w_d|^2 filter
                continue
            wd0 = _sqrt_fraction(q)
            m = Fraction(aw * bw)
            # with wd^2 = B(w)/A(w), Sbar(w) = Q(w) + 2*wd*A(w), and the principal
            # root has wd*A(w) = sign(A(w))*sqrt(A(w)B(w)): the rate's exact sign
            sign_a = 1 if aw > 0 else -1
            for nu, root in ((0, 1), (2, -1)):
                wd = root * wd0
                sval = wd * to_mp(aw) + to_mp(qw) + to_mp(bw) / wd
                if abs(sval) < tol:
                    continue
                prod = 1
                for sg in signs:
                    prod *= sg
                t = 1 / (prod * wd * sval)
                if abs(abs(t) - t_ref) > tol:
                    continue
                grads = _gradient_residuals(s, signs + (wd,), d)
                if any(g > tol for g in grads):
                    continue
                point = ContributingPoint(
                    w=tuple(mp.mpc(sg) for sg in signs) + (wd,),
                    t=t,
                    stratum=TRANSVERSE if q == 1 and abs(wd - 1) < tol else SMOOTH,
                    nu=nu,
                    w_signs=signs,
                    wd_squared=q,
                    rate_exact=QuadVal(qw, Fraction(2 * sign_a * root), m),
                )
                out.append(point)
    return out


def _transverse_family(s: StepSet, dcmp, prec):
    """Candidates (w, 1, t) on the crossing of the kernel sheet with {z_d = 1}."""
    d = s.dim
    s1 = s.total_weight()
    out = []
    with mp.workprec(prec + GUARD_BITS):
        tol = _tol()
        for signs in itertools.product((1, -1), repeat=d - 1):
            sw = dcmp.A.eval(signs) + dcmp.Q.eval(signs) + dcmp.B.eval(signs)
            if sw == 0 or abs(sw) != s1:  # exact |t| = 1/S(1) filter
                continue
            prod = 1
            for sg in signs:
                prod *= sg
            t = Fraction(1, prod * sw)
            grads = _gradient_residuals(s, signs + (1,), d - 1)
            if any(g > tol for g in grads):
                continue
            out.append(ContributingPoint(
                w=tuple(mp.mpc(sg) for sg in signs) + (mp.mpc(1),),
                t=to_mp(t),
                stratum=TRANSVERSE,
                nu=0,
                w_signs=signs,
                wd_squared=Fraction(1),
                rate_exact=QuadVal(Fraction(sw), Fraction(0), Fraction(0)),
            ))
    return out


def _sorted_checked(s: StepSet, points, prec):
    """Points in a fixed order, after checking none lies on the second sheet."""
    points.sort(key=lambda p: (p.w_signs, p.nu), reverse=True)
    kern = diag_kernel(s)
    with mp.workprec(prec + GUARD_BITS):
        tol = _tol()
        for p in points:
            if abs(kern.H2.eval(p.coords())) < tol:
                raise ArithmeticError("candidate lies on the second kernel sheet")
    return points


def contributing_points(s: StepSet, prec=DEFAULT_PREC_BITS):
    """All contributing singularities for the length diagonal, per drift class.

    Positive drift: crossing points (w, 1, t) with |S(w,1)| = S(1).  Negative
    drift: smooth points (w, +-sqrt(B(w)/A(w)), t).  Zero drift (fully
    symmetric): the sign points, the all-ones one lying on the crossing.
    """
    dcmp = decompose(s)
    family = _transverse_family if dcmp.drift > 0 else _smooth_family
    return _sorted_checked(s, family(s, dcmp, prec), prec)


def smooth_sheet_points(s: StepSet, prec=DEFAULT_PREC_BITS):
    """Smooth-sheet critical points regardless of drift sign.

    These drive boundary-return asymptotics when the returning set includes
    the drift axis (the 1 - z_d factor cancels and the crossing disappears).
    """
    return _sorted_checked(s, _smooth_family(s, decompose(s), prec), prec)


def minimal_point(s: StepSet, prec=DEFAULT_PREC_BITS) -> ContributingPoint:
    """The unique minimal kernel zero with positive coordinates: the principal
    contributing point."""
    return next(p for p in contributing_points(s, prec) if p.is_principal())


@dataclass(frozen=True)
class CriticalityReport:
    residuals: dict
    ok: bool


def check_critical(s: StepSet, point, t=None, stratum=SMOOTH,
                   prec=DEFAULT_PREC_BITS) -> CriticalityReport:
    """Residuals of the criticality and kernel-membership equations at a point.

    ``point`` may be a ContributingPoint or a coordinate tuple (with ``t``).
    """
    if isinstance(point, ContributingPoint):
        coords, tval, stratum = point.w, point.t, point.stratum
    else:
        coords, tval = tuple(point), t
    kern = diag_kernel(s)
    d = s.dim
    with mp.workprec(prec + GUARD_BITS):
        coords = tuple(to_mp(c) for c in coords)
        tval = to_mp(tval)
        res = {}
        upto = d if stratum == SMOOTH else d - 1
        for j, g in enumerate(_gradient_residuals(s, coords, upto)):
            res[f"grad_{j + 1}"] = g
        res["H1"] = abs(kern.H1.eval(coords + (tval,)))
        if stratum == TRANSVERSE:
            res["H3"] = abs(coords[d - 1] - 1)
        res["H2_distance"] = abs(kern.H2.eval(coords + (tval,)))
        tol = _tol()
        ok = all(v < tol for k, v in res.items() if k != "H2_distance")
        ok = ok and res["H2_distance"] > tol
        return CriticalityReport(res, ok)
