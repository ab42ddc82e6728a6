"""Minimal critical points and contributing singularities of the diagonal kernel.

Candidate points are finite: sign vectors on the symmetric axes, a fourth root
of unity times the principal square root of B(w)/A(w) on the drift axis, and
the solved t.  Exact rational filtering is used where the squared moduli are
rational; everything else is checked at high precision against a 2^-160
residual tolerance, which is rigorous here because distinct candidate moduli
in this family are never that close.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from orthantwalks.kernel import DiagonalKernel, diag_kernel
from orthantwalks.laurent import DEFAULT_PREC_BITS, GUARD_BITS, to_mp
from orthantwalks.stepset import (
    HIGHLY_SYMMETRIC,
    StepSet,
    UnsupportedModelError,
    classify,
    decompose,
)

SMOOTH = "SmoothV1"
TRANSVERSE = "TransverseV1V3"

RESIDUAL_TOL_EXP = -160  # residuals compared against 2**-160
# Smallest precision (before GUARD_BITS) whose rounding leaves a residual 8 bits
# below the tolerance; at prec + GUARD_BITS == -RESIDUAL_TOL_EXP no point passes.
MIN_PREC_BITS = -RESIDUAL_TOL_EXP - GUARD_BITS + 8


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

    def abs_squared(self):
        """|value|^2, exact (rational) whenever it is rational."""
        if self.m >= 0:
            v = self
            sq = v.rat**2 + v.coef**2 * v.m
            cross = 2 * v.rat * v.coef
            if cross == 0:
                return sq
            return None  # irrational |.|^2
        return self.rat**2 + self.coef**2 * (-self.m)

    def __str__(self):
        if self.coef == 0:
            return str(self.rat)
        root = f"i*sqrt({-self.m})" if self.m < 0 else f"sqrt({self.m})"
        coef = "" if self.coef == 1 else ("-" if self.coef == -1 else f"{self.coef}*")
        if self.rat == 0:
            return f"{coef}{root}"
        sign = "+" if self.coef > 0 else "-"
        mag = abs(self.coef)
        cs = "" if mag == 1 else f"{mag}*"
        return f"{self.rat} {sign} {cs}{root}"


@dataclass(frozen=True)
class ContributingPoint:
    """A minimal critical point of the diagonal kernel.

    Coordinates are in canonical axis order; the first d-1 are exactly +-1,
    the drift coordinate is nu * sqrt(B(w)/A(w)) for smooth points or exactly
    1 for transverse ones, and t solves H1 = 0.
    """

    w: tuple  # d mpmath coordinates
    t: object  # mpmath
    stratum: str  # SmoothV1 | TransverseV1V3
    nu: int  # power of i applied to the principal root (0..3); 0 for transverse
    w_signs: tuple  # exact +-1 for the first d-1 coordinates
    wd_squared: object  # Fraction: exact square of the drift coordinate
    rate_exact: QuadVal  # exact form of 1/(w_1..w_d t) = Sbar(w)
    modulus_data: dict
    drift_sign: int

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


def minimal_point(s: StepSet, prec=DEFAULT_PREC_BITS) -> ContributingPoint:
    """The unique minimal kernel zero with positive coordinates."""
    cls = classify(s)
    if cls.kind == "Unsupported":
        raise UnsupportedModelError("no minimal-point formula for this class")
    dcmp = decompose(s)
    d = s.dim
    ones = (1,) * (d - 1)
    a1, b1, q1 = dcmp.A.eval(ones), dcmp.B.eval(ones), dcmp.Q.eval(ones)
    with mp.workprec(prec + GUARD_BITS):
        if cls.drift_sign < 0:
            q = Fraction(b1, a1)
            wd = _sqrt_fraction(q)
            sval = QuadVal(q1, Fraction(2), Fraction(a1 * b1))
            t = 1 / (wd * sval.to_mp())
            abs_t_sq = Fraction(a1, b1) / (q1**2 + 4 * a1 * b1) if q1 == 0 else None
            return ContributingPoint(
                w=tuple(mp.mpc(1) for _ in range(d - 1)) + (wd,),
                t=t,
                stratum=SMOOTH,
                nu=0,
                w_signs=(1,) * (d - 1),
                wd_squared=q,
                rate_exact=sval,
                modulus_data={
                    "abs_w_sq": (Fraction(1),) * (d - 1) + (abs(q),),
                    "abs_t": abs(t),
                    "abs_t_sq": abs_t_sq,
                },
                drift_sign=cls.drift_sign,
            )
        s1 = s.total_weight()
        t = Fraction(1, 1) / s1
        return ContributingPoint(
            w=tuple(mp.mpc(1) for _ in range(d)),
            t=to_mp(t),
            stratum=TRANSVERSE,
            nu=0,
            w_signs=(1,) * (d - 1),
            wd_squared=Fraction(1),
            rate_exact=QuadVal(s1, Fraction(0), Fraction(0)),
            modulus_data={
                "abs_w_sq": (Fraction(1),) * d,
                "abs_t": to_mp(abs(t)),
                "abs_t_sq": t**2,
            },
            drift_sign=cls.drift_sign,
        )


def _smooth_family(s: StepSet, dcmp, drift_sign, prec):
    """Candidates (w, nu*sqrt(B(w)/A(w)), t) on the smooth kernel sheet,
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
            for k in range(4):
                wd = wd0 * mp.mpc(0, 1) ** k
                wd_sq = q if k % 2 == 0 else -q
                # criticality along the drift axis: B(w) = wd^2 A(w)
                if bw != wd_sq * aw:
                    continue
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
                eps = Fraction(2) if abs(sval - (to_mp(qw) + 2 * _sqrt_fraction(m))) \
                    < abs(sval - (to_mp(qw) - 2 * _sqrt_fraction(m))) else Fraction(-2)
                abs_t_sq = None
                if m < 0 or qw == 0:
                    denom = qw**2 + 4 * abs(m)
                    abs_t_sq = 1 / (abs(q) * denom)
                point = ContributingPoint(
                    w=tuple(mp.mpc(sg) for sg in signs) + (wd,),
                    t=t,
                    stratum=TRANSVERSE if wd_sq == 1 and abs(wd - 1) < tol else SMOOTH,
                    nu=k,
                    w_signs=signs,
                    wd_squared=wd_sq,
                    rate_exact=QuadVal(qw, eps, m),
                    modulus_data={
                        "abs_w_sq": tuple(Fraction(1) for _ in signs) + (abs(q),),
                        "abs_t": abs(t),
                        "abs_t_sq": abs_t_sq,
                    },
                    drift_sign=drift_sign,
                )
                out.append(point)
    return out


def _transverse_family(s: StepSet, dcmp, drift_sign, prec):
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
                modulus_data={
                    "abs_w_sq": (Fraction(1),) * d,
                    "abs_t": to_mp(abs(t)),
                    "abs_t_sq": t**2,
                },
                drift_sign=drift_sign,
            ))
    return out


def _check_h2(s: StepSet, points, prec):
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
    drift: smooth points (w, nu*sqrt(B(w)/A(w)), t).  Zero drift (fully
    symmetric): the sign points, the all-ones one lying on the crossing.
    """
    cls = classify(s)
    if cls.kind == "Unsupported":
        raise UnsupportedModelError("contributing points only for supported classes")
    dcmp = decompose(s)
    if cls.drift_sign > 0:
        pts = _transverse_family(s, dcmp, cls.drift_sign, prec)
    else:
        pts = _smooth_family(s, dcmp, cls.drift_sign, prec)
    pts.sort(key=lambda p: (p.w_signs, p.nu), reverse=True)
    return _check_h2(s, pts, prec)


def smooth_sheet_points(s: StepSet, prec=DEFAULT_PREC_BITS):
    """Smooth-sheet critical points regardless of drift sign.

    These drive boundary-return asymptotics when the returning set includes
    the drift axis (the 1 - z_d factor cancels and the crossing disappears).
    """
    cls = classify(s)
    if cls.kind == "Unsupported":
        raise UnsupportedModelError("smooth-sheet points only for supported classes")
    dcmp = decompose(s)
    pts = _smooth_family(s, dcmp, cls.drift_sign, prec)
    pts.sort(key=lambda p: (p.w_signs, p.nu), reverse=True)
    return _check_h2(s, pts, prec)


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
