"""Contributing singularities of the diagonal kernel, and the minimal point.

One loop over the sign vectors w in {+-1}^(d-1) on the symmetric axes builds
every point.  Its only switch is the crossing: off it, the drift coordinate is
either square root of B(w)/A(w) on the smooth kernel sheet; on it, the
coordinate is 1, where that sheet crosses the pole {z_d = 1}.  Positive drift
takes the crossing, and the smooth sheet serves every other case.  The
minimal point is the principal point: all signs +1 and the principal root.
Which candidates contribute is decided exactly, by rational identities
between A(w), Q(w), B(w) and their values at w = 1; no tolerance enters the
selection, and a point is only exact data: its coordinates lie in
Q(sqrt(wd_squared)) and its rate Sbar(w) in Q(sqrt(A(w)B(w))), as
``QuadVal``s, which this module builds and combines but never takes apart;
their numeric values are computed at the caller's working precision.
``check_critical`` reports the numeric residuals of the criticality equations
at a point, at its own precision and against ``laurent.noise_floor`` there, as
an independent check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from orthantwalks.kernel import diag_kernel
from orthantwalks.laurent import DEFAULT_PREC_BITS, GUARD_BITS, QuadVal, noise_floor
from orthantwalks.stepset import StepSet, classify, decompose

SMOOTH = "SmoothV1"
TRANSVERSE = "TransverseV1V3"


@dataclass(frozen=True)
class ContributingPoint:
    """A minimal critical point of the diagonal kernel, as exact data.

    Coordinates are in canonical axis order; the first d-1 are ``w_signs``,
    the drift coordinate is i^nu * sqrt(wd_squared) (exactly 1 at a crossing),
    and t solves H1 = 0.  ``w``, ``t``, ``coords()`` and ``rate()`` are
    computed from these fields at the caller's working precision.

    ``stratum`` is geometry: TransverseV1V3 marks a point on z_d = 1, which
    with zero drift includes the all-ones smooth-sheet point.  Which search
    found the point is ``crossing``, recorded by the search: the rate alone
    cannot tell, since the smooth sheet's Sbar(w) is rational where A(w)B(w)
    is a square (4 at the all-ones point of N,S,E,W).
    """

    stratum: str  # SmoothV1 | TransverseV1V3
    nu: int  # power of i applied to the principal root: 0 or 2; 0 for transverse
    w_signs: tuple  # exact +-1 for the first d-1 coordinates
    wd_squared: Fraction  # exact square of the drift coordinate
    rate_exact: QuadVal  # exact form of 1/(w_1..w_d t) = Sbar(w)
    crossing: bool  # found by the crossing search (w_d = 1, rate S(w, 1))

    def is_principal(self):
        """All signs +1 and the principal root: the point with positive coordinates."""
        return self.nu == 0 and all(sg == 1 for sg in self.w_signs)

    def exact_w(self):
        """w exactly: the signs, then i^nu * (principal) sqrt(wd_squared)."""
        return self.w_signs + (QuadVal(0, (-1) ** (self.nu // 2), self.wd_squared),)

    @property
    def w(self):
        return tuple(mp.mpc(sg) for sg in self.w_signs) + (self.exact_w()[-1].to_mp(),)

    @property
    def t(self):
        """1/(w_1...w_d Sbar(w)); a real at a crossing point, since w_d = 1
        and the rate is the rational S(w,1) there."""
        prod = math.prod(self.w_signs)
        if self.crossing:
            return mp.re((1 / (prod * self.rate_exact)).to_mp())
        return 1 / (prod * self.w[-1] * self.rate())

    def coords(self):
        return self.w + (self.t,)

    def rate(self):
        """1/(w_1...w_d t), the reciprocal of the point's coordinate product."""
        return self.rate_exact.to_mp()


def _sign_vector_points(s: StepSet, dcmp, crossing):
    """Contributing points over the sign vectors w in {+-1}^(d-1).

    A candidate is kept when |Sbar(w)| = Sbar(1), decided exactly.  At the
    crossing, w_d = 1 and Sbar(w) = S(w,1) is rational.  On the smooth kernel
    sheet w_d = +-sqrt(B(w)/A(w)) and Sbar(w) = Q(w) + 2*w_d*A(w), where the
    principal root has w_d*A(w) = sign(A(w))*sqrt(A(w)B(w)).  All weights are
    positive, so |A(w)| <= A(1), |Q(w)| <= Q(1) and |B(w)| <= B(1), and the
    modulus reaches Sbar(1) iff all three are equalities and the two terms of
    Sbar(w) point the same way: Q(w) = 0, or A(w)B(w) > 0 with sign Q(w) the
    sign of w_d*A(w).  Every kept point is critical by construction: each
    partial d_j Sbar = (1 - z_j^-2) B_j (j < d) vanishes at z_j = +-1, and
    d_d Sbar = A - B z_d^-2 vanishes at z_d^2 = B/A; ``check_critical``
    confirms it numerically.

    No kept point lies on the second kernel sheet H2 = 0.  On the smooth sheet
    H2 = w_d A(w)/Sbar(w), with |A(w)| = A(1) > 0 and |Sbar(w)| = Sbar(1) > 0.
    At a crossing H2 = B(w)/S(w,1), and |S(w,1)| = S(1) forces |B(w)| = B(1)
    > 0 (build_stepset requires a forward step on every axis).
    """
    d = s.dim
    ones = (1,) * (d - 1)
    ref = tuple(p.eval(ones) for p in (dcmp.A, dcmp.Q, dcmp.B))
    out = []
    for signs in itertools.product((1, -1), repeat=d - 1):
        aw, qw, bw = (p.eval(signs) for p in (dcmp.A, dcmp.Q, dcmp.B))
        drifts = []  # (nu, w_d^2, exact rate Sbar(w)) for each drift coordinate
        if crossing:
            sw = aw + qw + bw
            if abs(sw) == dcmp.total_weight:
                drifts.append((0, Fraction(1), QuadVal(sw)))
        elif (abs(aw), abs(qw), abs(bw)) == ref:
            sign_a = 1 if aw > 0 else -1
            for nu, root in ((0, 1), (2, -1)):
                if qw != 0 and not (aw * bw > 0 and (qw > 0) == (sign_a * root > 0)):
                    continue
                drifts.append((nu, Fraction(bw, aw),
                               QuadVal(qw, 2 * sign_a * root, aw * bw)))
        for nu, wd_squared, rate in drifts:
            # w_d = 1 exactly: on the crossing (for zero drift, the all-ones point)
            stratum = TRANSVERSE if wd_squared == 1 and nu == 0 else SMOOTH
            out.append(ContributingPoint(stratum, nu, signs, wd_squared, rate, crossing))
    out.sort(key=lambda p: (p.w_signs, p.nu), reverse=True)
    return out


def _points(s: StepSet, crossing):
    """The crossing or the smooth-sheet points, searched once per StepSet."""
    key = "crossing points" if crossing else "smooth-sheet points"
    return s.derived(key, lambda s: tuple(_sign_vector_points(s, decompose(s), crossing)))


def contributing_points(s: StepSet):
    """All contributing singularities for the length diagonal, per drift class.

    Positive drift: crossing points (w, 1, t) with |S(w,1)| = S(1).  Negative
    drift: smooth points (w, +-sqrt(B(w)/A(w)), t).  Zero drift (fully
    symmetric): the sign points, the all-ones one lying on the crossing.  For
    drift <= 0 these are exactly the ``smooth_sheet_points``.  A new list on
    every call.
    """
    return list(_points(s, classify(s).drift_sign > 0))


def smooth_sheet_points(s: StepSet):
    """Smooth-sheet critical points regardless of drift sign, in a new list.

    These drive boundary-return asymptotics when the returning set includes
    the drift axis (the 1 - z_d factor cancels and the crossing disappears).
    """
    return list(_points(s, False))


def minimal_point(s: StepSet) -> ContributingPoint:
    """The unique minimal kernel zero with positive coordinates: the principal
    contributing point."""
    return next(p for p in contributing_points(s) if p.is_principal())


@dataclass(frozen=True)
class CriticalityReport:
    residuals: dict
    ok: bool


def check_critical(s: StepSet, point: ContributingPoint,
                   prec=DEFAULT_PREC_BITS) -> CriticalityReport:
    """Residuals of the criticality and kernel-membership equations at a point.

    A numeric check, independent of the exact selection: the gradient of Sbar
    in the free variables (all d on the smooth sheet, the first d-1 at a
    crossing, which adds |w_d - 1|), H1, and the distance from H2 = 0.  ``ok``
    when every residual is below ``noise_floor`` and the distance above it.
    """
    kern = diag_kernel(s)
    sbar = s.sbar_poly()
    d = s.dim
    with mp.workprec(prec + GUARD_BITS):
        coords = point.coords()
        res = {f"grad_{j + 1}": abs(sbar.deriv(j).eval(coords[:d]))
               for j in range(d if point.stratum == SMOOTH else d - 1)}
        res["H1"] = abs(kern.H1.eval(coords))
        if point.stratum == TRANSVERSE:
            res["H3"] = abs(coords[d - 1] - 1)
        res["H2_distance"] = abs(kern.H2.eval(coords))
        tol = noise_floor()
        ok = all(v < tol for k, v in res.items() if k != "H2_distance")
        ok = ok and res["H2_distance"] > tol
        return CriticalityReport(res, ok)
