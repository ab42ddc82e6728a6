"""Algebraic kernel method: the reflection group of the walk, the signed orbit
sum, the rational-diagonal representation of the length generating function,
exact diagonal coefficient extraction, and the positive-part identity check.

All polynomials here live in canonical axis order (drift axis last); diagonal
variables are z_1..z_d with t as the final variable of (d+1)-variable
polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from orthantwalks.enumeration import endpoint_table
from orthantwalks.laurent import LaurentPoly
from orthantwalks.stepset import Decomposition, StepSet, decompose


# ------------------------------------------------------------ symmetry group

@dataclass(frozen=True)
class GroupElement:
    """One of the 2^d commuting involutions generated by the axis reflections
    sigma_j (j < d) and the kernel involution on the drift variable."""

    dim: int
    flips: frozenset  # subset of {0..d-2}: which sigma_j are applied
    gamma: bool  # whether the drift-axis involution is applied

    @property
    def sign(self):
        return -1 if (len(self.flips) + self.gamma) % 2 else 1

    def act(self, p: LaurentPoly, dcmp: Decomposition):
        """Apply to a Laurent polynomial, clearing denominators.

        The drift involution sends z_d to (A/B)/z_d, so the image is rational;
        returns (numerator, apow, bpow) meaning numerator / (A^apow * B^bpow)
        with A, B lifted to d variables.
        """
        d = self.dim
        for j in self.flips:
            p = p.invert_var(j)
        if not self.gamma:
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


def group_elements(s: StepSet):
    """All 2^d group elements (identity first, then by flip set and gamma)."""
    dcmp = decompose(s)  # validates the symmetry class
    d = s.dim
    elems = []
    for gamma in (False, True):
        for r in range(d):
            for flips in itertools.combinations(range(d - 1), r):
                elems.append(GroupElement(d, frozenset(flips), gamma))
    # dedupe combinations loop artifacts and order deterministically
    elems = sorted(set(elems), key=lambda e: (e.gamma, sorted(e.flips), len(e.flips)))
    assert len(elems) == 2**d
    return dcmp, elems


def rational_equal(lhs, rhs, dcmp: Decomposition):
    """Equality of (num, apow, bpow) pairs as rational functions in A, B."""
    n1, a1, b1 = lhs
    n2, a2, b2 = rhs
    d = dcmp.dim
    A = dcmp.A.insert_var(d - 1)
    B = dcmp.B.insert_var(d - 1)
    left = n1 * A ** max(0, a2 - a1) * B ** max(0, b2 - b1)
    right = n2 * A ** max(0, a1 - a2) * B ** max(0, b1 - b2)
    return left == right


def orbit_sum(s: StepSet):
    """Signed orbit sum of z_1...z_d, cleared of its single B denominator.

    Returns (numerator, denominator) with denominator the lift of B; the pair
    represents sum_sigma sign(sigma) sigma(z_1...z_d).
    """
    dcmp, elems = group_elements(s)
    d = s.dim
    A = dcmp.A.insert_var(d - 1)
    B = dcmp.B.insert_var(d - 1)
    total = LaurentPoly.zero(d)
    for el in elems:
        mono = [(-1 if j in el.flips else 1) for j in range(d - 1)]
        expo = mono + [(-1 if el.gamma else 1)]
        base = LaurentPoly.monomial(d, tuple(expo), el.sign)
        total = total + base * (A if el.gamma else B)
    return total, B


def orbit_sum_product_form(s: StepSet):
    """The cleared product form (z_1-1/z_1)...(z_{d-1}-1/z_{d-1})(z_d B - A/z_d)."""
    dcmp = decompose(s)
    d = s.dim
    A = dcmp.A.insert_var(d - 1)
    B = dcmp.B.insert_var(d - 1)
    prod = LaurentPoly.const(d, 1)
    for j in range(d - 1):
        prod = prod * (LaurentPoly.variable(d, j) - LaurentPoly.variable(d, j, -1))
    last = LaurentPoly.variable(d, d - 1) * B - LaurentPoly.variable(d, d - 1, -1) * A
    return prod * last


# ------------------------------------------------------- diagonal form

@dataclass(frozen=True)
class DiagonalKernel:
    """Rational diagonal representation G / (H3 * H1 * H2) of the length series.

    H1 = 1 - t z_1..z_d Sbar(z), H2 = 1 - t z_1..z_d (Q + z_d A), H3 = 1 - z_d,
    G = (1+z_1)..(1+z_{d-1}) (1 - t z_1..z_d (Q + 2 z_d A)); the three factors
    are kept separate because their zero sets play different roles.
    """

    stepset: StepSet
    dcmp: Decomposition
    G: LaurentPoly
    H1: LaurentPoly
    H2: LaurentPoly
    H3: LaurentPoly

    @property
    def H(self):
        return self.H3 * self.H1 * self.H2

    def factors(self):
        return {"H1": self.H1, "H2": self.H2, "H3": self.H3}


def diag_kernel(s: StepSet) -> DiagonalKernel:
    dcmp = decompose(s)
    d = s.dim
    nv = d + 1  # z_1..z_d, t
    t = LaurentPoly.variable(nv, d)
    zprod = LaurentPoly.monomial(nv, (1,) * d + (0,))
    zd = LaurentPoly.variable(nv, d - 1)

    def lift_hat(p):  # (d-1)-variable symmetric poly -> d+1 variables
        return p.insert_var(d - 1).insert_var(d)

    A = lift_hat(dcmp.A)
    Q = lift_hat(dcmp.Q)
    sbar = s.sbar_poly().insert_var(d)
    H1 = 1 - t * zprod * sbar
    H2 = 1 - t * zprod * (Q + zd * A)
    H3 = 1 - zd
    G = 1 - t * zprod * (Q + 2 * zd * A)
    for j in range(d - 1):
        G = G * (1 + LaurentPoly.variable(nv, j))
    return DiagonalKernel(s, dcmp, G, H1, H2, H3)


def coprimality_spotcheck(kern: DiagonalKernel, samples=4):
    """G does not vanish identically on any H_i zero set, sampled at rational points."""
    d = kern.stepset.dim
    for name, H in kern.factors().items():
        found_nonzero = False
        for k in range(1, samples + 1):
            z = [Fraction(j + 2, j + k + 2) for j in range(d)]
            if name == "H3":
                z[d - 1] = Fraction(1)
                tval = Fraction(1, k + 1)
            else:
                # solve H = 0 for t: H = 1 - t * M(z)
                m = (1 - H).coeff_slice(d, 1).eval(tuple(z))
                if m == 0:
                    continue
                tval = 1 / m
            if kern.G.eval(tuple(z) + (tval,)) != 0:
                found_nonzero = True
                break
        if not found_nonzero:
            return False
    return True


# -------------------------------------------------- exact diagonal extraction

def _series_pieces(kern: DiagonalKernel, boundary_axes):
    """d-variable polynomials driving the t-expansion of G/(H1*H2) (with the
    boundary numerator): a, b such that 1/(H1 H2) = sum_t (sum_{m+l=n} a^m b^l) t^n
    and g0 + t*g1 = G * prod_{j in V} (1-z_j)."""
    s, dcmp = kern.stepset, kern.dcmp
    d = s.dim
    zprod = LaurentPoly.monomial(d, (1,) * d)
    zd = LaurentPoly.variable(d, d - 1)
    A = dcmp.A.insert_var(d - 1)
    Q = dcmp.Q.insert_var(d - 1)
    a = zprod * s.sbar_poly()
    b = zprod * (Q + zd * A)
    g0 = LaurentPoly.const(d, 1)
    for j in range(d - 1):
        g0 = g0 * (1 + LaurentPoly.variable(d, j))
    for j in boundary_axes:
        g0 = g0 * (1 - LaurentPoly.variable(d, j))
    g1 = -(g0 * (zprod * (Q + 2 * zd * A)))
    return a, b, g0, g1


def _clamp(p: LaurentPoly, bound):
    kept = {e: c for e, c in p.terms.items() if all(x <= bound for x in e)}
    return LaurentPoly(p.dim, kept)


def diagonal_coeffs(kern: DiagonalKernel, n_max, boundary_axes=()):
    """Exact [ (z_1..z_d t)^n ] of G/H for n <= n_max.

    ``boundary_axes`` multiplies the numerator by prod (1 - z_j) over the given
    canonical axes, giving the boundary-return diagonals.  The geometric
    expansion of 1/H3 in z_d is folded in by summing the z_d-exponents <= n.
    """
    boundary_axes = tuple(sorted(set(boundary_axes)))
    a, b, g0, g1 = _series_pieces(kern, boundary_axes)
    d = kern.stepset.dim
    out = []
    f_prev = None
    f_cur = LaurentPoly.const(d, 1)  # f_0
    bpow = LaurentPoly.const(d, 1)
    for n in range(n_max + 1):
        if n > 0:
            bpow = _clamp(bpow * b, n_max)
            f_prev, f_cur = f_cur, _clamp(a * f_cur, n_max) + bpow
        L = g0 * f_cur + (g1 * f_prev if f_prev is not None else LaurentPoly.zero(d))
        total = Fraction(0)
        want = (n,) * (d - 1)
        for expo, coeff in L.terms.items():
            if expo[: d - 1] == want and 0 <= expo[d - 1] <= n:
                total += coeff
        out.append(total)
    return out


# ------------------------------------------------------- positive-part check

@dataclass(frozen=True)
class PositivePartReport:
    passed: bool
    per_n: tuple  # (n, ok) pairs
    max_n: int


def _nonneg_part(p: LaurentPoly):
    return LaurentPoly(p.dim, {e: c for e, c in p.terms.items() if all(x >= 0 for x in e)})


def positive_part_check(s: StepSet, n_max=6) -> PositivePartReport:
    """Exact check that the non-negative part of the two-factor rational form
    reproduces the endpoint generating function up to t^n_max.

    The form has denominator factors (1 - t S) and (1 - t (A/z_d + Q)) and
    numerator prod_{j<d}(1 - z_j^-2) * (1 - t (2 A / z_d + Q)); its t-degree-n
    coefficient is a Laurent polynomial, so the identity is checkable exactly.
    """
    dcmp = decompose(s)
    d = s.dim
    S = s.char_poly()
    A = dcmp.A.insert_var(d - 1)
    Q = dcmp.Q.insert_var(d - 1)
    zdi = LaurentPoly.variable(d, d - 1, -1)
    D = zdi * A + Q
    n0 = LaurentPoly.const(d, 1)
    for j in range(d - 1):
        n0 = n0 * (1 - LaurentPoly.variable(d, j, -2))
    n1 = -(n0 * (2 * zdi * A + Q))
    results = []
    ok_all = True
    h_prev = None
    h_cur = LaurentPoly.const(d, 1)
    dpow = LaurentPoly.const(d, 1)
    for n in range(n_max + 1):
        if n > 0:
            dpow = dpow * D
            h_prev, h_cur = h_cur, S * h_cur + dpow
        coeff = n0 * h_cur + (n1 * h_prev if h_prev is not None else LaurentPoly.zero(d))
        got = _nonneg_part(coeff)
        table = endpoint_table(s, n)
        want = LaurentPoly(d, {s.canonical_vector(pt): w for pt, w in table.counts.items()})
        ok = got == want
        ok_all = ok_all and ok
        results.append((n, ok))
    return PositivePartReport(ok_all, tuple(results), n_max)


def series_nonnegative(kern: DiagonalKernel, n_max=8):
    """All t-coefficients of 1/(H1*H2) have non-negative coefficients."""
    a, b, _, _ = _series_pieces(kern, ())
    d = kern.stepset.dim
    f_cur = LaurentPoly.const(d, 1)
    bpow = LaurentPoly.const(d, 1)
    for n in range(1, n_max + 1):
        bpow = bpow * b
        f_cur = a * f_cur + bpow
        if any(c < 0 for c in f_cur.terms.values()):
            return False
    return True
