"""Algebraic kernel method: the reflection group of the walk, the signed orbit
sum, the rational-diagonal representation G / (H1 * H2 * H3) of the length
generating function, exact diagonal coefficient extraction, and the
positive-part identity check.

Diagonal extraction, the positive-part check and the non-negativity check
all expand 1/(H1 * H2) in t by one recurrence over the factors
``diag_kernel`` builds; the positive-part check reads the same t-coefficients
at reflected exponents and compares them with the DP oracle's endpoint table,
the one function here that loads the oracle.

All polynomials here live in canonical axis order (drift axis last); diagonal
variables are z_1..z_d with t as the final variable of (d+1)-variable
polynomials.  Endpoint filters come in the user's axes, as everywhere in the
package, and ``diagonal_coeffs`` translates them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from orthantwalks.laurent import LaurentPoly
from orthantwalks.stepset import StepSet, check_count, decompose

COPRIMALITY_SAMPLES = 4  # rational points tried on each factor's zero set


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


def group_elements(s: StepSet):
    """All 2^d group elements (identity first, then by flip set and gamma)."""
    dcmp = decompose(s)  # validates the symmetry class
    d = s.dim
    elems = [GroupElement(d, frozenset(flips), gamma)
             for gamma in (False, True)
             for r in range(d)
             for flips in itertools.combinations(range(d - 1), r)]
    elems.sort(key=lambda e: (e.gamma, sorted(e.flips), len(e.flips)))
    return dcmp, elems


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
    G: LaurentPoly
    H1: LaurentPoly
    H2: LaurentPoly
    H3: LaurentPoly

    def factors(self):
        return {"H1": self.H1, "H2": self.H2, "H3": self.H3}


def diag_kernel(s: StepSet) -> DiagonalKernel:
    """The rational-diagonal representation of ``s``, built once per StepSet."""
    return s.derived("diagonal kernel", _diag_kernel)


def _diag_kernel(s):
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
    return DiagonalKernel(s, G, H1, H2, H3)


def coprimality_spotcheck(kern: DiagonalKernel):
    """G does not vanish identically on any H_i zero set, sampled at rational points."""
    d = kern.stepset.dim
    for name, H in kern.factors().items():
        found_nonzero = False
        for k in range(1, COPRIMALITY_SAMPLES + 1):
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


# ------------------------------------------------------------ t-expansion

def _series_pieces(kern: DiagonalKernel, axes):
    """D and the integer polynomials D*a, D*b, D*g0, D*g1 in z_1..z_d, as
    exponent -> coefficient dicts, where H1 = 1 - t a, H2 = 1 - t b,
    g0 + t g1 = G * prod_{j in axes} (1 - z_j) over the canonical ``axes``,
    and D is the lcm of the denominators of a, b, g0 and g1."""
    d = kern.stepset.dim
    edge = LaurentPoly.const(d, 1)
    for j in axes:
        edge = edge * (1 - LaurentPoly.variable(d, j))
    polys = (-kern.H1.coeff_slice(d, 1), -kern.H2.coeff_slice(d, 1),
             edge * kern.G.coeff_slice(d, 0), edge * kern.G.coeff_slice(d, 1))
    denom = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return denom, [{e: int(c * denom) for e, c in p.terms.items()} for p in polys]


def _product(p, q, bound):
    """The product of two integer polynomials (exponent -> coefficient dicts),
    keeping the terms with every exponent <= bound."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(operator.add, e1, e2))
            if max(e) <= bound:
                out[e] = out.get(e, 0) + c1 * c2
    return out


def _t_series(a, b, n_max, bound):
    """F_0..F_{n_max}, with F_n = D^n f_n for the t-coefficients f_n of
    1/((1 - t a)(1 - t b)), by F_n = A F_{n-1} + B^n on the integer
    polynomials A = D a and B = D b, keeping the terms with every exponent
    <= bound.

    A and B have exponents in 0..2, so exponents only grow along the
    recurrence: a term dropped here cannot reach a kept one later, and the
    products skip such terms instead of forming them.
    """
    f = bpow = {(0,) * len(next(iter(a))): 1}
    yield f
    for _ in range(n_max):
        bpow = _product(bpow, b, bound)
        f = _product(a, f, bound)
        for e, c in bpow.items():
            f[e] = f.get(e, 0) + c
        yield f


def _diagonal_term(g, f, n):
    """Sum of the coefficients of g*f at (n, ..., n, k) for 0 <= k <= n."""
    total = 0
    for e, c in g.items():
        head = tuple(n - x for x in e[:-1])
        for k in range(n + 1):
            total += c * f.get(head + (k - e[-1],), 0)
    return total


def diagonal_coeffs(kern: DiagonalKernel, n_max, flt="anywhere"):
    """Exact [ (z_1..z_d t)^n ] of G/H for n <= n_max: the counts of walks
    ending as the endpoint filter ``flt`` asks, in any form
    ``normalize_filter`` takes (user axes, as for ``count_walks``).

    Each axis the filter pins to 0 multiplies the numerator by (1 - z_j),
    z_j its canonical variable, giving the boundary-return diagonals.  The
    geometric expansion of 1/H3 in z_d is folded in by summing the
    z_d-exponents <= n.  The sums run in integers, D^(n+1) times the
    coefficient, divided once.
    """
    n_max = check_count(n_max, "n_max")
    denom, (a, b, g0, g1) = _series_pieces(kern, kern.stepset.canonical_variant(flt))
    out = []
    prev = {}
    for n, f in enumerate(_t_series(a, b, n_max, n_max)):
        total = _diagonal_term(g0, f, n) + denom * _diagonal_term(g1, prev, n)
        out.append(Fraction(total, denom ** (n + 1)))
        prev = f
    return out


# ------------------------------------------------------- positive-part check

@dataclass(frozen=True)
class PositivePartReport:
    passed: bool
    per_n: tuple  # (n, ok) pairs
    max_n: int


def positive_part_check(s: StepSet, n_max=6) -> PositivePartReport:
    """Exact check that the non-negative part of the two-factor rational form
    reproduces the endpoint generating function up to t^n_max.

    The form has denominator factors (1 - t S) and (1 - t (A/z_d + Q)) and
    numerator prod_{j<d}(1 - z_j^-2) * (1 - t (2 A / z_d + Q)).  Its t^n
    coefficient is z^(n,...,n) L_n(1/z), where L_n is the t^n coefficient of
    G * prod_{j<d}(1 - z_j) / (H1 * H2); so the endpoint (i_1..i_d) carries
    the coefficient of L_n at (n - i_1, ..., n - i_d), and the identity is
    checkable exactly.
    """
    from orthantwalks.enumeration import endpoint_tables  # the DP oracle, loaded here only

    n_max = check_count(n_max, "n_max")
    d = s.dim
    denom, (a, b, g0, g1) = _series_pieces(diag_kernel(s), range(d - 1))
    results = []
    prev = {}
    series = _t_series(a, b, n_max, n_max)
    for n, (f, table) in enumerate(zip(series, endpoint_tables(s, n_max))):
        got = _product(g0, f, n)
        for e, c in _product(g1, prev, n).items():
            got[e] = got.get(e, 0) + denom * c
        got = {e: Fraction(c, denom ** (n + 1)) for e, c in got.items() if c}
        prev = f
        want = {tuple(n - x for x in s.canonical_vector(pt)): w
                for pt, w in table.counts.items()}
        results.append((n, got == want))
    return PositivePartReport(all(ok for _, ok in results), tuple(results), n_max)


def series_nonnegative(kern: DiagonalKernel, n_max=8):
    """All t-coefficients of 1/(H1*H2) have non-negative coefficients."""
    n_max = check_count(n_max, "n_max")
    _, (a, b, _, _) = _series_pieces(kern, ())
    # f_n has no exponent above 2n, so the bound 2 * n_max keeps every term
    return all(c >= 0 for f in _t_series(a, b, n_max, 2 * n_max) for c in f.values())
