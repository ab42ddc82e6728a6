"""Exact multivariate Laurent polynomials over Q, and truncated complex jets.

Laurent polynomials are sparse dicts mapping integer exponent vectors to
nonzero Fractions.  Jets are truncated multivariate Taylor expansions in the
angular variables of the substitution z_j = c_j * exp(i*theta_j); their
coefficients are arbitrary-precision complex numbers (mpmath), so saddle-point
data extracted from them stays accurate far below double precision.  The
centre c is exact, in one field Q(sqrt(m)) (``QuadVal``), so the substitution
keeps exact zeros.  Jet arithmetic, like ``LaurentPoly.eval``, runs at the
caller's working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from mpmath import mp

MAX_EXPONENT = 2**31
DEFAULT_PREC_BITS = 192
GUARD_BITS = 64


class ExponentOverflowError(OverflowError):
    """An exponent left the supported range |e| <= 2**31."""


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational coefficient, got {type(x).__name__}")


def to_mp(x):
    """Convert an int/Fraction/float/complex/mp number to an mpmath number."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    if isinstance(x, (int, float)):
        return mp.mpf(x)
    if isinstance(x, complex):
        return mp.mpc(x.real, x.imag)
    return x  # mpf / mpc pass through


def multi_indices(dim, max_total):
    """All exponent tuples of length dim with total degree <= max_total."""
    if dim == 0:
        yield ()
        return
    for head in range(max_total + 1):
        for tail in multi_indices(dim - 1, max_total - head):
            yield (head,) + tail


class LaurentPoly:
    """Sparse Laurent polynomial with exact rational coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        self.dim = dim
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != dim:
                raise ValueError("exponent vector length does not match dimension")
            if any(abs(e) > MAX_EXPONENT for e in expo):
                raise ExponentOverflowError(f"exponent out of range in {expo}")
            coeff = _as_fraction(coeff)
            if coeff != 0:
                clean[expo] = clean.get(expo, Fraction(0)) + coeff
                if clean[expo] == 0:
                    del clean[expo]
        self.terms = clean

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def const(cls, dim, value):
        return cls(dim, {(0,) * dim: _as_fraction(value)})

    @classmethod
    def monomial(cls, dim, expo, coeff=1):
        return cls(dim, {tuple(expo): _as_fraction(coeff)})

    @classmethod
    def variable(cls, dim, j, power=1):
        expo = [0] * dim
        expo[j] = power
        return cls.monomial(dim, expo)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.dim == other.dim and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.const(self.dim, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for expo in sorted(self.terms):
            mono = "*".join(
                f"z{j + 1}^{e}" for j, e in enumerate(expo) if e != 0
            )
            c = self.terms[expo]
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(bits)

    # ------------------------------------------------------------- ring ops

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.dim, other)
        self._check_dim(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            s = out.get(expo, Fraction(0)) + coeff
            if s == 0:
                out.pop(expo, None)
            else:
                out[expo] = s
        return LaurentPoly(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return LaurentPoly.zero(self.dim)
            return LaurentPoly(self.dim, {e: c * v for e, v in self.terms.items()})
        self._check_dim(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPoly(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = LaurentPoly.const(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -------------------------------------------------------- substitutions

    def invert_var(self, j):
        """Substitute z_j -> 1/z_j (an involution)."""
        out = {}
        for expo, coeff in self.terms.items():
            e = list(expo)
            e[j] = -e[j]
            out[tuple(e)] = coeff
        return LaurentPoly(self.dim, out)

    def insert_var(self, j, power=0):
        """Embed into one more variable, inserted at position j with the given power."""
        out = {}
        for expo, coeff in self.terms.items():
            e = expo[:j] + (power,) + expo[j:]
            out[e] = coeff
        return LaurentPoly(self.dim + 1, out)

    def coeff_slice(self, var, exponent):
        """Laurent polynomial (in the remaining variables) multiplying var^exponent."""
        if not 0 <= var < self.dim:
            raise ValueError("axis out of range")
        out = {}
        for expo, coeff in self.terms.items():
            if expo[var] == exponent:
                out[expo[:var] + expo[var + 1:]] = coeff
        return LaurentPoly(self.dim - 1, out)

    def var_exponents(self, var):
        """Sorted list of exponents of var that occur in the support."""
        return sorted({e[var] for e in self.terms})

    def deriv(self, j):
        """Formal partial derivative with respect to z_j."""
        out = {}
        for expo, coeff in self.terms.items():
            if expo[j] == 0:
                continue
            e = list(expo)
            e[j] -= 1
            out[tuple(e)] = coeff * expo[j]
        return LaurentPoly(self.dim, out)

    # ------------------------------------------------------------ evaluation

    def eval(self, point):
        """Evaluate at a point with nonzero coordinates.

        Exact Fraction arithmetic when every coordinate is an int/Fraction;
        otherwise high-precision mpmath arithmetic at the current precision.
        """
        if len(point) != self.dim:
            raise ValueError("point length does not match dimension")
        exact = all(isinstance(c, (int, Fraction)) for c in point)
        if exact:
            coords = [Fraction(c) for c in point]
            if any(c == 0 for c in coords):
                raise ZeroDivisionError("zero coordinate: negative exponents undefined")
            total = Fraction(0)
            for expo, coeff in self.terms.items():
                val = coeff
                for c, e in zip(coords, expo):
                    val *= c ** e
                total += val
            return total
        coords = [to_mp(c) for c in point]
        if any(c == 0 for c in coords):
            raise ZeroDivisionError("zero coordinate: negative exponents undefined")
        total = mp.mpc(0)
        for expo, coeff in self.terms.items():
            val = to_mp(coeff)
            for c, e in zip(coords, expo):
                val *= c ** e
            total += val
        return total


class Jet:
    """Truncated Taylor expansion at theta = 0, dense up to a total degree.

    Coefficients are Taylor coefficients (derivative / factorial), stored as
    mpmath complex numbers.  A jet carries no precision of its own: its
    arithmetic runs at the caller's working precision, which ``asympt_full``
    sets once per call.  Multi-indices are trusted, not re-checked.
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
        return Jet(self.dim, self.order if order is None else order, coeffs)

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Jet):
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

    def __bool__(self):
        """False exactly when the value is 0, decided by rational comparisons."""
        if self.m < 0:  # rat + i*coef*sqrt(-m)
            return bool(self.rat or self.coef)
        return self.rat * self.coef > 0 or self.rat ** 2 != self.coef ** 2 * self.m

    def to_mp(self, root=None):
        """The value at the working precision; ``root`` is sqrt(m), if known."""
        val = mp.mpc(mp.mpf(self.rat.numerator) / self.rat.denominator)
        if self.coef:
            if root is None:
                root = mp.sqrt(mp.mpc(self.m.numerator) / self.m.denominator)
            val = val + (mp.mpf(self.coef.numerator) / self.coef.denominator) * root
        return val

    def unit(self):
        """The phase of a real or purely imaginary nonzero value: 1, -1, 1j or
        -1j, decided by rational comparisons; None for any other value."""
        if self.m < 0 and self.coef:  # rat + i*coef*sqrt(-m)
            return None if self.rat else 1j if self.coef > 0 else -1j
        if not self:
            return None
        # a nonzero real has the sign of its larger part, compared by squares
        lead = self.rat if self.rat ** 2 > self.coef ** 2 * self.m else self.coef
        return 1 if lead > 0 else -1

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


def jet_of_exponential_substitution(p, center, order):
    """Taylor jet at theta=0 of theta |-> p(c_1 e^{i theta_1}, ..., c_d e^{i theta_d}).

    Each c_j is a rational or a ``QuadVal`` r*sqrt(m) with one m for all, so
    each term of p is x or y*sqrt(m) at c, with rational x or y; exp(i<e,theta>)
    has the Taylor coefficient i^{|k|} e^k / k! at k.  The coefficient at k is
    i^{|k|}/k! (X_k + Y_k sqrt(m)), with X_k and Y_k exact sums over the terms:
    exact zeros are dropped, and the rest are rounded to the working precision
    only at the end, with sqrt(m) and the powers of i computed once.
    """
    d = p.dim
    if len(center) != d:
        raise ValueError("center length does not match dimension")
    m = next((c.m for c in center if isinstance(c, QuadVal)), Fraction(0))
    if any(isinstance(c, QuadVal) and (c.rat or c.m != m) for c in center):
        raise ValueError("center coordinates must be rationals or multiples of one sqrt(m)")
    # c_j = r_j sqrt(m)^s_j
    coords = [(c.coef, 1) if isinstance(c, QuadVal) else (_as_fraction(c), 0) for c in center]
    terms = []  # (e, v, odd): the term's value is v * sqrt(m)^odd
    for expo, coeff in p.terms.items():
        half = sum(s * e for (_, s), e in zip(coords, expo))
        val = coeff * math.prod(r ** e for (r, _), e in zip(coords, expo)) * m ** (half // 2)
        terms.append((expo, val, half % 2))
    den = math.lcm(*(v.denominator for _, v, _ in terms))  # X_k, Y_k summed as integers
    sums = {k: [0, 0] for k in multi_indices(d, order)}
    for expo, val, odd in terms:
        val = int(val * den)
        powers = [[e ** k for k in range(order + 1)] for e in expo]
        for k, acc in sums.items():
            w = math.prod(row[kj] for row, kj in zip(powers, k))
            if w:  # 0 when k differentiates a variable the term lacks
                acc[odd] += val * w
    root = QuadVal(Fraction(0), Fraction(1), m).to_mp()  # sqrt(m), bit for bit as in to_mp
    i_powers = [mp.mpc(0, 1) ** j for j in range(4)]
    out = {}
    for k, (x, y) in sums.items():
        if not (x or y):
            continue
        scale = den * math.prod(map(math.factorial, k))
        value = QuadVal(Fraction(x, scale), Fraction(y, scale), m)
        if value:
            out[k] = i_powers[sum(k) % 4] * value.to_mp(root)
    return Jet(d, order, out)
