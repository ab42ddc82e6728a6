"""Exact Laurent polynomials over Q, exact values in Q(sqrt(m)), and exact jets.

Laurent polynomials are sparse dicts mapping integer exponent vectors to
nonzero Fractions.  ``QuadVal`` is the exact number type of a field
Q(sqrt(m)), one held form per number (a rational root is folded in).  Jets
are truncated multivariate Taylor expansions in the angular variables of the
substitution z_j = c_j * exp(i*theta_j) at an exact centre c in one field.
Every coefficient is i^{|e|} times an element of Q(sqrt(r)), r = m's
numerator times its denominator, held as a pair of Python integers over
divided powers, so products, reciprocals and logarithms are exact and zeros
are exact zeros; outside the jet it is a QuadVal.  Only ``to_mp``,
``QuadVal.to_mp`` and ``LaurentPoly.eval`` round.  A jet claims no degree
past its order, so a product is read only as far as its factors fix it.
``noise_floor`` is the one test for rounding noise.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add, mul

from mpmath import mp

MAX_EXPONENT = 2**31
DEFAULT_PREC_BITS = 192
GUARD_BITS = 64


def noise_floor():
    """2^-(p//2) at the working precision p: a number below it is rounding noise."""
    return mp.mpf(2) ** (-(mp.prec // 2))


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
        return NotImplemented

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

    def reflection_sign(self, signs):
        """The sign s = +-1 with p(signs * z) = s p(z), signs in {+-1}^dim,
        or None when p(signs * z) is not +-p(z): each term picks up the
        product of the signs at its odd exponents, so the identity holds
        exactly when all terms pick up the same one (any s for p = 0)."""
        found = {math.prod(sg for sg, e in zip(signs, expo) if e % 2) for expo in self.terms}
        if len(found) > 1:
            return None
        return found.pop() if found else 1

    # ------------------------------------------------------------ evaluation

    def eval(self, point):
        """Evaluate at a point with nonzero coordinates.

        Exact Fraction arithmetic when every coordinate is an int/Fraction;
        otherwise high-precision mpmath arithmetic at the current precision.
        """
        if len(point) != self.dim:
            raise ValueError("point length does not match dimension")
        if all(isinstance(c, (int, Fraction)) for c in point):
            convert, total = Fraction, Fraction(0)
        else:
            convert, total = to_mp, mp.mpc(0)
        coords = [convert(c) for c in point]
        if any(c == 0 for c in coords):
            raise ZeroDivisionError("zero coordinate: negative exponents undefined")
        for expo, coeff in self.terms.items():
            val = convert(coeff)
            for c, e in zip(coords, expo):
                val *= c ** e
            total += val
        return total


def _exact_root(q: Fraction):
    """The rational square root of q >= 0, or None when q is not a square."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


class QuadVal:
    """Exact value rat + coef*sqrt(m), rat, coef and m rational (a negative m
    means sqrt(m) = i*sqrt(|m|)), held as integers (x + y*sqrt(m)) / d in
    lowest terms, d > 0, with y = m = 0 when there is no root part.

    Construction folds a rational root into the rational part (3 + sqrt(9)
    is held as 6), so each value has one held form: it is 0 exactly when
    x = y = 0, only 0 has norm 0, and values compare and hash as numbers.
    Values over one m, and rationals with any, combine exactly by + - * /,
    one gcd each, which keeps m; a quotient goes through the conjugate over
    the norm.  Values over different radicands (sqrt(8), 2*sqrt(2)) do not.
    """

    __slots__ = ("_k",)  # (x, y, d, m)

    def __new__(cls, rat, coef=0, m=0):
        rat, coef, m = _as_fraction(rat), _as_fraction(coef), _as_fraction(m)
        if m > 0 and (root := _exact_root(m)) is not None:
            rat, coef = rat + coef * root, 0
        d = math.lcm(rat.denominator, coef.denominator)
        return cls._of(rat.numerator * (d // rat.denominator),
                       coef.numerator * (d // coef.denominator), d, m)

    @classmethod
    def _of(cls, x, y, d, m):
        """(x + y*sqrt(m)) / d for integers x, y, d > 0 and rational m, no positive square."""
        if not (y and m):
            y, m = 0, 0
        val, g = object.__new__(cls), math.gcd(x, y, d)
        val._k = (x // g, y // g, d // g, m)
        return val

    rat = property(lambda self: Fraction(self._k[0], self._k[2]))
    coef = property(lambda self: Fraction(self._k[1], self._k[2]))
    m = property(lambda self: self._k[3])

    def __repr__(self):
        return f"QuadVal({self.rat!r}, {self.coef!r}, {self.m!r})"

    def __eq__(self, other):
        return type(other) is QuadVal and self._k == other._k

    def __hash__(self):
        return hash(self._k)

    def _with(self, other):
        """The integers x, y, d of ``other`` and the m of the field both lie
        in; None for no exact number."""
        m = self._k[3]
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator, m
        if type(other) is not QuadVal:
            return None
        x, y, d, n = other._k
        if m and n and m != n:
            raise ValueError(f"values over sqrt({m}) and sqrt({n}) do not combine")
        return x, y, d, m or n

    def __add__(self, other):
        if (o := self._with(other)) is None:
            return NotImplemented
        (x1, y1, d1, _), (x2, y2, d2, m) = self._k, o
        return QuadVal._of(x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2, m)

    __radd__ = __add__

    def __neg__(self):
        x, y, d, m = self._k
        return QuadVal._of(-x, -y, d, m)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if (o := self._with(other)) is None:
            return NotImplemented
        (x1, y1, d1, _), (x2, y2, d2, m) = self._k, o
        p, q = m.numerator, m.denominator
        return QuadVal._of(q * x1 * x2 + p * y1 * y2, q * (x1 * y2 + y1 * x2), q * d1 * d2, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (o := self._with(other)) is None:
            return NotImplemented
        other = QuadVal._of(*o)
        return self * other.conj() * (1 / other.norm())  # norm 0 raises

    def __rtruediv__(self, other):
        return QuadVal(other) / self if isinstance(other, (int, Fraction)) else NotImplemented

    def conj(self):
        """The Galois conjugate rat - coef*sqrt(m).  It is the complex
        conjugate only when m < 0; see ``conjugate``."""
        x, y, d, m = self._k
        return QuadVal._of(x, -y, d, m)

    def norm(self):
        """The rational value * conj(value) = rat^2 - coef^2 m."""
        x, y, d, m = self._k
        return Fraction(x * x * m.denominator - y * y * m.numerator, d * d * m.denominator)

    def is_real(self):
        """True when the value is a real number: no root part, or the root of
        a positive radicand."""
        return not self._k[1] or self._k[3] > 0

    def conjugate(self):
        """The complex conjugate, as for Python's numbers: the value itself
        when it is real, and the Galois conjugate ``conj`` when m < 0."""
        return self if self.is_real() else self.conj()

    def __bool__(self):
        """False exactly when the value is 0: when x = y = 0."""
        return bool(self._k[0] or self._k[1])

    def to_mp(self):
        """The value at the working precision."""
        rat, coef, m = self.rat, self.coef, self.m
        val = mp.mpc(mp.mpf(rat.numerator) / rat.denominator)
        if coef:
            root = mp.sqrt(mp.mpc(m.numerator) / m.denominator)
            val = val + (mp.mpf(coef.numerator) / coef.denominator) * root
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
        """A value with no root part reads as its rational; the root of a
        negative square is printed as i times its rational: sqrt(-4) reads 2*i."""
        if not self.coef:
            return str(self.rat)
        root = _exact_root(abs(self.m))  # None for every positive m
        if root is None:
            coef, unit = self.coef, (f"i*sqrt({-self.m})" if self.m < 0 else f"sqrt({self.m})")
        else:  # i times a rational
            coef, unit = self.coef * root, "i"
        term = unit if abs(coef) == 1 else f"{abs(coef)}*{unit}"
        if self.rat == 0:
            return term if coef > 0 else f"-{term}"
        return f"{self.rat} {'+' if coef > 0 else '-'} {term}"


class Jet:
    """Truncated Taylor expansion at theta = 0, dense up to a total degree,
    exact over one field Q(sqrt(r)).

    The coefficient at the multi-index e is
    i^{|e|} (x_e + y_e sqrt(r)) / (scale * |e|! * base^{|e|}), with integers
    x_e, y_e, scale > 0 and base > 0, and one integer radicand r that is 0 (a
    rational jet: every y_e is 0) or no perfect square (``QuadVal`` folds
    rational roots), so a coefficient is 0 exactly when x_e = y_e = 0.  The
    powers of i multiply as the multi-indices add, so the pairs multiply as a
    power series over Q(sqrt(r)); the divided powers |e|! base^{|e|} keep
    products, and the reciprocal and logarithm of 1 + h, integral over one
    base: a product of degrees k1 and k2 only takes the binomial
    C(k1 + k2, k1).  ``coeffs`` maps each multi-index with a
    nonzero coefficient to its pair (x_e, y_e), read outside as a ``QuadVal``
    (``value``).  Multi-indices are trusted.
    """

    __slots__ = ("dim", "order", "r", "scale", "base", "coeffs")

    def __init__(self, dim, order, coeffs=None, r=0, scale=1, base=1):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.dim, self.order, self.r, self.scale, self.base = dim, order, r, scale, base
        self.coeffs = {e: c for e, c in (coeffs or {}).items()
                       if sum(e) <= order and (c[0] or c[1])}

    @classmethod
    def const(cls, dim, order, value):
        value = _as_fraction(value)
        return cls(dim, order, {(0,) * dim: (value.numerator, 0)}, scale=value.denominator)

    def value(self, expo):
        """The coefficient at ``expo`` is i^{|e|} times this exact value."""
        x, y = self.coeffs.get(expo, (0, 0))
        k = sum(expo)
        den = self.scale * math.factorial(k) * self.base ** k
        return QuadVal._of(x, y, den, self.r)

    def values(self):
        """``value`` at each multi-index with a nonzero coefficient."""
        return {e: self.value(e) for e in self.coeffs}

    def tail(self, degree):
        """The terms of total degree ``degree`` and above."""
        return Jet(self.dim, self.order, {e: c for e, c in self.coeffs.items() if sum(e) >= degree},
                   self.r, self.scale, self.base)

    def _reduced(self):
        """The same jet with scale and numerators divided by their gcd."""
        g = math.gcd(self.scale, *(v for c in self.coeffs.values() for v in c))
        if g == 1:
            return self
        return Jet(self.dim, self.order,
                   {e: (x // g, y // g) for e, (x, y) in self.coeffs.items()},
                   self.r, self.scale // g, self.base)

    def __neg__(self):
        return Jet(self.dim, self.order, {e: (-x, -y) for e, (x, y) in self.coeffs.items()},
                   self.r, self.scale, self.base)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self._product(other, False, min(self.order, other.order))

    def _fixes(self, other, degree):
        """Refuse a product with other to ``degree`` unless each factor fixes
        it: its order plus the other's lowest degree reaches ``degree``."""
        for f, g in ((self, other), (other, self)):
            if f.order + min(map(sum, g.coeffs), default=g.order) < degree:
                raise ValueError(f"a jet of order {f.order} does not fix the product "
                                 f"to degree {degree}")

    def times(self, other, degree):
        """self * other to ``degree``, which the factors must fix; the degrees
        a factor does not know then meet only degrees of the other past it."""
        self._fixes(other, degree)
        return (Jet(self.dim, degree, self.coeffs, self.r, self.scale, self.base)
                * Jet(other.dim, degree, other.coeffs, other.r, other.scale, other.base))

    def even_part(self, other, degree):
        """``value`` of self * other at its even multi-indices 2b, keyed by b,
        to ``degree``, which the factors must fix, without forming the rest."""
        self._fixes(other, degree)
        even = self._product(other, True, degree)
        return {tuple(x >> 1 for x in e): even.value(e) for e in even.coeffs}

    def _product(self, other, even, order):
        """self * other to ``order``, or with ``even`` only at even multi-indices,
        where a term pairs only with the terms of other of its parities; each
        pair moves to the common base by one integer factor per degree pair."""
        if self.dim != other.dim:
            raise ValueError("jet dimension mismatch")
        if self.r and other.r and self.r != other.r:
            raise ValueError("jets over different fields")
        r, base = self.r or other.r, math.lcm(self.base, other.base)
        s1, s2 = base // self.base, base // other.base
        parity = (1).__and__  # x & 1
        groups = {}  # (parity class, degree) -> terms
        for e, c in other.coeffs.items():
            groups.setdefault((tuple(map(parity, e)) if even else (), sum(e)), []).append((e, c))
        rows = {}  # parity class -> [(degree, terms)] by degree
        for (key, d2), row in sorted(groups.items()):
            rows.setdefault(key, []).append((d2, row))
        out = {}
        for e1, (x1, y1) in self.coeffs.items():
            d1 = sum(e1)
            x1, y1 = x1 * s1 ** d1, y1 * s1 ** d1
            for d2, row in rows.get(tuple(map(parity, e1)) if even else (), ()):
                if d1 + d2 > order:
                    break
                c = math.comb(d1 + d2, d2) * s2 ** d2
                _mul_into(out, r, e1, c * x1, c * y1, row)
        return Jet(self.dim, order, out, r, self.scale * other.scale, base)

    def _unit_part(self):
        """h = f / f(0) - 1 by degree, integral over the base returned with it,
        and the pair of f(0) with its norm (a nonzero integer, as r is 0 or no
        square): f_e / f(0) = f_e conj(f(0)) / norm with the scales cancelled."""
        zero = (0,) * self.dim
        if zero not in self.coeffs:
            raise ZeroDivisionError("jet has zero constant term")
        r = self.r
        x0, y0 = self.coeffs[zero]
        norm = x0 * x0 - r * y0 * y0
        num = {e: (x * x0 - r * y * y0, y * x0 - x * y0)
               for e, (x, y) in self.coeffs.items() if any(e)}
        # h_e = (num_e / g) nu^{|e|-1} / (|e|! (base nu)^{|e|}), nu = norm / g
        g = math.gcd(norm, *(v for c in num.values() for v in c))
        nu = abs(norm) // g
        step = [(1 if norm > 0 else -1) * nu ** (k - 1) for k in range(1, self.order + 1)]
        parts = [{} for _ in range(self.order + 1)]
        for e, (x, y) in num.items():
            k = sum(e)
            parts[k][e] = (x // g * step[k - 1], y // g * step[k - 1])
        return parts, self.base * nu, (x0, y0, norm)

    def _by_degree(self, h, first, weight, plus_self=False):
        """Solve X_0 = first, X_D = p_D + sum_{0<i<=D} weight(i, D) (h_i X_{D-i})_D
        for D = 1..order, h_i the degree-i part of ``h`` and p_D = h_D if
        ``plus_self`` else 0: one triangular product in all."""
        parts = [first]
        for deg in range(1, self.order + 1):
            acc = dict(h[deg]) if plus_self else {}
            for i in range(1, deg + 1):
                w = weight(i, deg)
                if w and parts[deg - i]:
                    items = parts[deg - i].items()
                    for e1, (x1, y1) in h[i].items():
                        _mul_into(acc, self.r, e1, w * x1, w * y1, items)
            parts.append(acc)
        return {e: c for part in parts for e, c in part.items()}

    def reciprocal(self):
        """1/f for a jet with nonzero constant term: 1/f(0) times the
        reciprocal R of 1 + h, h = f/f(0) - 1, which solves (1 + h) R = 1
        degree by degree as R_D = -sum_{0<i<=D} C(D, i) h_i R_{D-i}."""
        h, base, (x0, y0, norm) = self._unit_part()
        parts = self._by_degree(h, {(0,) * self.dim: (1, 0)}, lambda i, deg: -math.comb(deg, i))
        # 1/f(0) = scale conj(f(0)) / norm
        sign = 1 if norm > 0 else -1
        a, b = sign * self.scale * x0, -sign * self.scale * y0
        out = {}
        _mul_into(out, self.r, (0,) * self.dim, a, b, parts.items())
        return Jet(self.dim, self.order, out, self.r, abs(norm), base)._reduced()

    def log(self):
        """log(f / f(0)) for a jet with nonzero constant term: the logarithm
        with constant term 0, exact.

        L = log(1 + h) solves E L = E h - h E L, E the Euler operator (a term
        of degree D times D), so in divided powers
        L_D = h_D - sum_{0<i<D} C(D-1, i) h_i L_{D-i}.
        """
        h, base, _ = self._unit_part()
        parts = self._by_degree(h, {}, lambda i, deg: -math.comb(deg - 1, i), plus_self=True)
        return Jet(self.dim, self.order, parts, self.r, 1, base)


def _mul_into(out, r, e1, x1, y1, row):
    """out += (x1 + y1 sqrt(r)) z^e1 * row, ``row`` an iterable of (e2, (x2, y2))."""
    for e2, (x2, y2) in row:
        e = tuple(map(add, e1, e2))
        px, py = x1 * x2 + r * y1 * y2, x1 * y2 + y1 * x2
        if e in out:
            ox, oy = out[e]
            out[e] = (ox + px, oy + py)
        else:
            out[e] = (px, py)


@functools.cache
def _substitution_tables(dim, order):
    """What every substitution jet of one dimension and order shares: the
    multi-indices k to total degree ``order``; for each k past the first, its
    parent step (the position of k minus 1 at its first nonzero place j, and
    j); and each k's multinomial |k|!/k!, which turns 1/k! into divided
    powers (1/k! = (|k|!/k!) / |k|!)."""
    index = tuple(multi_indices(dim, order))
    pos = {k: i for i, k in enumerate(index)}
    steps = []
    for k in index[1:]:
        j = next(j for j, kj in enumerate(k) if kj)
        steps.append((pos[k[:j] + (k[j] - 1,) + k[j + 1:]], j))
    mults = tuple(math.factorial(sum(k)) // math.prod(map(math.factorial, k)) for k in index)
    return index, tuple(steps), mults


def jet_of_exponential_substitution(p, center, order):
    """Taylor jet at theta=0 of theta |-> p(c_1 e^{i theta_1}, ..., c_d e^{i theta_d}).

    Each c_j is a rational (a rational ``QuadVal`` reads as its rational) or
    a ``QuadVal`` r*sqrt(m) with one m for all, so each term of p is x or
    y*sqrt(m) at c, with rational x or y; exp(i<e,theta>) has the Taylor
    coefficient i^{|k|} e^k / k! at k.  The coefficient at k is
    i^{|k|}/k! (X_k + Y_k sqrt(m)), with X_k and Y_k exact sums over the terms.
    With m = a/b in lowest terms, sqrt(m) = sqrt(ab)/b, so the jet lies over
    Q(sqrt(ab)); ab is no perfect square, since ``QuadVal`` folds a rational root.
    """
    d = p.dim
    if len(center) != d:
        raise ValueError("center length does not match dimension")
    center = [c.rat if isinstance(c, QuadVal) and not c.m else c for c in center]
    m = next((c.m for c in center if isinstance(c, QuadVal)), Fraction(0))
    if any(isinstance(c, QuadVal) and (c.rat or c.m != m) for c in center):
        raise ValueError("center coordinates must be rationals or multiples of one sqrt(m)")
    # c_j = r_j sqrt(m)^s_j
    coords = [(c.coef, 1) if isinstance(c, QuadVal) else (_as_fraction(c), 0) for c in center]
    terms = []  # (e, a, b, odd): the term's value is a/b * sqrt(m)^odd, in integers
    for expo, coeff in p.terms.items():
        half = sum(s * e for (_, s), e in zip(coords, expo))
        a, b = coeff.numerator, coeff.denominator
        for x, e in [(r, e) for (r, _), e in zip(coords, expo)] + [(m, half // 2)]:
            up, down = (x.numerator, x.denominator) if e > 0 else (x.denominator, x.numerator)
            a, b = a * up ** abs(e), b * down ** abs(e)
        terms.append((expo, a, b, half % 2) if b > 0 else (expo, -a, -b, half % 2))
    den = math.lcm(*(b for _, _, b, _ in terms))  # X_k, Y_k summed as integers
    index, steps, mults = _substitution_tables(d, order)
    sums = []  # [X_k, Y_k] for k in index: sum over the terms of value * e^k
    for odd in (0, 1):
        part = [(expo, a * (den // b)) for expo, a, b, o in terms if o == odd]
        rows = [[v for _, v in part]]
        cols = [[expo[j] for expo, _ in part] for j in range(d)]
        for parent, j in steps:
            rows.append(list(map(mul, rows[parent], cols[j])))
        sums.append([sum(row) for row in rows])
    q = m.denominator
    out = {k: (q * x * mult, y * mult) for k, mult, x, y in zip(index, mults, *sums)}
    return Jet(d, order, out, m.numerator * q, q * den)._reduced()
