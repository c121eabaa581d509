"""Exact arithmetic for rotation angles.

Angles are carried as exact elements a + b*sqrt(d) of a real quadratic
field (b = 0 gives plain rationals), stored as four integers (p, r, c, d)
for (p + r*sqrt(d))/c.  The form is normal: c > 0, gcd(p, r, c) = 1, d is
square-free and r = 0 exactly when d = 0, so equal numbers have equal
integers.  The public constructor brings rational a, b and an integer d
up to MAX_DISCRIMINANT to this form; the operators build their results
from integers with one gcd, and a comparison within a field takes the
sign of x + y*sqrt(d) from x, y and the integer test x^2 against y^2 d.
Comparisons are exact also between different fields.  The coding kernel
in denshoe.symbolic decides most symbols from float values and settles
the rest in this arithmetic; `QuadReal.float_enclosure` gives the float
value of an angle together with the certified bound 8u(|a| + |b|sqrt(d)),
u = 2^-53, on its error that makes those float decisions safe.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .errors import InvalidArgument

#: unit roundoff of float64
_UNIT = 2.0 ** -53
MAX_DISCRIMINANT = 2 ** 32  # largest d taken: trial division to sqrt(d) takes a few ms


def _square_free(d: int) -> tuple[int, int]:
    """Return (s, d') with d = s^2 * d' and d' square-free."""
    if not 0 <= d <= MAX_DISCRIMINANT:
        raise InvalidArgument(f"the discriminant {d} is negative or above {MAX_DISCRIMINANT}")
    s = 1
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


def _sign(x: int, y: int, d: int) -> int:
    """Sign of x + y*sqrt(d) for integers x, y and d square-free > 1 when
    y != 0; x^2 = y^2 d is then impossible, so the larger square wins when
    the signs differ."""
    if y > 0:
        return 1 if x >= 0 or y * y * d > x * x else -1
    if y < 0:
        return -1 if x <= 0 or y * y * d > x * x else 1
    return (x > 0) - (x < 0)


class QuadReal:
    """Exact real number of the form a + b*sqrt(d), a and b rational."""

    __slots__ = ("_p", "_r", "_c", "d")

    def __init__(self, a, b=0, d: int = 0):
        try:
            a = Fraction(a)
            b = Fraction(b)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise InvalidArgument(f"coefficients {a!r}, {b!r} are not finite rationals") from None
        try:
            whole = int(d) == d
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise InvalidArgument(f"the discriminant {d!r} is not an integer")
        d = int(d)
        if b == 0:
            d = 0
        elif d == 0:
            b = Fraction(0)
        else:
            s, d = _square_free(d)
            b *= s
            if d == 1:
                a += b
                b = Fraction(0)
                d = 0
        # over the least common denominator gcd(p, r, c) is already 1
        c = math.lcm(a.denominator, b.denominator)
        _set_p(self, a.numerator * (c // a.denominator))
        _set_r(self, b.numerator * (c // b.denominator))
        _set_c(self, c)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadReal is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._c)

    @property
    def b(self) -> Fraction:
        return Fraction(self._r, self._c)

    def _common_d(self, other: "QuadReal") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise InvalidArgument(f"incompatible quadratic fields sqrt({self.d}) and sqrt({other.d})")

    # --- arithmetic -----------------------------------------------------

    def _plus(self, o: "QuadReal", s: int) -> "QuadReal":
        """self + s*o for s = 1 or -1."""
        d = self._common_d(o)
        c1, c2 = self._c, o._c
        if c1 == c2:
            return _reduced(self._p + s * o._p, self._r + s * o._r, c1, d)
        return _reduced(self._p * c2 + s * o._p * c1, self._r * c2 + s * o._r * c1, c1 * c2, d)

    def __add__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._p, -self._r, self._c, self.d)

    def __sub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self._plus(o, -1)

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o._plus(self, -1)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        p1, r1, p2, r2 = self._p, self._r, o._p, o._r
        return _reduced(p1 * p2 + r1 * r2 * d, p1 * r2 + r1 * p2, self._c * o._c, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Rational):
            return NotImplemented
        q = Fraction(other)
        n, m = q.numerator, q.denominator
        if n == 0:
            raise InvalidArgument(f"{self!r} divided by zero")
        if n < 0:
            n, m = -n, -m
        return _reduced(self._p * m, self._r * m, self._c * n, self.d)

    # --- comparisons ----------------------------------------------------

    def sign(self) -> int:
        return _sign(self._p, self._r, self.d)

    def _cmp(self, o: "QuadReal") -> int:
        d = self.d or o.d
        if d == o.d or not o.d:
            # one field: the sign of (x + y sqrt(d)) / (c1 c2)
            c1, c2 = self._c, o._c
            return _sign(self._p * c2 - o._p * c1, self._r * c2 - o._r * c1, d)
        # different fields: sign of p + q with p = (a - c) + b sqrt(d) and
        # q = -e sqrt(f).  When the signs differ, the larger square wins, and
        # p^2 - q^2 lies in the field of p; it is never 0 because 1, sqrt(d)
        # and sqrt(f) are linearly independent over Q.
        c1, c2 = self._c, o._c
        p = _reduced(self._p * c2 - o._p * c1, self._r * c2, c1 * c2, self.d)
        sp, sq = p.sign(), (-o.b > 0) - (-o.b < 0)
        if sp in (0, sq):
            return sq
        return sp if (p * p - o.b * o.b * o.d).sign() > 0 else sq

    def __lt__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self._cmp(o) < 0

    def __le__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self._cmp(o) <= 0

    def __gt__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self._cmp(o) > 0

    def __ge__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self._cmp(o) >= 0

    def __eq__(self, other):
        # the normal form is unique, so equal numbers have equal integers
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._p == o._p and self._r == o._r and self._c == o._c and self.d == o.d

    def __hash__(self):
        if self._r == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # --- floor / frac / float -------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._r == 0

    def __float__(self) -> float:
        try:
            return self._p / self._c + self._r / self._c * math.sqrt(self.d)
        except OverflowError:
            raise InvalidArgument(f"{self!r} has no float value") from None

    def float_enclosure(self) -> tuple[float, float]:
        """float(self) and a bound on its distance from self.

        float() rounds a, b and sqrt(d), then one product and one sum, so
        it is off by at most 4u(|a| + |b|sqrt(d)), u = 2^-53.  The bound is
        taken from |a| + |b|sqrt(d), not from |self|, because the two terms
        can cancel: 20*sqrt(11) - 66 is 0.33 but carries the rounding of 66.
        It is doubled to cover the rounding of its own evaluation.  Values
        beyond the float range come back with an infinite bound."""
        try:
            a, b = self._p / self._c, self._r / self._c
        except OverflowError:
            return 0.0, math.inf
        s = math.sqrt(self.d)
        return a + b * s, 8 * _UNIT * (abs(a) + abs(b) * s)

    def floor(self) -> int:
        # r sqrt(d) is irrational, so its floor is isqrt(r^2 d) when r > 0
        # and one below -isqrt(r^2 d) when r < 0, and floor(x / c) equals
        # floor(floor(x) / c) for an integer c > 0
        p, r = self._p, self._r
        if r == 0:
            return p // self._c
        root = math.isqrt(r * r * self.d)
        return (p + (root if r > 0 else -root - 1)) // self._c

    def frac(self) -> "QuadReal":
        """Fractional part in [0, 1)."""
        # subtracting a multiple of c keeps gcd(p, r, c) = 1
        return _make(self._p - self.floor() * self._c, self._r, self._c, self.d)

    def __repr__(self):
        if self._r == 0:
            return f"QuadReal({self.a})"
        return f"QuadReal({self.a} + {self.b}*sqrt({self.d}))"


_new = object.__new__
_set_p, _set_r, _set_c, _set_d = (QuadReal._p.__set__, QuadReal._r.__set__,
                                  QuadReal._c.__set__, QuadReal.d.__set__)


def _make(p: int, r: int, c: int, d: int) -> QuadReal:
    """The QuadReal (p + r sqrt(d))/c of integers already in normal form."""
    x = _new(QuadReal)
    _set_p(x, p)
    _set_r(x, r)
    _set_c(x, c)
    _set_d(x, d)
    return x


def _reduced(p: int, r: int, c: int, d: int) -> QuadReal:
    """(p + r sqrt(d))/c in normal form, for c > 0 and d = 0 or square-free."""
    if r == 0:
        d = 0
    g = math.gcd(p, r, c)
    if g != 1:
        p, r, c = p // g, r // g, c // g
    return _make(p, r, c, d)


def _coerce(x) -> QuadReal | None:
    """x as a QuadReal, or None when it is not an exact number, so that the
    operators can return NotImplemented."""
    if isinstance(x, QuadReal):
        return x
    if type(x) is int:
        return _make(x, 0, 1, 0)
    if isinstance(x, Rational):
        f = Fraction(x)
        return _make(f.numerator, 0, f.denominator, 0)
    return None


def as_real(x) -> QuadReal:
    """Coerce int / Fraction / QuadReal to QuadReal.  Floats are rejected:
    `coding_block` takes a float angle as the Fraction of its value."""
    v = _coerce(x)
    if v is None:
        raise InvalidArgument(f"expected an exact angle, got {type(x).__name__}")
    return v


def is_exact(x) -> bool:
    return isinstance(x, (QuadReal, Rational)) and not isinstance(x, bool)


#: (3 - sqrt(5)) / 2, the square of the inverse golden ratio
ALPHA_STAR = QuadReal(Fraction(3, 2), Fraction(-1, 2), 5)


def continued_fraction(x, depth: int) -> list[int]:
    """First `depth` partial quotients of x (exact for QuadReal input).  A
    float x must be finite."""
    terms = []
    if is_exact(x):
        v = as_real(x)
        for _ in range(depth):
            n = v.floor()
            terms.append(n)
            v = v - n
            if v.sign() == 0:
                break
            # v in (0,1): 1/((p + r sqrt d)/c) = c (p - r sqrt d) / (p^2 - r^2 d)
            p, r, c, d = v._p, v._r, v._c, v.d
            den = p * p - r * r * d
            s = 1 if den > 0 else -1
            v = _reduced(s * c * p, -s * c * r, s * den, d)
    else:
        v = float(x)
        if not math.isfinite(v):
            raise InvalidArgument(f"{x!r} has no continued fraction")
        for _ in range(depth):
            n = math.floor(v)
            terms.append(n)
            v -= n
            if v < 1e-12:
                break
            v = 1.0 / v
    return terms


def convergents(x, depth: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents (p, q) of x, up to `depth` of them."""
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    for a in continued_fraction(x, depth):
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
    return out
