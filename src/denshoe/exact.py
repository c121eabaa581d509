"""Exact arithmetic for rotation angles.

Angles are carried as exact elements a + b*sqrt(d) of a real quadratic
field (b = 0 gives plain rationals).  Comparisons are exact, also
between different fields.  The coding kernel in denshoe.symbolic decides
most symbols from float values and settles the rest in this arithmetic;
`QuadReal.float_enclosure` gives the float value of an angle together
with the certified bound 8u(|a| + |b|sqrt(d)), u = 2^-53, on its error
that makes those float decisions safe.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Rational

#: unit roundoff of float64
_UNIT = 2.0 ** -53


def _square_free(d: int) -> tuple[int, int]:
    """Return (s, d') with d = s^2 * d' and d' square-free."""
    if d < 0:
        raise ValueError("negative discriminant")
    s = 1
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


class QuadReal:
    """Exact real number of the form a + b*sqrt(d), a and b rational."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 0):
        a = Fraction(a)
        b = Fraction(b)
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
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadReal is immutable")

    # --- field coercion -------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QuadReal":
        if isinstance(x, QuadReal):
            return x
        if isinstance(x, Rational):
            return QuadReal(Fraction(x))
        raise TypeError(f"cannot coerce {type(x).__name__} to QuadReal")

    def _common_d(self, other: "QuadReal") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise ValueError(f"incompatible quadratic fields sqrt({self.d}) and sqrt({other.d})")

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        d = self._common_d(o)
        return QuadReal(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadReal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        d = self._common_d(o)
        if self.d == 0 or o.d == 0:
            # at most one irrational part
            return QuadReal(self.a * o.a, self.a * o.b + self.b * o.a, d)
        return QuadReal(self.a * o.a + self.b * o.b * d,
                        self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rational):
            q = Fraction(other)
            return QuadReal(self.a / q, self.b / q, self.d)
        return NotImplemented

    # --- comparisons ----------------------------------------------------

    def sign(self) -> int:
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d (d square-free > 1, so
        # equality is impossible)
        lhs, rhs = a * a, b * b * d
        if a > 0:  # b < 0: positive iff |a| > |b| sqrt(d)
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if not (self.d and o.d and self.d != o.d):
            return (self - o).sign()
        # different fields: sign of p + q with p = (a - c) + b sqrt(d) and
        # q = -e sqrt(f).  When the signs differ, the larger square wins, and
        # p^2 - q^2 lies in the field of p; it is never 0 because 1, sqrt(d)
        # and sqrt(f) are linearly independent over Q.
        p = QuadReal(self.a - o.a, self.b, self.d)
        sp, sq = p.sign(), (-o.b > 0) - (-o.b < 0)
        if sp in (0, sq):
            return sq
        return sp if (p * p - o.b * o.b * o.d).sign() > 0 else sq

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (QuadReal, Rational)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # --- floor / frac / float -------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def float_enclosure(self) -> tuple[float, float]:
        """float(self) and a bound on its distance from self.

        float() rounds a, b and sqrt(d), then one product and one sum, so
        it is off by at most 4u(|a| + |b|sqrt(d)), u = 2^-53.  The bound is
        taken from |a| + |b|sqrt(d), not from |self|, because the two terms
        can cancel: 20*sqrt(11) - 66 is 0.33 but carries the rounding of 66.
        It is doubled to cover the rounding of its own evaluation.  Values
        beyond the float range come back with an infinite bound."""
        try:
            return float(self), 8 * _UNIT * (abs(float(self.a))
                                             + abs(float(self.b)) * math.sqrt(self.d))
        except OverflowError:
            return 0.0, math.inf

    def floor(self) -> int:
        if self.b == 0:
            return math.floor(self.a)
        # over a common denominator self = (na + nb sqrt(d)) / den; nb sqrt(d)
        # is irrational, so its floor is isqrt(nb^2 d) when nb > 0 and one
        # below -isqrt(nb^2 d) when nb < 0, and floor(x / den) equals
        # floor(floor(x) / den) for an integer den > 0
        den = math.lcm(self.a.denominator, self.b.denominator)
        na = self.a.numerator * (den // self.a.denominator)
        nb = self.b.numerator * (den // self.b.denominator)
        root = math.isqrt(nb * nb * self.d)
        return (na + (root if nb > 0 else -root - 1)) // den

    def frac(self) -> "QuadReal":
        """Fractional part in [0, 1)."""
        return self - self.floor()

    def __repr__(self):
        if self.b == 0:
            return f"QuadReal({self.a})"
        return f"QuadReal({self.a} + {self.b}*sqrt({self.d}))"


def as_real(x) -> QuadReal:
    """Coerce int / Fraction / QuadReal to QuadReal.  Floats are rejected:
    float angles take the guard-band evaluation path instead."""
    if isinstance(x, QuadReal):
        return x
    if isinstance(x, Rational):
        return QuadReal(Fraction(x))
    raise TypeError(f"expected an exact angle, got {type(x).__name__}")


def is_exact(x) -> bool:
    return isinstance(x, (QuadReal, Rational)) and not isinstance(x, bool)


# --- the angle catalog ---------------------------------------------------

_DEC_RE = re.compile(r"^-?\d+\.\d+$")
_FRAC_RE = re.compile(r"^(-?\d+)/(\d+)$")
_SQRT_RE = re.compile(r"^sqrt(\d+)$")
_SQRT_OVER_RE = re.compile(r"^sqrt(\d+)-over-(\d+)$")
_AFFINE_RE = re.compile(r"^(-?\d+)([+-])sqrt(\d+)(?:-over-(\d+))?$")

#: (3 - sqrt(5)) / 2, the square of the inverse golden ratio
ALPHA_STAR = QuadReal(Fraction(3, 2), Fraction(-1, 2), 5)

_NAMED = {
    "golden": QuadReal(Fraction(-1, 2), Fraction(1, 2), 5),   # (sqrt5 - 1)/2
    "golden-square": ALPHA_STAR,                              # (3 - sqrt5)/2
    "3-sqrt5-over-2": ALPHA_STAR,
    "sqrt2-minus-1": QuadReal(-1, 1, 2),
}


def parse_angle(text: str):
    """Parse an angle spec: 'p/q', a decimal, 'sqrtD', 'sqrtD-over-c',
    'a+sqrtD-over-c', 'a-sqrtD-over-c', or a named catalog constant.
    Rationals and decimals come back exact; everything stays a QuadReal."""
    s = text.strip()
    if s in _NAMED:
        return _NAMED[s]
    m = _FRAC_RE.match(s)
    if m:
        return QuadReal(Fraction(int(m.group(1)), int(m.group(2))))
    if _DEC_RE.match(s):
        return QuadReal(Fraction(s))
    m = _SQRT_RE.match(s)
    if m:
        return QuadReal(0, 1, int(m.group(1)))
    m = _SQRT_OVER_RE.match(s)
    if m:
        return QuadReal(0, Fraction(1, int(m.group(2))), int(m.group(1)))
    m = _AFFINE_RE.match(s)
    if m:
        a = int(m.group(1))
        sign = 1 if m.group(2) == "+" else -1
        d = int(m.group(3))
        c = int(m.group(4)) if m.group(4) else 1
        return QuadReal(Fraction(a, c), Fraction(sign, c), d)
    try:
        return QuadReal(Fraction(int(s)))
    except ValueError:
        raise ValueError(f"unrecognized angle spec: {text!r}") from None


def continued_fraction(x, depth: int) -> list[int]:
    """First `depth` partial quotients of x (exact for QuadReal input)."""
    terms = []
    if is_exact(x):
        v = as_real(x)
        for _ in range(depth):
            n = v.floor()
            terms.append(n)
            v = v - n
            if v.sign() == 0:
                break
            # v in (0,1): invert exactly: 1/(a + b sqrt d)
            a, b, d = v.a, v.b, v.d
            if b == 0:
                v = QuadReal(1 / a)
            else:
                den = a * a - b * b * d
                v = QuadReal(a / den, -b / den, d)
    else:
        v = float(x)
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
    terms = continued_fraction(x, depth)
    out = []
    p0, q0, p1, q1 = 1, 0, terms[0], 1
    out.append((p1, q1))
    for a in terms[1:]:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
    return out
