"""The integer `QuadReal` against the `Fraction`-backed class it replaced.

`OracleQuadReal` is that class, copied here with only its name changed:
it keeps a + b*sqrt(d) as two Fractions and an int and normalizes every
result through its constructor.  Every operator, floor, frac, sign,
equality, hash, repr and the `.a` and `.b` coefficients of the integer
class must agree with it, for coefficients from small fractions up to
10^400 and the fields 0, 2, 3, 5, 7, 11 and 13.  `continued_fraction`
is also checked against mpmath at 60 digits, as tests/test_exact.py
checks cross-field order.
"""

import math
from fractions import Fraction
from numbers import Rational

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from denshoe.errors import InvalidArgument
from denshoe.exact import QuadReal, continued_fraction

_UNIT = 2.0 ** -53


def _square_free(d: int) -> tuple[int, int]:
    """Return (s, d') with d = s^2 * d' and d' square-free."""
    if d < 0:
        raise InvalidArgument("negative discriminant")
    s = 1
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


class OracleQuadReal:
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
    def _coerce(x) -> "OracleQuadReal | None":
        """x as a QuadReal, or None when it is not an exact number, so that
        the operators can return NotImplemented."""
        if isinstance(x, OracleQuadReal):
            return x
        if isinstance(x, Rational):
            return OracleQuadReal(Fraction(x))
        return None

    def _common_d(self, other: "OracleQuadReal") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise InvalidArgument(f"incompatible quadratic fields sqrt({self.d}) and sqrt({other.d})")

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return OracleQuadReal(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return OracleQuadReal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        if self.d == 0 or o.d == 0:
            # at most one irrational part
            return OracleQuadReal(self.a * o.a, self.a * o.b + self.b * o.a, d)
        return OracleQuadReal(self.a * o.a + self.b * o.b * d,
                        self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rational):
            q = Fraction(other)
            return OracleQuadReal(self.a / q, self.b / q, self.d)
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

    def _cmp(self, o: "OracleQuadReal") -> int:
        if not (self.d and o.d and self.d != o.d):
            return (self - o).sign()
        # different fields: sign of p + q with p = (a - c) + b sqrt(d) and
        # q = -e sqrt(f).  When the signs differ, the larger square wins, and
        # p^2 - q^2 lies in the field of p; it is never 0 because 1, sqrt(d)
        # and sqrt(f) are linearly independent over Q.
        p = OracleQuadReal(self.a - o.a, self.b, self.d)
        sp, sq = p.sign(), (-o.b > 0) - (-o.b < 0)
        if sp in (0, sq):
            return sq
        return sp if (p * p - o.b * o.b * o.d).sign() > 0 else sq

    def __lt__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._cmp(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._cmp(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._cmp(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._cmp(o) >= 0

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._cmp(o) == 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # --- floor / frac / float -------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __float__(self) -> float:
        try:
            return float(self.a) + float(self.b) * math.sqrt(self.d)
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
            return float(self), 8 * _UNIT * (abs(float(self.a))
                                             + abs(float(self.b)) * math.sqrt(self.d))
        except InvalidArgument:
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

    def frac(self) -> "OracleQuadReal":
        """Fractional part in [0, 1)."""
        return self - self.floor()

    def __repr__(self):
        if self.b == 0:
            return f"QuadReal({self.a})"
        return f"QuadReal({self.a} + {self.b}*sqrt({self.d}))"


def oracle_continued_fraction(x: OracleQuadReal, depth: int) -> list[int]:
    """The exact branch of the replaced `continued_fraction`."""
    terms = []
    v = x
    for _ in range(depth):
        n = v.floor()
        terms.append(n)
        v = v - n
        if v.sign() == 0:
            break
        a, b, d = v.a, v.b, v.d
        if b == 0:
            v = OracleQuadReal(1 / a)
        else:
            den = a * a - b * b * d
            v = OracleQuadReal(a / den, -b / den, d)
    return terms


FIELDS = (0, 2, 3, 5, 7, 11, 13)
PROPERTY = settings(max_examples=200, deadline=None)

small = st.one_of(st.integers(-5, 5), st.fractions(min_value=-100, max_value=100,
                                                   max_denominator=60))
huge = st.one_of(st.integers(10 ** 300, 10 ** 400), st.integers(-10 ** 400, -10 ** 300),
                 st.builds(Fraction, st.integers(-10 ** 400, 10 ** 400),
                           st.integers(1, 10 ** 400)))
coefficients = st.one_of(small, st.fractions(max_denominator=10 ** 12), huge)
rationals = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(max_denominator=10 ** 6))
fields = st.sampled_from(FIELDS)


@st.composite
def pairs(draw, coefficients=coefficients, d=None):
    """The same number as a QuadReal and as an OracleQuadReal."""
    a, b = draw(coefficients), draw(coefficients)
    d = draw(fields) if d is None else d
    return QuadReal(a, b, d), OracleQuadReal(a, b, d)


def same(x, y):
    """x, a QuadReal, is the number y, an OracleQuadReal, to the bit."""
    assert isinstance(x, QuadReal)
    assert (x.a, x.b, x.d) == (y.a, y.b, y.d)
    assert repr(x) == repr(y)
    assert hash(x) == hash(y)
    assert x.is_rational == y.is_rational
    # the normal form: c > 0, gcd(p, r, c) = 1, r = 0 exactly when d = 0
    p, r, c = x._p, x._r, x._c
    assert c > 0 and math.gcd(p, r, c) == 1 and (r == 0) == (x.d == 0)
    assert Fraction(p, c) == y.a and Fraction(r, c) == y.b


def outcome(f, *args):
    """f(*args), or the type of the InvalidArgument it raised."""
    try:
        return f(*args)
    except InvalidArgument as e:
        return type(e)


@PROPERTY
@given(coefficients, coefficients, st.sampled_from(FIELDS + (1, 4, 8, 12, 18, 50, 99)))
def test_constructor_normalizes_as_the_oracle(a, b, d):
    same(QuadReal(a, b, d), OracleQuadReal(a, b, d))


@PROPERTY
@given(pairs(), pairs(), rationals)
def test_arithmetic_matches_the_oracle(xy, uv, q):
    x, y = xy
    u, v = uv
    same(-x, -y)
    for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t):
        z, w = outcome(op, x, u), outcome(op, y, v)
        if w is InvalidArgument:       # incompatible fields
            assert z is InvalidArgument
        else:
            same(z, w)
        same(op(x, q), op(y, q))
        same(op(q, x), op(q, y))
    if q:
        same(x / q, y / q)


@PROPERTY
@given(pairs(), pairs(), rationals)
def test_order_and_equality_match_the_oracle(xy, uv, q):
    x, y = xy
    u, v = uv

    def order(s, t):
        return s < t, s <= t, s > t, s >= t, s == t, s != t

    for (s, t), (s0, t0) in (((x, u), (y, v)), ((x, x), (y, y)), ((x, -x), (y, -y)),
                             ((x, q), (y, q)), ((q, x), (q, y)), ((u, x), (v, y))):
        assert order(s, t) == order(s0, t0)
    assert x.sign() == y.sign()
    assert (x == q) == (y == q) and (q == x) == (q == y)
    if x.is_rational:
        assert x == y.a and hash(x) == hash(y.a)


@PROPERTY
@given(pairs())
def test_floor_frac_and_float_match_the_oracle(xy):
    x, y = xy
    assert x.floor() == y.floor()
    same(x.frac(), y.frac())
    assert outcome(float, x) == outcome(float, y)
    assert x.float_enclosure() == y.float_enclosure()


def mp_value(z):
    return (mpmath.mpf(z.a.numerator) / z.a.denominator
            + mpmath.mpf(z.b.numerator) / z.b.denominator * mpmath.sqrt(z.d))


@PROPERTY
@given(pairs(d=5))
def test_near_ties_match_the_oracle(xy):
    # rationals within about 1e-30 of x, on both sides: the integer sign
    # test of x - t then compares two nearly equal squares
    x, y = xy
    assume(not x.is_rational and abs(x.floor()) < 10 ** 6)
    with mpmath.workdps(40):
        r = mp_value(y)
    t = Fraction(r.man) * Fraction(2) ** r.exp
    for u in (t, t + Fraction(1, 10 ** 35), t - Fraction(1, 10 ** 35)):
        assert (x < u, x > u, x == u) == (y < u, y > u, y == u)


@PROPERTY
@given(pairs(), pairs())
def test_cross_field_order_matches_the_oracle(xy, uv):
    # tests/test_exact.py checks the same order against mpmath
    x, y = xy
    u, v = uv
    assume(x.d and u.d and x.d != u.d)
    assert (x < u, x <= u, x > u, x >= u, x == u) == (y < v, y <= v, y > v, y >= v, y == v)


@PROPERTY
@given(pairs(small))
@example((QuadReal(0, Fraction(127, 2), 7), OracleQuadReal(0, Fraction(127, 2), 7)))
def test_continued_fraction_matches_the_oracle_and_mpmath(xy):
    x, y = xy
    terms = continued_fraction(x, 12)
    assert terms == oracle_continued_fraction(y, 12)
    if x.is_rational:      # its remainders hit integers exactly
        return
    # the same quotients from a 150-digit float of x, as far as they are
    # certain: stop once the remainder's error could reach a quotient.
    # At 60 digits the error of 127/2 sqrt(7)'s 12th remainder, 0.003
    # above 192, had grown past that 0.003
    with mpmath.workdps(150):
        v, err = mp_value(x), mpmath.mpf(10) ** -145
        for t in terms:
            assert mpmath.floor(v - err) == mpmath.floor(v + err) == t
            v -= t
            if v == 0 or err / v > mpmath.mpf(10) ** -3:
                break
            v, err = 1 / v, err / (v * (v - err))


@PROPERTY
@given(pairs(huge))
def test_continued_fraction_of_huge_coefficients(xy):
    x, y = xy
    assert continued_fraction(x, 6) == oracle_continued_fraction(y, 6)
