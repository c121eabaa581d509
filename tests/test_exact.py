"""Tests for exact quadratic-field angle arithmetic."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from denshoe.exact import (
    ALPHA_STAR,
    QuadReal,
    continued_fraction,
    convergents,
)


def test_alpha_star_value():
    assert abs(float(ALPHA_STAR) - (3 - math.sqrt(5)) / 2) < 1e-15


def test_square_free_reduction():
    assert QuadReal(0, 1, 8) == QuadReal(0, 2, 2)
    assert QuadReal(0, 1, 9) == QuadReal(3)  # perfect square folds to rational


def test_arithmetic_and_comparison():
    x = QuadReal(0, 1, 2)  # sqrt 2
    assert (x * x) == 2
    assert x > Fraction(7, 5) and x < Fraction(3, 2)
    y = x - 1
    assert 0 < y < 1
    assert (y + 1) == x


def test_floor_and_frac():
    x = QuadReal(0, 5, 2)  # 5 sqrt2 ~ 7.07
    assert x.floor() == 7
    f = x.frac()
    assert 0 <= float(f) < 1
    assert (f + 7) == x
    assert QuadReal(Fraction(-3, 2)).floor() == -2


def test_floor_near_integer():
    eps = QuadReal(0, Fraction(1, 10 ** 12), 2)
    assert (QuadReal(5) + eps).floor() == 5
    assert (QuadReal(5) - eps).floor() == 4


@pytest.mark.parametrize("a, b, d", [
    (0, 10 ** 400, 5),            # beyond the float range
    (-10 ** 24, 10 ** 24, 2),     # float(self) is about 1e8 off
    (10 ** 30, -10 ** 30, 3),
    (7, -3, 11),
])
def test_floor_of_huge_coefficients(a, b, d):
    # integer a, b: floor(b sqrt d) is isqrt(b^2 d), less one when b < 0
    root = math.isqrt(b * b * d)
    expected = a + (root if b > 0 else -root - 1)
    assert QuadReal(a, b, d).floor() == expected


def test_incompatible_fields_rejected():
    with pytest.raises(ValueError):
        QuadReal(0, 1, 2) + QuadReal(0, 1, 3)


def test_cross_field_comparisons():
    s2, s5 = QuadReal(-1, 1, 2), ALPHA_STAR   # 0.414 and 0.382
    assert s2 != s5 and not (s2 == s5)
    assert s5 < s2 and s5 <= s2 and s2 > s5 and s2 >= s5
    assert QuadReal(0, 1, 2) < QuadReal(0, 1, 3)


field_elements = st.builds(
    QuadReal,
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.fractions(min_value=-100, max_value=100, max_denominator=50).filter(bool),
    st.sampled_from((2, 3, 5, 7, 11, 13)),
)


def mp_value(z: QuadReal):
    return (mpmath.mpf(z.a.numerator) / z.a.denominator
            + mpmath.mpf(z.b.numerator) / z.b.denominator * mpmath.sqrt(z.d))


def assert_order_matches_mpmath(x: QuadReal, y: QuadReal):
    with mpmath.workdps(60):
        diff = mp_value(x) - mp_value(y)
    assert x != y and abs(diff) > mpmath.mpf(10) ** -45
    assert (x < y, x <= y, x > y, x >= y) == (diff < 0, diff < 0, diff > 0, diff > 0)


@settings(max_examples=150, deadline=None)
@given(field_elements)
def test_floor_matches_mpmath(x):
    with mpmath.workdps(60):
        assert x.floor() == int(mpmath.floor(mp_value(x)))


@settings(max_examples=150, deadline=None)
@given(field_elements, field_elements)
def test_cross_field_order_matches_mpmath(x, y):
    assume(x.d != y.d)
    assert_order_matches_mpmath(x, y)


@settings(max_examples=150, deadline=None)
@given(field_elements, field_elements)
def test_cross_field_near_ties(x, z):
    # y = r + e sqrt(f) with r rounded so that y - x is about 1e-30
    assume(x.d != z.d)
    with mpmath.workdps(30):
        r = mp_value(x) - mp_value(QuadReal(0, z.b, z.d))
    y = QuadReal(Fraction(r.man) * Fraction(2) ** r.exp, z.b, z.d)
    assert_order_matches_mpmath(x, y)


def test_continued_fraction_golden():
    # alpha* = [0; 2, 1, 1, 1, ...]
    assert continued_fraction(ALPHA_STAR, 6) == [0, 2, 1, 1, 1, 1]


def test_convergents_approximate():
    cs = convergents(ALPHA_STAR, 10)
    p, q = cs[-1]
    assert abs(p / q - float(ALPHA_STAR)) < 1 / q ** 2
    # consecutive convergents are Farey neighbors
    for (p1, q1), (p2, q2) in zip(cs, cs[1:]):
        assert abs(p1 * q2 - p2 * q1) == 1
