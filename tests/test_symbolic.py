"""Tests for the symbolic coding core.

Expected values were computed with independent oracles: direct
high-precision fractional-part evaluation (mpmath) for coding symbols,
and exhaustive enumeration for factor statistics.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from denshoe import symbolic as sy
from denshoe.errors import NotSturmian, WindowTooShort
from denshoe.exact import ALPHA_STAR, QuadReal


def oracle_symbol(alpha_expr: str, theta: float, k: int) -> int:
    """Independent oracle: evaluate {theta + k*alpha} at 80 digits and apply
    the half-open rule, resolving exact endpoint hits explicitly."""
    with mpmath.workdps(80):
        a = eval(alpha_expr, {"mp": mpmath})
        t = mpmath.frac(mpmath.mpf(theta) + k * a)
        if abs(t) < mpmath.mpf("1e-60") or abs(t - 1) < mpmath.mpf("1e-60"):
            return 0  # the point is 0, the included endpoint of [0, alpha)
        if abs(t - a) < mpmath.mpf("1e-60"):
            return 1  # the point is alpha, excluded from [0, alpha)
        return 0 if t < a else 1


ALPHA_STAR_EXPR = "(3 - mp.sqrt(5))/2"


class TestSturmianSymbol:
    def test_k0_is_zero(self):
        assert sy.sturmian_symbol(ALPHA_STAR, 0, 0) == 0

    def test_k1_oracle(self):
        # {alpha*} = alpha* which is not in [0, alpha*)
        assert sy.sturmian_symbol(ALPHA_STAR, 0, 1) == oracle_symbol(ALPHA_STAR_EXPR, 0, 1) == 1

    def test_k3_oracle(self):
        # {3 alpha*} ~ 0.1459 < alpha*
        assert sy.sturmian_symbol(ALPHA_STAR, 0, 3) == oracle_symbol(ALPHA_STAR_EXPR, 0, 3) == 0

    def test_window_matches_oracle_on_range(self):
        w = sy.sturmian_window(ALPHA_STAR, 0, 40)
        for k in range(-40, 41):
            assert w[k] == oracle_symbol(ALPHA_STAR_EXPR, 0, k), k

    def test_float_path_agrees_with_exact(self):
        af = float(ALPHA_STAR)
        w_exact = sy.sturmian_window(ALPHA_STAR, 0, 200)
        w_float = sy.sturmian_window(af, 0.0, 200)
        assert w_exact.symbols == w_float.symbols

    def test_theta_offset(self):
        theta = Fraction(1, 7)
        for k in range(-10, 11):
            got = sy.sturmian_symbol(ALPHA_STAR, theta, k)
            want = oracle_symbol(ALPHA_STAR_EXPR, 1 / 7, k)
            assert got == want


class TestWindow:
    def test_radius2(self):
        assert sy.sturmian_window(ALPHA_STAR, 0, 2).symbols == (0, 1, 0, 1, 1)

    def test_radius0_theta0(self):
        for alpha in (ALPHA_STAR, QuadReal(0, 1, 2).frac()):
            assert sy.sturmian_window(alpha, 0, 0).symbols == (0,)

    def test_forward_seven(self):
        w = sy.sturmian_window(ALPHA_STAR, 0, 6)
        assert w.segment(0, 6) == "0110110"

    @pytest.mark.parametrize("rounding", [mpmath.floor, mpmath.ceil], ids=["below", "above"])
    def test_offset_from_another_field(self, rounding):
        # theta + 5*alpha is within 1e-40 of 3, below it or above it, so the
        # filter sends k = 5 to exact arithmetic with sqrt(3) and sqrt(2)
        with mpmath.workdps(60):
            a = mpmath.sqrt(2) - 1
            r = Fraction(int(rounding((3 - mpmath.sqrt(3) - 5 * a) * 10 ** 40)), 10 ** 40)
            th = mpmath.mpf(r.numerator) / r.denominator + mpmath.sqrt(3)
            want = tuple(0 if mpmath.frac(th + k * a) < a else 1 for k in range(-10, 11))
        assert sy.sturmian_window(QuadReal(-1, 1, 2), QuadReal(r, 1, 3), 10).symbols == want


class TestShiftDistance:
    def test_identical(self):
        w = sy.sturmian_window(ALPHA_STAR, 0, 10)
        assert sy.shift_distance(w, w).value == 0

    def test_single_difference_k3(self):
        u = sy.CentralWindow.from_word("0" * 9)
        flipped = list(u.symbols)
        flipped[3 + u.radius] = 1
        v = sy.CentralWindow(4, tuple(flipped))
        assert sy.shift_distance(u, v).value == Fraction(1, 4)

    def test_single_difference_k0(self):
        u = sy.CentralWindow.from_word("000")
        v = sy.CentralWindow.from_word("010")
        assert sy.shift_distance(u, v).value == 1

    def test_truncation_flag(self):
        u = sy.sturmian_window(ALPHA_STAR, 0, 5)
        v = sy.sturmian_window(ALPHA_STAR, 0, 9)
        d = sy.shift_distance(u, v)
        assert d.truncated and d.value == 0

    def test_metric_cylinder_duality_bruteforce(self):
        # d(u,v) <= 1/(n+2)  iff  u,v agree on [-n, n]
        rng = random.Random(20240817)
        for _ in range(400):
            r = 20
            base = [rng.randint(0, 1) for _ in range(2 * r + 1)]
            other = list(base)
            if rng.random() < 0.8:
                for _ in range(rng.randint(1, 4)):
                    other[rng.randrange(2 * r + 1)] ^= 1
            u = sy.CentralWindow(r, tuple(base))
            v = sy.CentralWindow(r, tuple(other))
            d = sy.shift_distance(u, v).value
            for n in range(r + 1):
                agree = all(u[k] == v[k] for k in range(-n, n + 1))
                assert (d <= Fraction(1, n + 2)) == agree


    def test_agreement_radius_unequal_radii_bruteforce(self):
        rng = random.Random(20261018)
        for _ in range(300):
            ru, rv = rng.randint(0, 12), rng.randint(0, 12)
            u = sy.CentralWindow(ru, tuple(rng.randint(0, 1) for _ in range(2 * ru + 1)))
            sv = [u[k] if abs(k) <= ru else rng.randint(0, 1) for k in range(-rv, rv + 1)]
            if rng.random() < 0.8:
                sv[rng.randrange(2 * rv + 1)] ^= 1
            v = sy.CentralWindow(rv, tuple(sv))
            r = min(ru, rv)
            want = next((k for k in range(r + 1) if u[k] != v[k] or u[-k] != v[-k]), None)
            assert sy.agreement_radius(u, v) == sy.agreement_radius(v, u) == want
            assert sy.shift_distance(u, v).value == (0 if want is None else Fraction(1, want + 1))


class TestFactors:
    def test_length1(self):
        w = sy.sturmian_window(ALPHA_STAR, 0, 400)
        fs = sy.factor_set(w, 1)
        assert fs.words == {"0", "1"} and len(fs) == 2

    def test_length2_no_00(self):
        # alpha* < 1/2 forbids adjacent zeros
        w = sy.sturmian_window(ALPHA_STAR, 0, 400)
        assert sy.factor_set(w, 2).words == {"01", "10", "11"}

    def test_constant_word(self):
        w = sy.CentralWindow.from_word("0" * 21)
        fs = sy.factor_set(w, 5)
        assert fs.words == {"00000"} and len(fs) == 1

    def test_window_too_short(self):
        w = sy.CentralWindow.from_word("010")
        with pytest.raises(WindowTooShort, match="window length 3 < factor length 9$"):
            sy.factor_set(w, 9)
        with pytest.raises(WindowTooShort, match="window length 3 < factor length 100$"):
            sy.factor_family(w, 100)

    def test_complexity_saturates_to_n_plus_1(self):
        w = sy.sturmian_window(ALPHA_STAR, 0, 2000)
        for n in list(range(1, 26)) + [40, 50]:
            assert sy.complexity(w, n) == n + 1


class TestBalance:
    def test_sturmian_balanced(self):
        w = sy.sturmian_window(ALPHA_STAR, 0, 500)
        for n in (1, 2, 5, 10, 25, 50):
            assert sy.balance_defect(w, n) <= 1

    def test_constant(self):
        w = sy.CentralWindow.from_word("1" * 31)
        assert sy.balance_defect(w, 7) == 0

    def test_0011_repeated(self):
        w = sy.CentralWindow.from_word(("0011" * 6)[:21])
        assert sy.balance_defect(w, 2) == 2

    def test_zero_frequency_within_one(self):
        # each length-n factor has 0-count within 1 of n*alpha
        w = sy.sturmian_window(ALPHA_STAR, 0, 500)
        a = float(ALPHA_STAR)
        for n in (10, 23, 50):
            for u in sy.factor_set(w, n).words:
                assert abs(u.count("0") - n * a) < 1


class TestLimitLanguage:
    def test_half_sides(self):
        assert sy.rational_limit_language(1, 2, +1, 2) == {"00", "01", "10"}
        assert sy.rational_limit_language(1, 2, -1, 2) == {"01", "10", "11"}

    def test_complexity_of_limit_language(self):
        for (p, q) in [(1, 3), (2, 5), (3, 8)]:
            for side in (+1, -1):
                for n in (q - 1, q, q + 3):
                    lang = sy.rational_limit_language(p, q, side, n)
                    assert len(lang) == n + 1

    def test_limit_language_matches_nearby_irrational(self):
        # language just above 2/5 equals the language of 2/5 + tiny*sqrt(2)
        p, q, n = 2, 5, 5
        beta = QuadReal(Fraction(p, q)) + QuadReal(0, Fraction(1, 10 ** 8), 2)
        w = sy.sturmian_window(beta, 0, 4000)
        assert sy.factor_set(w, n).words == sy.rational_limit_language(p, q, +1, n)


class TestRotationRecovery:
    def test_alpha_star_tight(self):
        w = sy.sturmian_window(ALPHA_STAR, 0, 1000)
        iv = sy.estimate_rotation_interval(w)
        assert iv.width <= Fraction(2, 1000)
        assert (ALPHA_STAR - iv.lo).sign() >= 0
        assert (QuadReal(iv.hi) - ALPHA_STAR).sign() >= 0

    def test_constant_zero(self):
        w = sy.CentralWindow.from_word("0" * 41)
        iv = sy.estimate_rotation_interval(w)
        assert iv.periodic and iv.lo == Fraction(40, 41) and iv.hi == 1

    @pytest.mark.parametrize("alpha, word, lo, hi", [
        (QuadReal(0, Fraction(1, 30), 2), "1" * 21, Fraction(0), Fraction(1, 21)),
        (1 - QuadReal(0, Fraction(1, 1000), 2), "0" * 21, Fraction(20, 21), Fraction(1)),
    ], ids=["ones", "zeros"])
    def test_constant_window_holds_the_slope(self, alpha, word, lo, hi):
        w = sy.sturmian_window(alpha, Fraction(13, 25), 10)
        iv = sy.estimate_rotation_interval(w)
        assert w.word() == word and (iv.lo, iv.hi) == (lo, hi) and iv.lo <= alpha <= iv.hi

    def test_alternating_contains_half(self):
        w = sy.CentralWindow.from_word("01" * 30 + "0")
        iv = sy.estimate_rotation_interval(w)
        assert iv.periodic and Fraction(1, 2) in iv

    def test_not_sturmian_rejected(self):
        w = sy.CentralWindow.from_word("0011" * 10 + "0")
        with pytest.raises(NotSturmian):
            sy.estimate_rotation_interval(w)

    def test_generator_always_inside(self):
        for i in (3, 11, 17, 29):
            g = QuadReal(0, Fraction(i, 61), 3).frac()
            if (g - Fraction(1, 2)).sign() > 0:
                g = QuadReal(1) - g
            w = sy.sturmian_window(g, 0, 600)
            iv = sy.estimate_rotation_interval(w)
            assert (g - iv.lo).sign() >= 0 and (QuadReal(iv.hi) - g).sign() >= 0

    def test_near_rational_generator(self):
        g = QuadReal(Fraction(1, 3)) + QuadReal(0, Fraction(1, 10 ** 6), 2)
        w = sy.sturmian_window(g, 0, 1000)
        iv = sy.estimate_rotation_interval(w)
        assert (g - iv.lo).sign() >= 0 and (QuadReal(iv.hi) - g).sign() >= 0


class TestSymbolicHausdorff:
    def test_equal_families(self):
        w = sy.sturmian_window(ALPHA_STAR, 0, 300)
        fam = sy.factor_family(w, 2 * 6 + 1)
        assert sy.symbolic_hausdorff(fam, fam, 6).value == Fraction(1, 8)

    def test_close_generators(self):
        # 13/34 and 21/55 are consecutive convergents of alpha*; a generator
        # between them shares every factor of length <= 13 with alpha*
        n = 6
        g = QuadReal(Fraction(13, 34)) - QuadReal(0, Fraction(1, 10 ** 9), 2)
        wa = sy.sturmian_window(ALPHA_STAR, 0, 3000)
        wb = sy.sturmian_window(g, 0, 3000)
        fa = sy.factor_family(wa, 2 * n + 1)
        fb = sy.factor_family(wb, 2 * n + 1)
        assert sy.symbolic_hausdorff(fa, fb, n).value <= Fraction(1, n + 2)

    def test_distant_generators(self):
        n = 4
        wa = sy.sturmian_window(ALPHA_STAR, 0, 500)
        wb = sy.sturmian_window(QuadReal(0, Fraction(1, 14), 2), 0, 500)  # ~0.101
        fa = sy.factor_family(wa, 2 * n + 1)
        fb = sy.factor_family(wb, 2 * n + 1)
        assert sy.symbolic_hausdorff(fa, fb, n).value > Fraction(1, n + 2)
