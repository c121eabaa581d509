"""Tests for the explicit Denjoy construction."""

import math
from fractions import Fraction

import numpy as np
import pytest

from denshoe import circle as ci
from denshoe import symbolic as sy
from denshoe.errors import NotInMinimalSet, RationalAlpha
from denshoe.exact import ALPHA_STAR, QuadReal


@pytest.fixture(scope="module")
def denjoy():
    return ci.denjoy_build(ALPHA_STAR, 10 ** 4)


class TestBuild:
    def test_normalizer_partial_sums(self):
        # oracle: partial sums of the gap schedule converge to 1/2
        total = ci.gap_length(0)
        for n in range(1, 200000):
            total += 2 * ci.gap_length(n)
        assert abs(total - 0.5) < 1e-4
        assert ci.GAP_NORMALIZER == Fraction(1, 3)

    def test_gap_zero_length(self, denjoy):
        a0, b0 = denjoy.gap_zero
        assert a0 == 0.0 and abs(b0 - 1 / 6) < 1e-15

    def test_gaps_disjoint(self, denjoy):
        b = denjoy._a + denjoy._len
        assert np.all(b[:-1] <= denjoy._a[1:] + 1e-15)

    def test_rational_alpha_rejected(self):
        with pytest.raises(RationalAlpha):
            ci.denjoy_build(Fraction(2, 7))

    def test_error_budget(self, denjoy):
        assert denjoy.error_budget == pytest.approx(2 / 3 / (denjoy.cutoff + 2))


class TestEval:
    def test_endpoint_equivariance(self, denjoy):
        for n in (-3, -1, 0, 2, 5):
            a, b = denjoy.gap_endpoints(n)
            a2, b2 = denjoy.gap_endpoints(n + 1)
            assert denjoy(a) == pytest.approx(a2, abs=1e-13)
            assert denjoy(b) == pytest.approx(b2, abs=1e-13)

    def test_midpoint_affinity(self, denjoy):
        a, b = denjoy.gap_zero
        a2, b2 = denjoy.gap_endpoints(1)
        assert denjoy((a + b) / 2) == pytest.approx((a2 + b2) / 2, abs=1e-13)
        # quarter point maps to quarter point
        assert denjoy(a + (b - a) / 4) == pytest.approx(a2 + (b2 - a2) / 4, abs=1e-13)

    def test_inverse_round_trip(self, denjoy):
        for x in (0.03, 0.2, 0.55, 0.9):
            assert denjoy.inverse(denjoy(x)) == pytest.approx(x, abs=1e-10)

    @pytest.mark.parametrize("cutoff", [1000, 10 ** 4])
    def test_inverse_round_trip_up_to_circle_end(self, cutoff):
        # the included gaps and the Cantor part fill [0, 1) exactly
        h = ci.denjoy_build(ALPHA_STAR, cutoff)
        rng = np.random.default_rng(cutoff)
        xs = np.concatenate([rng.uniform(0.0, 1.0, 19000), rng.uniform(0.9993, 1.0, 1000)])
        worst = max(abs(h.inverse(h(x)) - x) for x in xs.tolist())
        assert worst <= 1e-10

    def test_inverse_near_circle_end(self, denjoy):
        assert denjoy.inverse(denjoy(0.99995)) == pytest.approx(0.99995, abs=1e-10)

    def test_rotation_number(self, denjoy):
        rho = ci.rotation_estimate(denjoy, 0.37, 10 ** 4)
        assert abs(rho - denjoy.alpha_float) <= 2 / 10 ** 4


class TestSemiConjugacy:
    def test_normalization(self, denjoy):
        k = denjoy.angle_of_position
        _, b0 = denjoy.gap_zero
        assert k(b0) == 0.0

    def test_equivariance_at_gap(self, denjoy):
        k = denjoy.angle_of_position
        _, b0 = denjoy.gap_zero
        assert k(denjoy(b0)) == pytest.approx(denjoy.alpha_float, abs=1e-12)

    def test_identity_on_minimal_samples(self, denjoy):
        k = denjoy.angle_of_position
        a = denjoy.alpha_float
        worst = 0.0
        for t in np.linspace(0.05, 0.95, 1000):
            x = denjoy.position_of_angle(t)
            err = (k(denjoy(x)) - k(x) - a) % 1.0
            worst = max(worst, min(err, 1 - err))
        assert worst <= 1e-9

    def test_monotone(self, denjoy):
        k = denjoy.angle_of_position
        xs = np.linspace(0.0, 0.99, 1000)
        vals = [k(x) for x in xs]
        assert all(v1 <= v2 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_collapses_gap(self, denjoy):
        k = denjoy.angle_of_position
        a, b = denjoy.gap_endpoints(2)
        assert k(a) == k(b) == k((a + b) / 2)


class TestItinerary:
    def test_matches_sturmian_window(self, denjoy):
        cod = ci.coding_intervals(denjoy)
        _, b0 = denjoy.gap_zero
        it = ci.itinerary(denjoy, cod, b0, 1000)
        assert it.symbols == sy.sturmian_window(ALPHA_STAR, 0, 1000).symbols

    def test_shift_equivariance(self, denjoy):
        cod = ci.coding_intervals(denjoy)
        _, b0 = denjoy.gap_zero
        it0 = ci.itinerary(denjoy, cod, b0, 20)
        it1 = ci.itinerary(denjoy, cod, denjoy(b0), 20)
        assert all(it1[k] == it0[k + 1] for k in range(-19, 20))

    def test_gap_endpoints_differ_at_zero(self, denjoy):
        cod = ci.coding_intervals(denjoy)
        a0, b0 = denjoy.gap_zero
        ia = ci.itinerary(denjoy, cod, a0, 4)
        ib = ci.itinerary(denjoy, cod, b0, 4)
        assert ia[0] == 1 and ib[0] == 0

    def test_gap_interior_rejected(self, denjoy):
        cod = ci.coding_intervals(denjoy)
        a, b = denjoy.gap_zero
        with pytest.raises(NotInMinimalSet):
            ci.itinerary(denjoy, cod, (a + b) / 2, 3)

    def test_injectivity_at_depth(self, denjoy):
        # separated minimal points get separated itineraries at modest depth
        cod = ci.coding_intervals(denjoy)
        pts = [denjoy.position_of_angle(t) for t in np.linspace(0.05, 0.95, 40)]
        its = [ci.itinerary(denjoy, cod, x, 60) for x in pts]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i] - pts[j]) > 0.01:
                    assert its[i].symbols != its[j].symbols


class TestSerialization:
    def test_roundtrip(self, tmp_path, denjoy):
        path = tmp_path / "map.txt"
        ci.write_denjoy(denjoy, path, label="3-sqrt5-over-2")
        h2 = ci.read_denjoy(path)
        assert h2.alpha_float == denjoy.alpha_float
        assert h2.cutoff == denjoy.cutoff

    def test_float_label(self, tmp_path):
        h = ci.denjoy_build(0.3183098861837907, 2000)
        path = tmp_path / "map.txt"
        ci.write_denjoy(h, path)
        h2 = ci.read_denjoy(path)
        assert h2.alpha_float == pytest.approx(h.alpha_float, abs=1e-15)
