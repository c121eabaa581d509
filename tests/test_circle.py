"""Tests for the explicit Denjoy construction."""

import functools
import logging
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from denshoe import circle as ci
from denshoe import symbolic as sy
from denshoe.errors import NotInMinimalSet, RationalAlpha
from denshoe.exact import ALPHA_STAR, QuadReal


@pytest.fixture(scope="module")
def denjoy():
    return ci.denjoy_build(ALPHA_STAR, 10 ** 4)


def loop_orbit(h, x, radius):
    """Oracle: h^j(x) for j = -radius..radius, one map step at a time (the
    itinerary loop that the closed form replaced)."""
    out = [x] * (2 * radius + 1)
    y = x
    for k in range(1, radius + 1):
        y = h(y)
        out[radius + k] = y
    y = x
    for k in range(1, radius + 1):
        y = h.inverse(y)
        out[radius - k] = y
    return out


def loop_itinerary(h, cod, x, radius):
    return tuple(0 if cod.mid0 <= y < cod.mid1 else 1 for y in loop_orbit(h, x, radius))


def exact_gap_symbols(d, n, t, radius):
    """Exact symbols at j = -radius..radius of the point at parameter t in
    gap n of the map with alpha = {sqrt d}: on gap 0 the symbol is 0 iff
    t >= 1/2, on gap 1 iff t < 1/2, and on any other gap m (or its anchor,
    past the cutoff) iff {m alpha} < alpha, that is iff floor(m alpha) -
    floor((m - 1) alpha) = 1."""
    out = []
    for m in range(n - radius, n + radius + 1):
        if m == 0:
            out.append(0 if t >= 0.5 else 1)
        elif m == 1:
            out.append(0 if t < 0.5 else 1)
        else:
            out.append(1 - (floor_multiple(d, m) - floor_multiple(d, m - 1)))
    return tuple(out)


@functools.cache
def floor_multiple(d, m):
    """floor(m {sqrt d}), in exact arithmetic."""
    return (m * QuadReal(0, 1, d).frac()).floor()


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

    @pytest.mark.parametrize("alpha", [0.25, 1 / 3, 0.1])
    def test_float_rational_alpha_rejected(self, alpha):
        # in float their orbit angles collapse to 4, 24 and 74 values
        with pytest.raises(RationalAlpha):
            ci.denjoy_build(alpha, 1000)

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


class TestOrbit:
    """The closed-form orbit against the step-by-step loop and against exact
    symbols."""

    def test_positions_match_loop_off_the_gap_orbit(self, denjoy):
        for t in (0.05, 0.37, 0.9):
            x = denjoy.position_of_angle(t)
            got = denjoy.orbit(x, -500, 500)
            want = np.array(loop_orbit(denjoy, x, 500))
            err = np.abs(got - want)
            assert np.max(np.minimum(err, 1.0 - err)) <= 1e-12
            assert got[500] == x

    def test_subrange_is_a_slice(self, denjoy):
        _, b = denjoy.gap_endpoints(-40)
        for x in (0.37, b):
            full = denjoy.orbit(x, -60, 60)
            assert np.array_equal(denjoy.orbit(x, -60, -1), full[:60])
            assert np.array_equal(denjoy.orbit(x, 5, 60), full[65:])

    def test_gap_endpoint_stays_on_gap_chain(self):
        # stepping recomputes t at every gap, and from b_-1000 the rounding
        # leaves the chain: 1000 steps of the loop reach a_0 = 0, not b_0
        h = ci.denjoy_build(QuadReal(0, 1, 2).frac(), 1000)
        _, b = h.gap_endpoints(-1000)
        assert loop_orbit(h, b, 1000)[-1] == 0.0
        assert h.orbit(b, 1000, 1000)[0] == pytest.approx(h.gap_endpoints(0)[1], abs=1e-9)
        it = ci.itinerary(h, ci.coding_intervals(h), b, 1001)
        assert (it[1000], it[1001]) == (0, 1)

    @pytest.mark.parametrize("cutoff", [1000, 2000])
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_gap_endpoints_match_exact_symbols(self, d, cutoff):
        h = ci.denjoy_build(QuadReal(0, 1, d).frac(), cutoff)
        cod = ci.coding_intervals(h)
        ns = (-cutoff, -cutoff + 1, -cutoff // 2, -1, 0, 1, 2, cutoff // 2, cutoff - 1, cutoff)
        for n in ns:
            for t, x in zip((0.0, 1.0), h.gap_endpoints(n)):
                got = ci.itinerary(h, cod, x, 1500).symbols
                assert got == exact_gap_symbols(d, n, t, 1500), (n, t)

    @pytest.mark.parametrize("n", [-1000, 1000])
    def test_runs_past_both_ends_of_the_slot_table(self, n):
        # gap indices n + j below -cutoff and above cutoff are anchors, not
        # slot-table entries: an unmasked index would wrap or raise
        h = ci.denjoy_build(ALPHA_STAR, 1000)
        a, _ = h.gap_endpoints(n)
        ms = np.arange(n - 2100, n + 2101)
        got = h.orbit(a, -2100, 2100)
        chain = np.abs(ms) <= h.cutoff
        assert np.array_equal(got[chain], [h.gap_endpoints(m)[0] for m in ms[chain]])
        want = h.position_of_angle(np.mod(ms[~chain] * h.alpha_float, 1.0))
        assert np.max(np.abs(got[~chain] - want)) <= 1e-12

    def test_angle_reducing_to_one_is_angle_zero(self, denjoy):
        # np.mod(-1e-17, 1.0) is 1.0, which has no slot of its own
        tiny = np.array([-1e-17, -2.0 ** -60, -0.0, 0.0])
        assert np.array_equal(denjoy.position_of_angle(tiny), np.zeros(4))
        assert denjoy.position_of_angle(-1e-17) == 0.0 == denjoy.gap_zero[0]

    def test_smallest_angles_get_slot_zero(self, denjoy):
        # _pos[0] = 0, so no reduced angle falls before the first slot (a
        # slot of -1 would index the last gap)
        got = denjoy.position_of_angle(np.array([0.0, 5e-324, 1e-300, 1e-17]))
        assert got[0] == 0.0
        assert np.all(got[1:] == denjoy.gap_zero[1])

    @given(alpha=st.floats(0, 1, exclude_min=True, exclude_max=True),
           theta=st.floats(0, 1, exclude_max=True),
           ks=st.lists(st.integers(-(2 ** 26) + 1, 2 ** 26 - 1), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_split_angles_within_stated_bound(self, alpha, theta, ks):
        # the module docstring's bound: 2^-51 from theta + k*alpha mod 1,
        # computed exactly, for every |k| < 2^26
        h = ci.DenjoyMap(alpha, 1000)
        got = np.mod(theta + h._turns(np.array(ks)), 1.0)
        for k, g in zip(ks, got.tolist()):
            err = abs(Fraction(g) - (Fraction(theta) + k * Fraction(alpha)) % 1)
            assert min(err, 1 - err) <= Fraction(1, 2 ** 51), k

    def test_range_too_long_for_exact_products(self, denjoy):
        with pytest.raises(ValueError):
            denjoy.orbit(0.37, 0, 2 ** 26)


class TestOrbitRecord:
    def test_record_off_the_gap_orbit(self, denjoy, caplog):
        with caplog.at_level(logging.DEBUG, logger="denshoe.circle"):
            pos = denjoy.orbit(0.37, -100, 100)
        (record,) = caplog.records
        cod = ci.coding_intervals(denjoy)
        margin = np.min(np.abs(pos[:, None] - [cod.mid0, cod.mid1]))
        assert record.getMessage() == (
            f"orbit points=201 gap_chain=0 past_cutoff=0 margin={margin:.3e}")

    def test_record_on_the_gap_chain(self, caplog):
        h = ci.denjoy_build(ALPHA_STAR, 1000)
        a, _ = h.gap_endpoints(998)
        with caplog.at_level(logging.DEBUG, logger="denshoe.circle"):
            h.orbit(a, -998, 10)
        (record,) = caplog.records
        # j = -998..2 stays on the chain, j = 3..10 is past the cutoff; the
        # chain passes the left ends of gaps 0 and 1 at j = -998 and -997
        cod = ci.coding_intervals(h)
        margin = min(cod.mid0 - h.gap_endpoints(0)[0], cod.mid1 - h.gap_endpoints(1)[0])
        assert record.getMessage() == (
            f"orbit points=1009 gap_chain=1001 past_cutoff=8 margin={margin:.3e}")

    def test_no_record_when_debug_is_off(self, denjoy, caplog):
        with caplog.at_level(logging.INFO, logger="denshoe.circle"):
            ci.itinerary(denjoy, ci.coding_intervals(denjoy), 0.37, 50)
            ci.rotation_estimate(denjoy, 0.37, 50)
        assert not caplog.records


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from((2, 3, 5, 6, 7, 8, 10, 11, 12, 13)), m=st.integers(1, 120),
       cutoff=st.integers(10 ** 3, 10 ** 4), radius=st.integers(0, 3000),
       theta=st.floats(0, 1, exclude_max=True))
@example(d=13, m=1, cutoff=10 ** 4, radius=3000, theta=0.5)
def test_itinerary_matches_loop_off_the_gap_orbit(d, m, cutoff, radius, theta):
    h = ci.denjoy_build(QuadReal(0, m, d).frac(), cutoff)
    x = h.position_of_angle(theta)
    assume(h.locate_gap(x) is None)
    cod = ci.coding_intervals(h)
    assert ci.itinerary(h, cod, x, radius).symbols == loop_itinerary(h, cod, x, radius)


@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, 100), d=st.sampled_from((2, 3, 5, 7, 11, 13)),
       cutoff=st.integers(10 ** 3, 5000), data=st.data())
def test_semiconjugacy_on_random_points(b, d, cutoff, data):
    """k(h(x)) = k(x) + alpha (mod 1) at uniform points, half of which fall
    in gaps, and at interior points of gaps up to the cutoff."""
    h = ci.denjoy_build(QuadReal(0, b, d).frac(), cutoff)
    k = h.angle_of_position
    xs = data.draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=20))
    for n, t in data.draw(st.lists(st.tuples(st.integers(-cutoff, cutoff),
                                             st.floats(0.01, 0.99)), max_size=10)):
        a, b_n = h.gap_endpoints(n)
        xs.append(a + t * (b_n - a))
    for x in xs:
        err = (k(h(x)) - k(x) - h.alpha_float) % 1.0
        assert min(err, 1 - err) <= 1e-9, x


@pytest.mark.parametrize("b", [10 ** 12, 10 ** 20])
def test_exact_alpha_float_from_exact_arithmetic(b):
    # float(a) + float(b) sqrt(2) cancels: 1.7e-4 off at 10^12, and an
    # integer at 10^20, which made the build raise RationalAlpha
    h = ci.denjoy_build(QuadReal(0, b, 2).frac(), 1000)
    with mpmath.workdps(60):
        want = float(mpmath.frac(b * mpmath.sqrt(2)))
    assert abs(h.alpha_float - want) <= math.ulp(want)
