"""The error contract: a public function returns an answer or raises a
`DenshoeError`, also on edge inputs: rational floats, radius 0, q = 0,
K < 0, depth 0 and quadratic numbers with huge coefficients.  Argument
checks raise `InvalidArgument` (a `ValueError`) or `OutOfRange` (an
`IndexError`), so callers that catch the builtin types still work."""

import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denshoe import circle as ci
from denshoe import symbolic as sy
from denshoe import twist as tw
from denshoe import wdsfamily as wf
from denshoe.errors import DenshoeError, InvalidArgument, NoConvergence, OutOfRange
from denshoe.exact import (ALPHA_STAR, MAX_DISCRIMINANT, QuadReal, as_real, continued_fraction,
                           convergents)

EDGE = settings(max_examples=60, deadline=None)

non_finite = st.sampled_from((math.nan, math.inf, -math.inf))
rational_floats = st.one_of(
    st.builds(lambda p, q: p / q, st.integers(-8, 8), st.integers(1, 8)), non_finite)
coefficients = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=8),
                         st.integers(10 ** 300, 10 ** 400), st.integers(-10 ** 400, -10 ** 300))
quadratic = st.builds(QuadReal, coefficients, coefficients, st.sampled_from((0, 2, 3, 5, 13)))
angles = st.one_of(rational_floats, st.fractions(0, 1, max_denominator=20), quadratic,
                   quadratic.map(QuadReal.frac))
exact_angles = st.one_of(st.fractions(0, 1, max_denominator=20), quadratic,
                         quadratic.map(QuadReal.frac))
small = st.integers(-2, 6)


def attempt(f, *args):
    """f(*args), or None when it raises a DenshoeError; any other
    exception fails the test."""
    try:
        return f(*args)
    except DenshoeError:
        return None


@EDGE
@given(x=angles, depth=small)
def test_exact_entry_points(x, depth):
    attempt(continued_fraction, x, depth)
    attempt(convergents, x, depth)
    attempt(as_real, x)


@EDGE
@given(alpha=angles, theta=angles, radius=small, n=small)
def test_symbolic_entry_points(alpha, theta, radius, n):
    w = attempt(sy.sturmian_window, alpha, theta, radius)
    if w is not None:
        attempt(sy.estimate_rotation_interval, w)
        attempt(sy.factor_family, w, n)
        attempt(sy.factor_set, w, n)
        attempt(w.__getitem__, n)
        attempt(w.segment, -n, n)
    attempt(sy.rational_limit_language, radius, n, 1, 3)


@EDGE
@given(alpha=angles, depth=small)
def test_wdsfamily_entry_points(alpha, depth):
    w = attempt(wf.build_wds, alpha, depth)
    if w is not None:
        attempt(wf.cylinder_order, w)
        attempt(wf.rotation_class, w)


@EDGE
@given(alpha=angles, cutoff=st.sampled_from((0, 999, 1000)),
       x=st.one_of(st.floats(0, 1), non_finite), radius=small, n=st.integers(-2000, 2000))
def test_circle_entry_points(alpha, cutoff, x, radius, n):
    h = attempt(ci.denjoy_build, alpha, cutoff)
    if h is not None:
        attempt(h.gap_endpoints, n)
        for f in (h.position_of_angle, h.locate_gap, h.angle_of_position, h, h.inverse):
            attempt(f, x)
        attempt(ci.rotation_estimate, h, x, radius)
        attempt(ci.itinerary, h, ci.coding_intervals(h), x, radius)


@EDGE
@given(K=st.one_of(st.floats(-2, 2), non_finite), p=st.integers(-3, 3), q=st.integers(-1, 3),
       omega=exact_angles, depth=st.integers(-1, 3))
def test_twist_entry_points(K, p, q, omega, depth):
    fam = attempt(tw.standard_family, K)
    if fam is not None:
        attempt(tw.minimize_periodic, fam[0], p, q)
        attempt(tw.irrational_am_set, fam[0], omega, depth)


@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (math.inf, 0.0), (0.5, math.nan)])
def test_saddle_test_refuses_non_finite_orbits(x, y):
    # a nan trace passed the old test tr <= 2, and np.linalg.eig then
    # raised numpy's LinAlgError
    _, tm = tw.standard_family(1.0)
    with pytest.raises(InvalidArgument, match="finite"):
        tw.hyperbolicity_report(tm, [[x, y]])


def test_heteroclinic_refuses_what_it_cannot_connect():
    gf, _ = tw.standard_family(1.0)
    left = tw.minimize_periodic(gf, 0, 1)
    right = tw.Configuration(left.x + 1, "periodic", 0, 1)
    # a non-integral window made a stray IndexError; endpoints of different
    # (p, q) ran every descent and then raised NoConvergence
    for window in (60.5, 60.0, math.nan, "60"):
        with pytest.raises(InvalidArgument, match="window"):
            tw.heteroclinic_minimizer(gf, left, right, window)
    other = tw.minimize_periodic(gf, 1, 2)
    segment = tw.Configuration(np.zeros(62), "segment")
    for a, b in ((left, other), (other, left), (left, segment), (segment, right)):
        with pytest.raises(InvalidArgument, match="endpoints"):
            tw.heteroclinic_minimizer(gf, a, b, 100)


def test_heteroclinic_refuses_a_window_beyond_the_cap():
    # a window of 10^9 bonds asked numpy for 7.45 GiB and raised a stray
    # MemoryError; a window above WINDOW_CAP is refused before its arrays exist
    gf, _ = tw.standard_family(1.0)
    left = tw.minimize_periodic(gf, 0, 1)
    right = tw.Configuration(left.x + 1, "periodic", 0, 1)
    tracemalloc.start()
    try:
        for window in (10 ** 9, tw.WINDOW_CAP + 1):
            with pytest.raises(InvalidArgument, match=f"WINDOW_CAP = {tw.WINDOW_CAP}"):
                tw.heteroclinic_minimizer(gf, left, right, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_denjoy_build_refuses_a_cutoff_beyond_the_cap():
    # a cutoff of 10^9 asked numpy for 14.9 GiB and raised a stray
    # MemoryError; a cutoff above MAX_CUTOFF is refused before its tables exist
    tracemalloc.start()
    try:
        for cutoff in (10 ** 9, ci.MAX_CUTOFF + 1):
            with pytest.raises(InvalidArgument, match=f"MAX_CUTOFF = {ci.MAX_CUTOFF}"):
                ci.denjoy_build(ALPHA_STAR, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert ci.MAX_CUTOFF < 2 ** (53 - ci.HEAD_BITS)


def test_heteroclinic_refuses_a_translate_that_is_not_a_neighbour():
    # the translate by 1 of a (1,2) orbit and the translate by 2 of the
    # (0,1) orbit each lie two kinks away
    for K, p, q, b in ((2.0, 1, 2, 1), (1.0, 0, 1, 2)):
        gf, _ = tw.standard_family(K)
        left = tw.minimize_periodic(gf, p, q)
        right = tw.Configuration(left.x + b, "periodic", p, q)
        with pytest.raises(InvalidArgument, match="endpoints"):
            tw.heteroclinic_minimizer(gf, left, right, 100)


def test_kink_says_when_a_descent_stops_above_tol(monkeypatch):
    # with no Newton step the (0,1) kink descent ends far above TOL: the
    # error says it did not converge, not that it reached a saddle
    gf, _ = tw.standard_family(0.7)
    left = tw.minimize_periodic(gf, 0, 1)
    newton = tw._newton_minimize
    monkeypatch.setattr(tw, "_newton_minimize",
                        lambda gf, pad, x0, max_iter, cyclic: newton(gf, pad, x0, 0, cyclic))
    with pytest.raises(NoConvergence, match="^heteroclinic segment did not converge$") as err:
        tw.heteroclinic_minimizer(gf, left, tw.Configuration(left.x + 1, "periodic", 0, 1), 60)
    assert err.value.residual > tw.TOL


def test_saddle_test_refuses_a_product_beyond_the_float_range():
    # DF^q of the (1,601) orbit at K = 2 overflows: the product warned in
    # matmul, and numpy's eig then raised LinAlgError.  The kink's core
    # sizing reads the same product and falls back to 50 q bonds
    gf, tm = tw.standard_family(2.0)
    orbit = tw.config_orbit(gf, tw.minimize_periodic(gf, 1, 601))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match="overflows"):
            tw.hyperbolicity_report(tm, orbit)
        rate = tw._approach_rate(tw._monodromy(tm, orbit[:, 0])[0], 601)
    assert rate == math.inf and tw._core_bonds(rate, 601, 40000) == 30050


def test_argument_errors_and_edge_answers():
    w = sy.CentralWindow.from_word("010")
    with pytest.raises(OutOfRange):
        w[2]
    with pytest.raises(IndexError):
        ci.denjoy_build(QuadReal(0, 1, 2).frac(), 1000).gap_endpoints(1001)
    with pytest.raises(InvalidArgument):
        QuadReal(0, 1, 2) + QuadReal(0, 1, 3)
    with pytest.raises(ValueError):
        as_real(0.5)
    with pytest.raises(InvalidArgument):
        wf.build_wds(0.3, 3)
    with pytest.raises(InvalidArgument, match="no float value"):
        ci.denjoy_build(QuadReal(0, 10 ** 400, 2))
    assert convergents(Fraction(1, 3), 0) == []
    with pytest.raises(TypeError):  # not coercible: the operators return NotImplemented
        QuadReal(1) < 0.5


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_are_invalid(x):
    # no OverflowError or ValueError from the float conversions, and no
    # numpy RuntimeWarning from a coding pass over nan
    for f, args in ((continued_fraction, (x, 3)), (convergents, (x, 3)),
                    (sy.sturmian_window, (x, 0, 3)), (sy.sturmian_window, (0.3, x, 3)),
                    (sy.coding_block, (ALPHA_STAR, x, 0, 3)), (tw.standard_family, (x,))):
        with pytest.raises(InvalidArgument):
            f(*args)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_denjoy_map_refuses_non_finite_points(x):
    h = ci.denjoy_build(QuadReal(0, 1, 2).frac(), 1000)
    for f in (h.position_of_angle, h.locate_gap, h.angle_of_position, h, h.inverse):
        with pytest.raises(InvalidArgument, match="not finite"):
            f(x)
    with pytest.raises(InvalidArgument, match="not finite"):
        h.position_of_angle(np.array([0.25, x]))


@pytest.mark.parametrize("args", [(1, 1, 2.5), (1, 1, "2"), (1, 1, math.nan), (1, 1, math.inf),
                                  (math.nan,), (math.inf,), (-math.inf, 1, 2), (1, math.nan, 2),
                                  (None,), ("x",)])
def test_quadreal_refuses_what_is_not_a_number(args):
    with pytest.raises(InvalidArgument):
        QuadReal(*args)


def test_quadreal_takes_integral_floats():
    assert QuadReal(0.5, 2.0, 8.0) == QuadReal(Fraction(1, 2), 4, 2)
    assert QuadReal(1, 1, Fraction(4, 2)) == QuadReal(1, 1, 2)


@pytest.mark.parametrize("zero", [0, Fraction(0), False])
def test_quadreal_division_by_zero(zero):
    with pytest.raises(InvalidArgument, match="divided by zero"):
        QuadReal(1, 1, 2) / zero


@pytest.mark.parametrize("symbols", [(1.0,), [1.0], (0.0,), np.array([0.0, 1.0, 0.0])],
                         ids=["tuple-1.0", "list-1.0", "tuple-0.0", "float-ndarray"])
def test_float_symbols_are_invalid(symbols):
    # a float equal to 0 or 1 passes the symbol check by ==, but is no
    # integer symbol
    with pytest.raises(InvalidArgument):
        sy.CentralWindow(len(symbols) // 2, symbols)


def test_indices_beyond_the_float_range():
    # such entries are settled in exact arithmetic; a float angle is the
    # binary rational it is
    k = 10 ** 400
    with mpmath.workdps(500):
        alpha = (3 - mpmath.sqrt(5)) / 2
        t = mpmath.frac(k * alpha)
        want = 0 if t < alpha else 1
    assert sy.coding_block(ALPHA_STAR, 0, k, k)[0] == want
    assert sy.coding_block(ALPHA_STAR, 0, k - 1, k + 1)[1] == want
    assert sy.coding_block(0.3, 0, k, k)[0] == (0 if k * Fraction(0.3) % 1 < Fraction(0.3) else 1)


@pytest.mark.parametrize("alpha", [ALPHA_STAR, 0.3], ids=["exact", "float"])
def test_blocks_beyond_the_cap_allocate_nothing(alpha):
    # a block of more than MAX_BLOCK symbols is refused before its arrays
    # exist, at radii whose arrays would not fit in memory
    tracemalloc.start()
    try:
        with pytest.raises(OutOfRange, match="MAX_BLOCK"):
            sy.sturmian_window(alpha, 0, 10 ** 15)
        with pytest.raises(OutOfRange, match="MAX_BLOCK"):
            sy.coding_block(alpha, 0, -10 ** 18, 10 ** 18)
        with pytest.raises(OutOfRange, match="MAX_BLOCK"):
            sy.coding_block(alpha, 0, 0, sy.MAX_BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_position_of_angle_leaves_the_callers_array():
    h = ci.denjoy_build(QuadReal(0, 1, 2).frac(), 1000)
    theta = np.array([1.25, -0.5, 2.75])
    assert h.position_of_angle(theta).tolist() == h.position_of_angle(theta % 1.0).tolist()
    assert theta.tolist() == [1.25, -0.5, 2.75]


def test_a_product_beyond_the_float_range_warns_nothing():
    # k * alpha = 1e310 overflows in the float pass; the entry is flagged
    # and settled exactly
    k, alpha = 10 ** 10, Fraction(1e300)
    want = 0 if (Fraction(0.5) + k * alpha) % 1 < alpha else 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sy.coding_block(1e300, 0.5, k, k) == (want,)


def test_a_discriminant_above_the_bound_is_refused_at_once():
    # trial division would never finish on a 40-digit d
    start = time.process_time()
    for d in (MAX_DISCRIMINANT + 1, 10 ** 40 + 1, -2):
        with pytest.raises(InvalidArgument, match="discriminant"):
            QuadReal(0, 1, d)
    assert time.process_time() - start < 0.5
    # the largest prime below 2^32 is square-free and taken
    assert QuadReal(0, 1, 4294967291).d == 4294967291
