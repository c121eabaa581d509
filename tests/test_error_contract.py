"""The error contract: a public function returns an answer or raises a
`DenshoeError`, also on edge inputs: rational floats, radius 0, q = 0,
K < 0, depth 0 and quadratic numbers with huge coefficients.  Argument
checks raise `InvalidArgument` (a `ValueError`) or `OutOfRange` (an
`IndexError`), so callers that catch the builtin types still work."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denshoe import circle as ci
from denshoe import symbolic as sy
from denshoe import twist as tw
from denshoe import wdsfamily as wf
from denshoe.errors import DenshoeError, InvalidArgument, OutOfRange
from denshoe.exact import QuadReal, as_real, continued_fraction, convergents

EDGE = settings(max_examples=60, deadline=None)

rational_floats = st.builds(lambda p, q: p / q, st.integers(-8, 8), st.integers(1, 8))
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
@given(alpha=angles, cutoff=st.sampled_from((0, 999, 1000)), x=st.floats(0, 1),
       radius=small, n=st.integers(-2000, 2000))
def test_circle_entry_points(alpha, cutoff, x, radius, n):
    h = attempt(ci.denjoy_build, alpha, cutoff)
    if h is not None:
        attempt(h.gap_endpoints, n)
        attempt(ci.rotation_estimate, h, x, radius)
        attempt(ci.itinerary, h, ci.coding_intervals(h), x, radius)


@EDGE
@given(K=st.floats(-2, 2), p=st.integers(-3, 3), q=st.integers(-1, 3),
       omega=exact_angles, depth=st.integers(-1, 3))
def test_twist_entry_points(K, p, q, omega, depth):
    fam = attempt(tw.standard_family, K)
    if fam is not None:
        attempt(tw.minimize_periodic, fam[0], p, q)
        attempt(tw.irrational_am_set, fam[0], omega, depth)


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
        ci.denjoy_build(QuadReal(0, 10 ** 400, 2).frac())
    assert convergents(Fraction(1, 3), 0) == []
    with pytest.raises(TypeError):  # not coercible: the operators return NotImplemented
        QuadReal(1) < 0.5
