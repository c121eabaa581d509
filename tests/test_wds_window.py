"""Property tests for the one-window `build_wds` and the three-distance
`cylinder_order` of `wdsfamily`.

The oracles are the implementations they replaced, copied here unchanged
except that the saturation loop raises AssertionError where it raised the
deleted NotSaturated and counts the ones of each factor itself, since the
factor kernel no longer reports a balance defect: a window that doubles its radius until every
factor length n has n+1 factors, and arc words coded as 2n+2 separate
exact windows at the 2n+2 arc ends, sorted exactly.
"""

import logging
from dataclasses import replace
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from denshoe import symbolic as sy
from denshoe import wdsfamily as wf
from denshoe.errors import DegenerateArc, RationalAlpha
from denshoe.exact import ALPHA_STAR, QuadReal, as_real

FIELDS = [d for d in range(2, 14) if isqrt(d) ** 2 != d]
PROPERTY = settings(max_examples=80, deadline=None)


# ---------------------------------------------------------------------------
# the replaced code
# ---------------------------------------------------------------------------

def old_build_wds(alpha, depth, *, initial_radius=None, max_radius=1 << 17, orientation=1):
    a = as_real(alpha)
    if a.is_rational:
        raise RationalAlpha(f"{alpha} is rational")
    if not (QuadReal(0) < a < Fraction(1, 2)):
        raise ValueError("alpha must lie in (0, 1/2)")
    top = 2 * depth + 1
    radius = initial_radius or max(8 * top, 128)
    while True:
        w = sy.sturmian_window(a, 0, radius)
        levels = list(sy._factor_levels(w, top))
        if all(len(starts) == n + 1 for n, starts in levels):
            break
        if radius >= max_radius:
            raise AssertionError(
                f"factors not saturated at depth {depth} with radius {radius}")
        radius *= 2
    fam = {n: sy._factor_set(w.word(), n, starts) for n, starts in levels}
    for n, fs in fam.items():
        ones = [u.count("1") for u in fs.words]
        if max(ones) - min(ones) > 1:
            raise AssertionError(f"balance defect exceeds 1 at length {n}")
    return wf.WdsSymbolic(a, depth, fam, w, orientation)


def old_cylinder_order(w):
    n = w.depth
    alpha = w.alpha
    pts = [(j * alpha).frac() for j in range(-n, n + 2)]
    pts.sort()
    for p, q in zip(pts, pts[1:]):
        if not (p < q):
            raise DegenerateArc("coinciding arc boundaries (rational angle?)")
    words = tuple(sy.sturmian_window(alpha, p, n).word() for p in pts)
    if len(set(words)) != len(words):
        raise DegenerateArc("two arcs realize the same central word")
    if set(words) != set(w.factors(2 * n + 1).words):
        raise DegenerateArc("arc words disagree with the factor family")
    if w.orientation < 0:
        words = words[::-1]
        pts = pts[::-1]
    return wf.CircularOrderGraph(n, words, tuple(pts))


# ---------------------------------------------------------------------------
# angles
# ---------------------------------------------------------------------------

@st.composite
def angles(draw):
    """{m sqrt(d)} folded into (0, 1/2), or a small irrational step from 0,
    1/4, 1/3 or 1/2 toward the inside of (0, 1/2): the last kind has a
    large partial quotient."""
    d = draw(st.sampled_from(FIELDS))
    x = QuadReal(0, draw(st.integers(1, 100)), d).frac()
    if draw(st.booleans()):
        return x if x < Fraction(1, 2) else 1 - x
    r = draw(st.sampled_from((Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))))
    sign = -1 if r == Fraction(1, 2) else draw(st.sampled_from((1, -1))) if r else 1
    return r + sign * x / 10 ** draw(st.integers(1, 6))


depths = st.integers(1, 20)
deep_depths = st.integers(21, 40)
orientations = st.sampled_from((1, -1))


def oriented_wds(alpha, depth, orientation):
    w = wf.build_wds(alpha, depth)
    return w if orientation > 0 else wf.reversed_wds(w)


# ---------------------------------------------------------------------------
# the one window against the replaced code
# ---------------------------------------------------------------------------

@PROPERTY
@given(angles(), depths, orientations)
def test_matches_saturation_loop_and_coded_arcs(alpha, depth, orientation):
    w = oriented_wds(alpha, depth, orientation)
    old = old_build_wds(alpha, depth, orientation=orientation)
    assert w == old     # alpha, depth, family, window and orientation
    g, og = wf.cylinder_order(w), old_cylinder_order(old)
    assert g.cylinders == og.cylinders and g.arc_lefts == og.arc_lefts


@PROPERTY
@given(angles(), depths)
def test_window_of_radius_2n_plus_1_holds_the_family(alpha, depth):
    top = 2 * depth + 1
    win = sy.sturmian_window(alpha, 0, top)
    levels = list(sy._factor_levels(win, top))
    assert all(len(starts) == m + 1 for m, starts in levels)
    fam = {m: sy._factor_set(win.word(), m, starts) for m, starts in levels}
    w = wf.build_wds(alpha, depth)
    assert fam == w.family
    # the arcs' words are read from the short window as well
    assert wf.cylinder_order(replace(w, window=win)) \
        == old_cylinder_order(old_build_wds(alpha, depth))


# caplog is cleared for each example
@settings(PROPERTY, max_examples=15, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(angles(), depths, orientations)
def test_cylinder_order_codes_nothing(caplog, alpha, depth, orientation):
    w = oriented_wds(alpha, depth, orientation)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="denshoe.symbolic"):
        wf.cylinder_order(w)
    assert not [r for r in caplog.records if r.msg.split()[0] == "coding_block"]


def test_caplog_sees_coding_blocks(caplog):
    # the check above would pass vacuously if the records were not captured
    with caplog.at_level(logging.DEBUG, logger="denshoe.symbolic"):
        wf.build_wds(ALPHA_STAR, 3)
    assert [r for r in caplog.records if r.msg.split()[0] == "coding_block"]


# ---------------------------------------------------------------------------
# the three-distance walk against the exact sort
# ---------------------------------------------------------------------------

@settings(PROPERTY, max_examples=40)
@given(angles(), deep_depths, orientations)
def test_deep_cylinder_order_matches_exact_sort(alpha, depth, orientation):
    w = oriented_wds(alpha, depth, orientation)
    g, og = wf.cylinder_order(w), old_cylinder_order(w)
    assert g.cylinders == og.cylinders and g.arc_lefts == og.arc_lefts
    assert repr(g.arc_lefts) == repr(og.arc_lefts)


@st.composite
def short_rationals(draw):
    """(depth, p/q) with 0 < p/q < 1 and q < 2*depth + 2."""
    depth = draw(st.integers(1, 40))
    q = draw(st.integers(2, 2 * depth + 1))
    return depth, Fraction(draw(st.integers(1, q - 1)), q)


@PROPERTY
@given(short_rationals())
def test_short_rational_raises_like_exact_sort(case):
    depth, r = case
    w = replace(wf.build_wds(ALPHA_STAR, depth), alpha=QuadReal(r))
    with pytest.raises(DegenerateArc) as new:
        wf.cylinder_order(w)
    with pytest.raises(DegenerateArc) as old:
        old_cylinder_order(w)
    assert str(new.value) == str(old.value) == "coinciding arc boundaries (rational angle?)"


@settings(PROPERTY, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(angles(), st.integers(1, 40))
def test_chain_finds_nearest_points_in_few_steps(caplog, alpha, depth):
    w = wf.build_wds(alpha, depth)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="denshoe.wdsfamily"):
        wf.cylinder_order(w)
    (f,) = [r.args for r in caplog.records if r.msg.split()[0] == "cylinder_order"]
    n, a, b, steps = f["depth"], f["a"], f["b"], f["steps"]
    size = 2 * n + 2
    assert n == depth and 0 < steps < size
    # a and b index the points nearest to 0 from the right and the left
    pts = [(k * w.alpha).frac() for k in range(1, size)]
    assert a == 1 + pts.index(min(pts)) and b == 1 + pts.index(max(pts))
