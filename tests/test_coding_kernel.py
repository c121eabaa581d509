"""Property tests for the filtered coding kernel `symbolic.coding_block`.

The oracles are two per-symbol paths that the kernel replaced, copied
here: the incremental QuadReal loop for exact angles, and for float
angles the per-symbol float evaluation with escalation to mpmath, which
gives up near an arc end.  Where it gives up, the kernel must equal the
symbol of the floats as the binary rationals they are.
"""

import logging
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from denshoe import symbolic as sy
from denshoe.exact import ALPHA_STAR, QuadReal, as_real

FIELDS = (2, 3, 5, 7, 11, 13)
PROPERTY = settings(max_examples=30, deadline=None)
#: the float oracle: margins above GUARD_BAND are decided in float, the
#: rest at ESCALATED_DPS digits, where a margin of ESCALATED_GUARD or less
#: is undecidable
GUARD_BAND, ESCALATED_DPS, ESCALATED_GUARD = 1e-12, 60, 1e-40


class Undecidable(Exception):
    """The float oracle cannot separate a point from an arc end."""


def incremental_window(alpha: QuadReal, theta: QuadReal, radius: int) -> tuple[int, ...]:
    """The exact window as an incremental QuadReal walk over k = -N..N."""
    t = (as_real(theta) + (-radius) * alpha).frac()
    one = QuadReal(1)
    syms = []
    for _ in range(2 * radius + 1):
        syms.append(0 if t < alpha else 1)
        t = t + alpha
        if t >= one:
            t = t - 1
    return tuple(syms)


def per_symbol_float(alpha: float, theta: float, k: int) -> int:
    """The float symbol evaluated alone, escalated to mpmath near an arc end."""
    t = (theta + k * alpha) % 1.0
    margin = min(t, 1.0 - t, abs(t - alpha))
    if margin > GUARD_BAND:
        return 0 if t < alpha else 1
    with mpmath.workdps(ESCALATED_DPS):
        a = mpmath.mpf(alpha)
        tt = mpmath.frac(mpmath.mpf(theta) + k * a)
        if tt == 0:
            return 0
        if tt == a:
            return 1
        margin = min(tt, 1 - tt, abs(tt - a))
        if margin > ESCALATED_GUARD:
            return 0 if tt < a else 1
    raise Undecidable(f"k={k}")


def binary_rational_point(alpha: float, theta: float, k: int) -> Fraction:
    return (Fraction(theta) + k * Fraction(alpha)) % 1


def binary_rational_symbol(alpha: float, theta: float, k: int) -> int:
    return 0 if binary_rational_point(alpha, theta, k) < Fraction(alpha) else 1


@st.composite
def quadratic_angles(draw):
    """{b sqrt(d)} or its complement, so a can be large against the
    angle's size (cancellation), or a rational p/q in (0, 1)."""
    if draw(st.booleans()):
        q = draw(st.integers(2, 60))
        return QuadReal(Fraction(draw(st.integers(1, q - 1)), q))
    d = draw(st.sampled_from(FIELDS))
    b = draw(st.integers(1, 100)) * draw(st.sampled_from((1, -1)))
    return QuadReal(0, b, d).frac()


@st.composite
def offsets(draw, alpha: QuadReal, radius: int):
    """Rationals, elements of alpha's field, and points {j alpha} of the
    orbit, which put two entries of the window exactly on arc ends."""
    kind = draw(st.sampled_from(("rational", "field", "orbit")))
    if kind == "rational":
        return Fraction(draw(st.integers(-500, 500)), draw(st.integers(1, 499)))
    if kind == "field":
        return QuadReal(Fraction(draw(st.integers(-50, 50)), 7),
                        Fraction(draw(st.integers(-50, 50)), 3), alpha.d)
    return (draw(st.integers(-radius - 2, radius + 2)) * alpha).frac()


radii = st.one_of(st.integers(0, 200), st.sampled_from((1800, 5000)))


@PROPERTY
@given(data=st.data())
def test_exact_kernel_matches_incremental_loop(data):
    alpha = data.draw(quadratic_angles())
    radius = data.draw(radii)
    theta = data.draw(offsets(alpha, radius))
    got = sy.sturmian_window(alpha, theta, radius).symbols
    assert got == incremental_window(alpha, theta, radius)


@settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_float_kernel_matches_per_symbol_path(data, caplog):
    alpha = float(data.draw(quadratic_angles()))
    radius = data.draw(radii)
    if data.draw(st.booleans()):
        theta = (data.draw(st.integers(-radius, radius)) * alpha) % 1.0
    else:
        theta = data.draw(st.floats(-3, 3, allow_nan=False))
    ks = range(-radius, radius + 1)
    try:
        want = tuple(per_symbol_float(alpha, theta, k) for k in ks)
    except Undecidable:
        want = tuple(binary_rational_symbol(alpha, theta, k) for k in ks)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="denshoe.symbolic"):
        got = sy.sturmian_window(alpha, theta, radius).symbols
    assert got == want
    # the entries settled exactly take in every exact hit of an arc end,
    # and none whose float margin is clear of the float pass's rounding
    # (its bound stays below 1e-10 up to radius 5000)
    flagged = caplog.records[-1].args["flagged"]
    points = [binary_rational_point(alpha, theta, k) for k in ks]
    hits = sum(t == 0 or t == Fraction(alpha) for t in points)
    near = sum(min(t, 1 - t, abs(t - alpha)) <= 1e-9
               for t in ((theta + k * alpha) % 1.0 for k in ks))
    assert hits <= flagged <= near


def test_orbit_offset_settles_exactly_two_entries(caplog):
    theta = (-7 * ALPHA_STAR).frac()   # {theta + 7 alpha} = 0, {theta + 8 alpha} = alpha
    with caplog.at_level(logging.DEBUG, logger="denshoe.symbolic"):
        block = sy.coding_block(ALPHA_STAR, theta, -300, 300)
    assert block == incremental_window(ALPHA_STAR, theta, 300)
    assert block[307] == 0 and block[308] == 1
    (record,) = caplog.records
    assert record.getMessage() == (
        "coding_block k=-300..300 symbols=601 flagged=2")


def test_no_record_when_debug_is_off(caplog):
    with caplog.at_level(logging.INFO, logger="denshoe.symbolic"):
        sy.coding_block(ALPHA_STAR, 0, -50, 50)
    assert not caplog.records


@pytest.mark.parametrize("b", [20, 997, 123457])
def test_cancellation_angles_are_exact(b):
    # {b sqrt(d)} = a + b sqrt(d) with |a| near b sqrt(d), so float(alpha)
    # carries the rounding of b sqrt(d); offsets on the orbit put the
    # window's two arc-end hits at |k| near the radius
    for d in FIELDS:
        alpha = QuadReal(0, b, d).frac()
        for j in (-299, 299):
            theta = (j * alpha).frac()
            assert sy.sturmian_window(alpha, theta, 300).symbols == \
                incremental_window(alpha, theta, 300)


def test_indices_beyond_float_precision():
    k = 10 ** 20
    assert sy.coding_block(ALPHA_STAR, 0, k, k)[0] == sy._symbol_exact(ALPHA_STAR, QuadReal(0), k)
    af = float(ALPHA_STAR)
    assert sy.coding_block(af, 0.25, k, k)[0] == per_symbol_float(af, 0.25, k)


@pytest.mark.parametrize("alpha, theta, k", [
    (0.6874311291222428, 0.0, 793163261370336),   # float pass off by 0.025
    (0.3, 0.0, 3 ** 200),                         # k*alpha needs 140 digits
    (0.3, 1e-45, 0),                              # within 1e-40 of the arc end 0
    (0.3, 0.0, 10 ** 400),                        # beyond the float range
], ids=["float-pass-off", "escalation-digits", "near-arc-end", "beyond-float-range"])
def test_float_angles_at_far_indices(alpha, theta, k):
    assert sy.coding_block(alpha, theta, k, k)[0] == binary_rational_symbol(alpha, theta, k)


@PROPERTY
@given(alpha=st.floats(0.01, 0.99), theta=st.floats(0.0, 1.0, exclude_max=True),
       k=st.integers(3, 308).flatmap(lambda e: st.integers(-10 ** e, 10 ** e)))
def test_float_angles_match_binary_rationals_up_to_the_float_range(alpha, theta, k):
    # the float pass's rounding grows with |k|; the entries it cannot
    # decide are settled in exact arithmetic
    assert sy.coding_block(alpha, theta, k, k)[0] == binary_rational_symbol(alpha, theta, k)


def test_offset_beyond_float_range():
    theta = QuadReal(0, 10 ** 400, 5)
    assert sy.sturmian_window(ALPHA_STAR, theta, 3).symbols == \
        incremental_window(ALPHA_STAR, theta, 3)


def test_empty_and_single_blocks():
    assert sy.coding_block(ALPHA_STAR, 0, 3, 2) == ()
    assert sy.coding_block(ALPHA_STAR, 0, 1, 1) == (1,)


finite_floats = st.one_of(st.floats(-1e3, 1e3), st.floats(-2.0 ** -1022, 2.0 ** -1022))


@PROPERTY
@given(data=st.data())
def test_float_angles_code_as_their_fractions(data):
    # one kernel for both angle types: a float angle codes as the binary
    # rational it is, also subnormal, above 1, negative, or on the orbit
    alpha = data.draw(finite_floats)
    lo = data.draw(st.one_of(st.integers(-300, 300), st.integers(-10 ** 20, 10 ** 20)))
    hi = lo + data.draw(st.integers(-1, 300))
    if data.draw(st.booleans()):
        theta = data.draw(finite_floats)
    else:
        theta = -data.draw(st.integers(lo, max(lo, hi))) * alpha
    want = tuple(binary_rational_symbol(alpha, theta, k) for k in range(lo, hi + 1))
    assert sy.coding_block(alpha, theta, lo, hi) == want
    assert sy.coding_block(Fraction(alpha), Fraction(theta), lo, hi) == want
