"""Oracle tests for the coding path's reduction, table search and factor
scan.

`symbolic._mod1` reduces mod 1 as x - floor(x) instead of np.mod(x, 1.0);
`DenjoyMap.position_of_angle` looks an array of angles up in increasing
order instead of in the given one; and `factor_family` reads a coded
window's factors from a prefix instead of the whole window.  Each must
give what the code it replaced gave, bit for bit.  The replaced search
and the replaced `factor_family` are copied here unchanged as the `old_*`
functions; the replaced reduction is np.mod itself.
"""

import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from denshoe import circle as ci
from denshoe import symbolic as sy
from denshoe.errors import InvalidArgument, WindowTooShort
from denshoe.exact import ALPHA_STAR, QuadReal

PROPERTY = settings(max_examples=80, deadline=None)
FIELDS = (2, 3, 5, 7, 11, 13)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


# ---------------------------------------------------------------------------
# the reduction against np.mod
# ---------------------------------------------------------------------------

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -(2.0 ** -1022), -1e-17, -(2.0 ** -60),
           1.0, -1.0, 0.5, -0.5, 2.0 ** 52 + 0.5, -(2.0 ** 52) - 0.5, 2.0 ** 53, -(2.0 ** 53),
           1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan)


def assert_mod1_matches(x):
    with np.errstate(invalid="ignore"):
        assert np.array_equal(bits(sy._mod1(x)), bits(np.mod(x, 1.0)))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=st.floats(allow_subnormal=True)))
def test_mod1_is_np_mod_bit_for_bit(x):
    assert_mod1_matches(x)


def test_mod1_on_edge_values():
    # NaN payloads and signs, a signalling NaN included, pass as np.mod's do
    payloads = np.array([0x7FF0000000000123, 0xFFF0000000000123, 0x7FF8000000000001],
                        dtype=np.uint64).view(np.float64)
    x = np.concatenate([SPECIAL, payloads])
    assert_mod1_matches(x)
    for v in x.tolist():
        assert_mod1_matches(np.float64(v))


@PROPERTY
@given(af=st.floats(0, 1, exclude_max=True), tf=st.floats(-1, 2), radius=st.integers(0, 3000))
def test_mod1_on_coding_angles(af, tf, radius):
    # the float pass of `_coding_array`: tf + k af for k = -radius..radius
    ks = np.arange(-radius, radius + 1, dtype=np.float64)
    assert_mod1_matches(tf + ks * af)


# ---------------------------------------------------------------------------
# the ordered table search against the search in the given order
# ---------------------------------------------------------------------------

def old_position_of_angle(h, theta):
    if not np.isfinite(theta).all():
        raise InvalidArgument(f"angle {theta!r} is not finite")
    theta = theta % 1.0                # a new array: the caller's is left as it is
    theta = theta * (theta < 1.0)      # 1.0 -> 0.0; scalars stay scalars
    j = h._pos.searchsorted(theta, "right") - 1
    pos = np.where(h._pos[j] == theta, h._a[j],
                   h._weight * theta + (h._cum[j] + h._len[j]))
    return pos if pos.ndim else float(pos)


def assert_positions_match(h, theta):
    got, want = h.position_of_angle(theta), old_position_of_angle(h, theta)
    assert type(got) is type(want)
    if isinstance(want, float):
        assert bits(got) == bits(want)
    else:
        assert got.shape == want.shape and np.array_equal(bits(got), bits(want))


@pytest.fixture(scope="module")
def denjoy():
    return ci.denjoy_build(ALPHA_STAR, 1000)


def test_positions_on_table_hits_repeats_and_wraps(denjoy):
    rng = np.random.default_rng(5)
    hits = rng.permutation(denjoy._pos)
    assert_positions_match(denjoy, hits)
    assert_positions_match(denjoy, np.repeat(hits[:50], 3))
    # tiny negatives reduce to 1.0 and are taken as 0; the rest wrap
    wraps = np.array([-1e-17, -(2.0 ** -60), -0.0, 0.0, 5e-324, 1.0, 3.0, -2.5, 1 - 2.0 ** -53])
    assert_positions_match(denjoy, rng.permutation(np.concatenate([wraps, hits[:20] - 1.0])))
    for theta in (np.array([]), np.array([0.25]), np.array(0.25), 0.25, -1e-17, 7,
                  rng.random((4, 5))):
        assert_positions_match(denjoy, theta)


def test_position_refuses_non_finite_angles_as_before(denjoy):
    for theta in (np.array([0.25, np.nan]), np.inf):
        with pytest.raises(InvalidArgument, match="not finite"):
            denjoy.position_of_angle(theta)


@PROPERTY
@given(alpha=st.floats(0.01, 0.99), theta=st.floats(-3, 3), radius=st.integers(0, 2500),
       cutoff=st.sampled_from((1000, 2000)))
def test_positions_on_orbit_angles(alpha, theta, radius, cutoff):
    # the angles of `orbit`: theta plus the split products of k alpha
    h = ci.DenjoyMap(alpha, cutoff)
    assert_positions_match(h, theta + h._turns(np.arange(-radius, radius + 1)))


# ---------------------------------------------------------------------------
# the prefix scan against the full scan
# ---------------------------------------------------------------------------

def old_factor_family(w, max_length):
    """Factor sets of every length 1..max_length."""
    return {n: sy._factor_set(w.word(), n, starts)
            for n, starts in sy._factor_levels(w, max_length)}


def outcome(f, *args):
    """f's value, or the type and message of the error it raised."""
    try:
        return f(*args)
    except (ValueError, WindowTooShort) as e:
        return type(e), str(e)


def scanned(caplog, f, *args):
    """f's outcome, and (length, scanned) of each factor_levels record it
    wrote; `caplog` is cleared first, as it is not reset between the
    examples of a hypothesis test."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="denshoe.symbolic"):
        got = outcome(f, *args)
    return got, [(r.args["length"], r.args["scanned"]) for r in caplog.records
                 if r.msg.split()[0] == "factor_levels"]


# angles with a large partial quotient (near 1/4, 1/3, 2/5 and 0) leave
# length-m factors out of long prefixes, or out of the window itself
NEAR_RATIONAL = (QuadReal(-40, 18, 5), QuadReal(-66, 20, 11), 0.4 + 1e-7, 1e-5, 0.25, 1 / 3)
exact_alphas = st.builds(lambda b, d: QuadReal(0, b, d).frac(), st.integers(1, 100),
                         st.sampled_from(FIELDS))
alphas = st.one_of(exact_alphas, st.sampled_from(NEAR_RATIONAL),
                   st.fractions(0, 1, max_denominator=60), st.floats(-2, 2))
thetas = st.one_of(st.fractions(0, 1, max_denominator=4099), st.floats(-2, 2))


@settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(alpha=alphas, theta=thetas, radius=st.integers(0, 1500), m=st.integers(1, 90))
@example(alpha=QuadReal(-40, 18, 5), theta=Fraction(1, 7), radius=1500, m=41)
@example(alpha=Fraction(2, 7), theta=Fraction(1, 3), radius=1500, m=41)
def test_prefix_family_is_the_full_family(caplog, alpha, theta, radius, m):
    w = sy.sturmian_window(alpha, theta, radius)
    got, seen = scanned(caplog, sy.factor_family, w, m)
    assert got == outcome(old_factor_family, w, m)
    if m > len(w):
        return
    # each scan reads a prefix, doubled from 4 m, and the last has all
    # m + 1 factors of length m or is the whole window; the worst case
    # reads the window at most twice
    L = len(w)
    sizes = [s for length, s in seen if length == L]
    assert sizes and sum(sizes) <= 2 * L
    assert all(b == 2 * a for a, b in zip(sizes, sizes[1:-1]))
    assert sizes[0] in (4 * m, L) and (sizes[-1] == L or len(got[m]) == m + 1)


def test_prefix_grows_to_the_window_when_a_factor_is_missing(caplog):
    # slope 2/7 has 7 factors of each length from 7 on, never 42, so the
    # scan doubles to 1312 symbols and then reads all 3001
    w = sy.sturmian_window(Fraction(2, 7), Fraction(1, 3), 1500)
    fam, seen = scanned(caplog, sy.factor_family, w, 41)
    assert seen == [(3001, s) for s in (164, 328, 656, 1312, 3001)]
    assert fam == old_factor_family(w, 41) and len(fam[41]) == 7


def test_prefix_of_a_sturmian_window(caplog):
    # the workload's shape: every length-41 factor of a radius-3000 window
    # of 1/sqrt(2)'s fractional part shows within its first 164 symbols
    w = sy.sturmian_window(ALPHA_STAR, Fraction(1, 7), 3000)
    fam, seen = scanned(caplog, sy.factor_family, w, 41)
    assert seen == [(6001, 164)]
    assert fam == old_factor_family(w, 41)


@pytest.mark.parametrize("alpha", [ALPHA_STAR, Fraction(2, 7), 0.0])
@pytest.mark.parametrize("radius", [0, 1, 5, 40])
def test_family_edge_lengths(alpha, radius):
    w = sy.sturmian_window(alpha, Fraction(1, 3), radius)
    L = len(w)
    for m in (-1, 0, 1, L, L + 1):
        assert outcome(sy.factor_family, w, m) == outcome(old_factor_family, w, m), m


def test_uncoded_windows_keep_the_full_scan(caplog):
    w = sy.sturmian_window(ALPHA_STAR, Fraction(1, 7), 300)
    full, full_seen = scanned(caplog, sy.factor_family, sy.CentralWindow.from_word(w.word()), 41)
    prefix, prefix_seen = scanned(caplog, sy.factor_family, w, 41)
    assert full == prefix and full_seen + prefix_seen == [(601, 601), (601, 164)]
