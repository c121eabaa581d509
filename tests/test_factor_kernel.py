"""Property tests for the one-pass factor kernel of `symbolic` and for the
Stern-Brocot walk that reads sliding zero counts.

The oracles are the string functions and the language-building walk the
kernel replaced, copied here unchanged except that they read the
window's symbols directly, raise InvalidArgument where they raised
ValueError, and the walk caches its one-sided language differences per
mediant (they depend on p/q alone) and has lost its constant-window
shortcut, whose interval [0, 1/(L+1)] could miss the slope.  The walk's
periodicity test is the KMP failure-function period that
`symbolic._is_periodic` replaced.
"""

import dataclasses
import itertools
import logging
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denshoe import symbolic as sy
from denshoe.errors import InvalidArgument, NotSturmian, WindowTooShort
from denshoe.exact import ALPHA_STAR, QuadReal, convergents

FIELDS = (2, 3, 5, 7, 11, 13)
PROPERTY = settings(max_examples=40, deadline=None)
SLOW_ANGLES = (QuadReal(-40, 18, 5), QuadReal(-66, 20, 11))   # near 1/4 and 1/3


# ---------------------------------------------------------------------------
# the replaced code
# ---------------------------------------------------------------------------

def old_word(w):
    return "".join("01"[s] for s in w.symbols)


def old_factor_set(w, n):
    if n < 1:
        raise InvalidArgument("factor length must be >= 1")
    if len(w) < n:
        raise WindowTooShort(f"window length {len(w)} < factor length {n}")
    word = old_word(w)
    return sy.FactorSet(n, frozenset(word[i:i + n] for i in range(len(word) - n + 1)))


def old_complexity(w, n):
    return len(old_factor_set(w, n))


def old_balance_defect(w, n):
    counts = {u.count("1") for u in old_factor_set(w, n).words}
    return max(counts) - min(counts)


def old_factor_family(w, max_length):
    return {n: old_factor_set(w, n) for n in range(1, max_length + 1)}


def old_validate_sturmian(w, max_check):
    for n in range(1, min(max_check, len(w)) + 1):
        if old_complexity(w, n) > n + 1:
            raise NotSturmian(f"complexity exceeds n+1 at n={n}")
        if old_balance_defect(w, n) > 1:
            raise NotSturmian(f"balance defect exceeds 1 at n={n}")


def kmp_smallest_period(word):
    # classic KMP failure-function period
    n = len(word)
    fail = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k and word[i] != word[k]:
            k = fail[k]
        if word[i] == word[k]:
            k += 1
        fail[i + 1] = k
    return n - fail[n]


@cache
def one_sided_words(p, q):
    above = sy.rational_limit_language(p, q, +1, q)
    below = sy.rational_limit_language(p, q, -1, q)
    return above - below, below - above


def old_language_side(word, mp, mq):
    """The language test of the old walk's decide, for mq <= len(word)."""
    above_only, below_only = one_sided_words(mp, mq)
    seen_above = any(word.find(u) >= 0 for u in above_only)
    seen_below = any(word.find(u) >= 0 for u in below_only)
    if seen_above and seen_below:
        raise NotSturmian(
            f"factors on both sides of {mp}/{mq}: window is not a rotation coding")
    if seen_above:
        return 1
    if seen_below:
        return -1
    return 0


def old_estimate_rotation_interval(w, *, max_denominator=10 ** 6,
                                   target_width=Fraction(1, 1200), language_cap=600,
                                   validate_to=40):
    L = len(w)
    word = old_word(w)

    old_validate_sturmian(w, validate_to)

    period = kmp_smallest_period(word)
    periodic = period <= L // 2

    c0 = word.count("0")
    freq_lo = max(Fraction(0), Fraction(c0 - 1, L))
    freq_hi = min(Fraction(1), Fraction(c0 + 1, L))

    def decide(mp, mq):
        m = Fraction(mp, mq)
        if m < freq_lo:
            return 1
        if m > freq_hi:
            return -1
        if mq > min(L, language_cap):
            return 0
        return old_language_side(word, mp, mq)

    lo_p, lo_q = 0, 1
    hi_p, hi_q = 1, 1
    while Fraction(1, lo_q * hi_q) > target_width:
        mp, mq = lo_p + hi_p, lo_q + hi_q
        if mq > max_denominator:
            break
        s = decide(mp, mq)
        if s > 0:
            lo_p, lo_q = mp, mq
        elif s < 0:
            hi_p, hi_q = mp, mq
        else:
            break

    lo, hi = Fraction(lo_p, lo_q), Fraction(hi_p, hi_q)
    if hi < freq_lo or lo > freq_hi:
        raise NotSturmian("frequency bound and factor refinement are inconsistent")
    return sy.FareyInterval(lo, hi, periodic=periodic)


def outcome(f, *args, **kwargs):
    """f's value, or the type and message of the error it raised."""
    try:
        return f(*args, **kwargs)
    except (ValueError, WindowTooShort, NotSturmian) as e:
        return type(e), str(e)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

@st.composite
def quadratic_angles(draw, below_half=False):
    """{b sqrt(d)}, or its complement 1 - {b sqrt(d)} when below_half."""
    d = draw(st.sampled_from(FIELDS))
    a = QuadReal(0, draw(st.integers(1, 100)), d).frac()
    if below_half and a > Fraction(1, 2):
        a = 1 - a
    return a


def exact_offsets(alpha):
    return st.one_of(
        st.fractions(0, 1, max_denominator=4099),
        st.builds(lambda j: (j * alpha).frac(), st.integers(-3000, 3000)))


@st.composite
def coding_windows(draw, radii):
    alpha = draw(st.one_of(quadratic_angles(), st.sampled_from(SLOW_ANGLES)))
    return sy.sturmian_window(alpha, draw(exact_offsets(alpha)), draw(radii))


@st.composite
def flipped_windows(draw, radii):
    """A coding window with one to three symbols flipped."""
    syms = list(draw(coding_windows(radii)).symbols)
    for i in draw(st.lists(st.integers(0, len(syms) - 1), min_size=1, max_size=3)):
        syms[i] ^= 1
    return sy.CentralWindow(len(syms) // 2, tuple(syms))


random_windows = st.integers(0, 40).flatmap(
    lambda r: st.lists(st.integers(0, 1), min_size=2 * r + 1, max_size=2 * r + 1)
    .map(lambda s: sy.CentralWindow(r, tuple(s))))

any_windows = st.one_of(random_windows, flipped_windows(st.integers(0, 60)),
                        coding_windows(st.integers(0, 60)))


# ---------------------------------------------------------------------------
# factor statistics against the string functions
# ---------------------------------------------------------------------------

@PROPERTY
@given(any_windows)
def test_statistics_match_string_functions(w):
    L = len(w)
    assert sy.factor_family(w, L) == old_factor_family(w, L)
    for n in range(0, L + 2):
        assert outcome(sy.factor_set, w, n) == outcome(old_factor_set, w, n)
        assert outcome(sy.complexity, w, n) == outcome(old_complexity, w, n)
        assert outcome(sy.balance_defect, w, n) == outcome(old_balance_defect, w, n)
    assert outcome(sy.factor_family, w, L + 1) == outcome(old_factor_family, w, L + 1)
    for m in (0, 1, L // 2, L, L + 5):
        assert outcome(sy._validate_sturmian, w, m) == outcome(old_validate_sturmian, w, m)


def test_factor_family_of_long_window():
    w = sy.sturmian_window(ALPHA_STAR, Fraction(1, 7), 3000)
    assert sy.factor_family(w, 41) == old_factor_family(w, 41)


@PROPERTY
@given(data=st.data())
def test_sturmian_complexity_and_balance(data):
    """Complexity n+1 and balance <= 1 on coding windows of angles in
    (0, 1/2).  A window contains every length-n factor once it is at least
    as long as the recurrence function R(n) = n + q_k + q_{k+1} - 1, with
    q_k <= n < q_{k+1} convergent denominators (Morse & Hedlund, 1940);
    shorter windows may miss factors, but never exceed n+1."""
    alpha = data.draw(quadratic_angles(below_half=True))
    w = sy.sturmian_window(alpha, data.draw(exact_offsets(alpha)),
                           data.draw(st.integers(50, 1500)))
    qs = [q for _, q in convergents(alpha, 40)]
    for n, fs in sy.factor_family(w, 40).items():
        k = max(i for i, q in enumerate(qs) if q <= n)
        if n + qs[k] + qs[k + 1] - 1 <= len(w):
            assert len(fs) == n + 1, n
        else:
            assert len(fs) <= n + 1, n
        ones = [u.count("1") for u in fs.words]
        assert max(ones) - min(ones) <= 1, n


# ---------------------------------------------------------------------------
# rotation recovery against the language-building walk
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(coding_windows(st.integers(50, 3000)))
def test_rotation_interval_matches_old_walk(w):
    assert sy.estimate_rotation_interval(w) == old_estimate_rotation_interval(w)


@pytest.mark.parametrize("radius", [50, 2000])
@pytest.mark.parametrize("alpha", SLOW_ANGLES, ids=["18r5-40", "20r11-66"])
def test_rotation_interval_of_slow_angles(alpha, radius):
    w = sy.sturmian_window(alpha, 0, radius)
    iv = sy.estimate_rotation_interval(w)
    assert iv == old_estimate_rotation_interval(w)
    assert (alpha - iv.lo).sign() > 0 and (QuadReal(iv.hi) - alpha).sign() > 0


@settings(max_examples=60, deadline=None)
@given(flipped_windows(st.integers(50, 1000)), st.sampled_from((0, 3, 40)))
def test_flipped_windows_refine_old_walk(w, validate_to):
    """The count rule decides wherever the language rule did, so the walk
    either ends where the old one ended, goes on inside its interval, or
    proves that no slope fits.  Most flips fail the validation, so the
    walk also runs with a shorter one."""
    old = outcome(old_estimate_rotation_interval, w, validate_to=validate_to)
    new = outcome(sy.estimate_rotation_interval, w, validate_to=validate_to)
    if isinstance(old, tuple):
        assert isinstance(new, tuple) and new[0] is NotSturmian
    elif isinstance(new, tuple):
        assert new[0] is NotSturmian
    else:
        assert old.lo <= new.lo <= new.hi <= old.hi
        assert new.periodic == old.periodic


@settings(max_examples=60, deadline=None)
@given(w=any_windows, data=st.data())
def test_count_side_decides_where_languages_did(w, data):
    word = old_word(w)
    q = data.draw(st.integers(1, min(len(w), 60)))
    p = data.draw(st.integers(0, q).filter(lambda p: Fraction(p, q).denominator == q))
    zeros = [0]
    for c in word:
        zeros.append(zeros[-1] + (c == "0"))
    old = outcome(old_language_side, word, p, q)
    new = outcome(sy._count_side, np.array(zeros), p, q)
    if old in (1, -1):
        assert new == old or (isinstance(new, tuple) and new[0] is NotSturmian)
    elif old != 0:
        assert new == old


# ---------------------------------------------------------------------------
# periodicity against the KMP period
# ---------------------------------------------------------------------------

def test_periodicity_of_every_short_word():
    for L in range(1, 15):
        for bits in itertools.product("01", repeat=L):
            word = "".join(bits)
            assert sy._is_periodic(word) == (kmp_smallest_period(word) <= L // 2), word


@st.composite
def near_periodic_words(draw):
    """A random block repeated to length L, with up to two symbols flipped."""
    block = draw(st.text("01", min_size=1, max_size=60))
    L = draw(st.integers(1, 3000))
    word = list((block * (L // len(block) + 1))[:L])
    for i in draw(st.lists(st.integers(0, L - 1), max_size=2)):
        word[i] = "10"[int(word[i])]
    return "".join(word)


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_periodic_words(), st.text("01", min_size=1, max_size=200)))
def test_periodicity_matches_kmp(word):
    assert sy._is_periodic(word) == (kmp_smallest_period(word) <= len(word) // 2)


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

def test_walk_record(caplog):
    w = sy.sturmian_window(ALPHA_STAR, 0, 1000)
    with caplog.at_level(logging.DEBUG, logger="denshoe.symbolic"):
        iv = sy.estimate_rotation_interval(w)
    (record,) = [r for r in caplog.records if r.getMessage().startswith("estimate_rotation")]
    msg = record.getMessage()
    fields = dict(kv.split("=") for kv in msg.split()[1:])
    assert fields["length"] == "2001" and fields["stop"] == "target_width"
    assert int(fields["frequency"]) + int(fields["counts"]) == int(fields["mediants"]) > 0
    assert Fraction(fields["lo"]) == iv.lo and Fraction(fields["hi"]) == iv.hi


@pytest.mark.parametrize("kwargs, stop", [
    ({"max_denominator": 20}, "max_denominator"),
    ({"language_cap": 10, "target_width": Fraction(1, 10 ** 9)}, "language_cap"),
])
def test_walk_record_stop_reasons(caplog, kwargs, stop):
    w = sy.sturmian_window(ALPHA_STAR, 0, 1000)
    with caplog.at_level(logging.DEBUG, logger="denshoe.symbolic"):
        sy.estimate_rotation_interval(w, **kwargs)
    assert f" stop={stop} " in caplog.records[-1].getMessage()


def test_walk_record_undecided(caplog):
    # 1/3 with period 3: the counts of length 3 are all 1, so 1/3 is undecided
    w = sy.CentralWindow.from_word("011" * 20 + "0")
    with caplog.at_level(logging.DEBUG, logger="denshoe.symbolic"):
        iv = sy.estimate_rotation_interval(w)
    assert Fraction(1, 3) in iv
    assert " stop=undecided " in caplog.records[-1].getMessage()


def test_no_walk_record_when_debug_is_off(caplog):
    with caplog.at_level(logging.INFO, logger="denshoe.symbolic"):
        sy.estimate_rotation_interval(sy.sturmian_window(ALPHA_STAR, 0, 300))
    assert not caplog.records


# ---------------------------------------------------------------------------
# the cached word
# ---------------------------------------------------------------------------

def test_cached_word_is_not_part_of_the_value():
    w = sy.sturmian_window(ALPHA_STAR, 0, 12)
    twin = sy.CentralWindow(12, tuple(int(c) for c in old_word(w)))
    assert w.word() == old_word(w) and w.word() is w.word()
    assert w.segment(-3, 4) == old_word(w)[9:17]
    assert w == twin and hash(w) == hash(twin) == hash((12, w.symbols))
    assert repr(w) == f"CentralWindow(radius=12, symbols={w.symbols!r})"
    assert w != sy.CentralWindow(12, (1 - w.symbols[0],) + w.symbols[1:])
    assert dataclasses.replace(w, radius=12) == w
    back = sy.CentralWindow.from_word(w.word())
    assert back == w and back.word() == w.word()
