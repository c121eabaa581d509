"""Tests for the rotation-coding certificate of `symbolic.sturmian_window`
and for the integer Stern-Brocot walk.

`estimate_rotation_interval` skips its balance scan on a window that
carries `_coded`.  That rests on one theorem: a rotation coding is the
complement of a mechanical word, and mechanical words are balanced at
every length (Morse & Hedlund, 1940; Lothaire, "Algebraic Combinatorics
on Words", ch. 2).  The first tests check the theorem on the kernel's own
windows, over exact, rational and float angles, including angles outside
(0, 1), and that the skip changes no outcome.  The walk's oracle is the
`Fraction` walk it replaced, copied here unchanged but for returning the
fields of its DEBUG record.
"""

import dataclasses
import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from denshoe import circle
from denshoe import symbolic as sy
from denshoe.errors import NotSturmian
from denshoe.exact import ALPHA_STAR, QuadReal

FIELDS = (2, 3, 5, 7, 11, 13)
PROPERTY = settings(max_examples=120, deadline=None)


# ---------------------------------------------------------------------------
# the replaced walk
# ---------------------------------------------------------------------------

def fraction_walk(w):
    """The `Fraction` walk that `_farey_walk` replaced: (interval, record
    fields), or the type and message of the error it raised."""
    L = len(w)
    word = w.word()
    periodic = sy._is_periodic(word)

    c0 = word.count("0")
    freq_lo = max(Fraction(0), Fraction(c0 - 1, L))
    freq_hi = min(Fraction(1), Fraction(c0 + 1, L))
    zeros = np.concatenate(([0], np.cumsum(sy._symbol_array(w) == 0)))
    cap = min(L, sy.LANGUAGE_CAP)

    lo_p, lo_q = 0, 1
    hi_p, hi_q = 1, 1
    tried = by_frequency = by_counts = 0
    stop = "target_width"
    try:
        while Fraction(1, lo_q * hi_q) > sy.TARGET_WIDTH:
            mp, mq = lo_p + hi_p, lo_q + hi_q
            tried += 1
            m = Fraction(mp, mq)
            if m < freq_lo or m > freq_hi:
                s = 1 if m < freq_lo else -1
                by_frequency += 1
            elif mq > cap:
                stop = "language_cap"
                break
            else:
                s = sy._count_side(zeros, mp, mq)
                if s == 0:
                    stop = "undecided"
                    break
                by_counts += 1
            if s > 0:
                lo_p, lo_q = mp, mq
            else:
                hi_p, hi_q = mp, mq

        lo, hi = Fraction(lo_p, lo_q), Fraction(hi_p, hi_q)
        record = {"length": L, "mediants": tried, "frequency": by_frequency,
                  "counts": by_counts, "stop": stop, "lo": lo, "hi": hi}
        if hi < freq_lo or lo > freq_hi:
            raise NotSturmian("frequency bound and factor refinement are inconsistent")
    except NotSturmian as e:
        return type(e), str(e)
    return sy.FareyInterval(lo, hi, periodic=periodic), record


def outcome(f, *args):
    """f's value, or the type and message of the error it raised."""
    try:
        return f(*args)
    except NotSturmian as e:
        return type(e), str(e)


def integer_walk(w, caplog):
    """`_farey_walk` with its DEBUG record, as `fraction_walk` returns it;
    `caplog` is cleared first, as it is not reset between the examples of
    a hypothesis test."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="denshoe.symbolic"):
        got = outcome(sy._farey_walk, w)
    if isinstance(got, tuple):
        return got
    (fields,) = [dict(r.args) for r in caplog.records
                 if r.msg.split()[0] == "estimate_rotation_interval"]
    assert fields.pop("validation") == ("certified" if w._coded else "ran")
    return got, fields


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

@st.composite
def exact_angles(draw):
    """r + b sqrt(d) with rational r and small b, anywhere on the line."""
    d = draw(st.sampled_from(FIELDS))
    r = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 13)))
    return QuadReal(r, draw(st.integers(-9, 9).filter(bool)), d)


rationals = st.one_of(
    st.fractions(0, 1, max_denominator=300),          # rational slopes in [0, 1]
    st.fractions(-3, 4, max_denominator=50))           # and outside (0, 1)
floats = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


@st.composite
def angle_pairs(draw):
    """(alpha, theta): exact quadratic, rational or float, mixed freely;
    an exact theta in alpha's field, in another field, rational, or a
    point of alpha's orbit, which puts entries exactly on arc ends."""
    alpha = draw(st.one_of(exact_angles(), rationals, floats))
    kinds = ["quadratic", "rational", "float"]
    if isinstance(alpha, QuadReal):
        kinds.append("orbit")
    kind = draw(st.sampled_from(kinds))
    if kind == "quadratic":
        theta = draw(exact_angles())
    elif kind == "rational":
        theta = draw(rationals)
    elif kind == "float":
        theta = draw(floats)
    else:
        theta = (draw(st.integers(-310, 310)) * alpha).frac()
    return alpha, theta


@st.composite
def coded_windows(draw):
    alpha, theta = draw(angle_pairs())
    return sy.sturmian_window(alpha, theta, draw(st.integers(0, 300)))


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------

@PROPERTY
@given(coded_windows())
def test_coded_windows_are_balanced_at_every_length(w):
    """The theorem the skip rests on, at every length of the window."""
    assert w._coded
    sy._validate_sturmian(w, len(w))


@PROPERTY
@given(coded_windows())
def test_certificate_changes_no_outcome(w):
    twin = sy.CentralWindow(w.radius, w.symbols)
    assert not twin._coded
    assert outcome(sy.estimate_rotation_interval, w) == \
        outcome(sy.estimate_rotation_interval, twin)


def unbalanced_symbols(w):
    """w's symbols with the symbol after its first 0 set to 0: an angle
    below 1/2 codes isolated 0s, so the window gets 00 next to 11."""
    syms = list(w.symbols)
    syms[syms.index(0) + 1] = 0
    return tuple(syms)


def test_uncertified_windows_are_validated():
    w = sy.sturmian_window(ALPHA_STAR, 0, 50)
    bad = unbalanced_symbols(w)
    copy = dataclasses.replace(w, symbols=bad)
    assert w._coded and not copy._coded and not dataclasses.replace(w)._coded
    for v in (copy, sy.CentralWindow(50, bad), sy.CentralWindow(50, np.array(bad)),
              sy.CentralWindow.from_word("".join(map(str, bad)))):
        with pytest.raises(NotSturmian, match=r"complexity exceeds n\+1 at n=2"):
            sy.estimate_rotation_interval(v)


def test_itinerary_windows_carry_no_certificate():
    h = circle.denjoy_build(ALPHA_STAR, 1000)
    it = circle.itinerary(h, circle.coding_intervals(h), h.position_of_angle(0.25), 40)
    assert not it._coded
    assert it == sy.sturmian_window(ALPHA_STAR, Fraction(1, 4), 40)


def test_certificate_is_not_part_of_the_value():
    w = sy.sturmian_window(ALPHA_STAR, Fraction(1, 7), 30)
    twin = sy.CentralWindow(30, w.symbols)
    assert w._coded and not twin._coded
    assert w == twin and hash(w) == hash(twin) and repr(w) == repr(twin)
    assert "_coded" not in repr(w)


def test_estimate_record_says_which_validation(caplog):
    w = sy.sturmian_window(ALPHA_STAR, 0, 300)
    with caplog.at_level(logging.DEBUG, logger="denshoe.symbolic"):
        a = sy.estimate_rotation_interval(w)
        b = sy.estimate_rotation_interval(sy.CentralWindow(300, w.symbols))
    fields = [r.args["validation"] for r in caplog.records
              if r.msg.split()[0] == "estimate_rotation_interval"]
    assert fields == ["certified", "ran"] and a == b


# ---------------------------------------------------------------------------
# the integer walk against the Fraction walk
# ---------------------------------------------------------------------------

@st.composite
def random_windows(draw):
    r = draw(st.integers(0, 200))
    syms = draw(st.lists(st.integers(0, 1), min_size=2 * r + 1, max_size=2 * r + 1))
    return sy.CentralWindow(r, tuple(syms))


@st.composite
def flipped_windows(draw):
    """A coded window, uncertified, with one to three symbols flipped."""
    syms = list(draw(coded_windows()).symbols)
    for i in draw(st.lists(st.integers(0, len(syms) - 1), min_size=1, max_size=3)):
        syms[i] ^= 1
    return sy.CentralWindow(len(syms) // 2, tuple(syms))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(coded_windows(), random_windows(), flipped_windows()))
def test_integer_walk_matches_fraction_walk(caplog, w):
    """The same interval and the same DEBUG fields, or the same error."""
    assert integer_walk(w, caplog) == fraction_walk(w)


@pytest.mark.parametrize("word", ["0", "1", "0" * 2401, "1" * 2401, "01" * 600 + "0",
                                  "011" * 20 + "0", "1" * 1000 + "0" + "1" * 1000],
                         ids=["0", "1", "zeros", "ones", "01", "011", "one-zero"])
def test_integer_walk_on_edge_windows(word, caplog):
    """Constant windows (frequency bounds clipped to 0 and 1), periodic
    ones, and one 0 in 2001 symbols."""
    w = sy.CentralWindow.from_word(word)
    assert integer_walk(w, caplog) == fraction_walk(w)
