"""Binary coding words, their factors, and rotation-number recovery.

The coding convention throughout: symbol 0 at time k iff the rotated
point {theta + k*alpha} lies in the half-open arc [0, alpha); symbol 1
on the complementary arc.  Endpoint hits are resolved by the half-open
rule, so exact angles always produce a well-defined symbol.

Every coding symbol comes from `coding_block`, a filtered predicate
(Shewchuk, "Adaptive precision floating-point arithmetic and fast robust
geometric predicates", 1997).  A float angle is an exact binary rational,
so it enters as the `Fraction` of its value, and float and exact angles
take one path.  One float64 pass computes each point and its margin to
the arc ends 0, alpha and 1.  The error of that float value is at most
e(k) = e_theta + |k| e_alpha plus the rounding of the product, the sum
and the wrap, with e_alpha and e_theta from `QuadReal.float_enclosure`;
the float decides every entry whose margin exceeds four times that
bound, and exact arithmetic settles the rest.

A window that `sturmian_window` returns carries a certificate, `_coded`:
it is a rotation coding, so `estimate_rotation_interval` need not check
it for balance.  Symbol 0 at k iff {theta + k*alpha} < alpha iff
floor(theta + k*alpha) - floor(theta + (k-1)*alpha) = 1, so for alpha in
(0, 1) the window is the complement of the lower mechanical word of slope
alpha and intercept theta - alpha, and mechanical words are balanced at
every length (Morse & Hedlund, Amer. J. Math. 62, 1940; Lothaire,
"Algebraic Combinatorics on Words", Lemma 2.1.14); alpha outside (0, 1)
gives a constant word.  Every other window (built by hand, by `from_word`,
by `dataclasses.replace`, or by `circle.itinerary`) is validated.
"""

from __future__ import annotations

import logging
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidArgument, NotSturmian, OutOfRange, WindowTooShort
from .exact import _UNIT, QuadReal, as_real, is_exact

#: the rotation walk: balance checked to this factor length, mediants
#: decided by factor counts up to this denominator, and the width at
#: which the walk stops
VALIDATE_TO, LANGUAGE_CAP, TARGET_WIDTH = 40, 600, Fraction(1, 1200)
#: factor by which the float pass's error bound is widened
_FILTER_SAFETY = 4.0
#: largest index float() converts without overflow
_FLOAT_INDEX_MAX = int(sys.float_info.max)
#: most symbols one `coding_block` call codes.  Its float pass peaks near
#: 50 bytes a symbol under tracemalloc, about 200 MiB at this cap; a longer
#: block raises OutOfRange before anything is allocated
MAX_BLOCK = 2 ** 22

#: byte table taking symbols 0/1 to the characters '0'/'1'
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralWindow:
    """Finite central block of a bi-infinite 0/1 coding, indices -N..N.

    `_coded` is set only on the windows `sturmian_window` returns, and
    certifies that the window is a rotation coding, hence balanced at
    every length (see the module docstring); `estimate_rotation_interval`
    then skips its balance scan.  Like `_word` it is not part of the
    value: `==`, `hash` and `repr` ignore it, and a `dataclasses.replace`
    copy does not carry it."""

    radius: int
    symbols: tuple[int, ...]
    # the symbols as a '0'/'1' string, built once; not part of the value
    _word: str = field(init=False, repr=False, compare=False)
    # the rotation-coding certificate; not part of the value
    _coded: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.radius < 0:
            raise InvalidArgument("radius must be non-negative")
        syms = self.symbols
        if not isinstance(syms, tuple):
            # an ndarray's tolist() gives Python ints; bytes() of the array
            # itself would read its raw memory
            object.__setattr__(self, "symbols", tuple(
                syms.tolist() if isinstance(syms, np.ndarray) else syms))
        if len(self.symbols) != 2 * self.radius + 1:
            raise InvalidArgument("need exactly 2N+1 symbols")
        if isinstance(syms, np.ndarray) and syms.ndim == 1 and syms.dtype.kind in "iu":
            # integers: x >> 1 is 0 iff x is 0 or 1, and the bytes are the word
            if (syms >> 1).any():
                raise InvalidArgument("symbols must be 0 or 1")
            raw = syms.astype(np.uint8).tobytes()
        else:
            # count() compares by ==, as `in` does: True and numpy integers
            # pass, and so does a float equal to 0 or 1, which bytes() then
            # refuses
            if self.symbols.count(0) + self.symbols.count(1) != len(self.symbols):
                raise InvalidArgument("symbols must be 0 or 1")
            try:
                raw = bytes(self.symbols)
            except TypeError:
                raise InvalidArgument("symbols must be the integers 0 or 1") from None
        object.__setattr__(self, "_word", raw.translate(_DIGITS).decode())

    def __getitem__(self, k: int) -> int:
        if abs(k) > self.radius:
            raise OutOfRange(f"index {k} outside [-{self.radius}, {self.radius}]")
        return self.symbols[k + self.radius]

    def __len__(self) -> int:
        return 2 * self.radius + 1

    def word(self) -> str:
        return self._word

    def segment(self, lo: int, hi: int) -> str:
        """Symbols at indices lo..hi inclusive, as a string."""
        if lo < -self.radius or hi > self.radius:
            raise OutOfRange("segment outside window")
        return self.word()[lo + self.radius:hi + self.radius + 1]

    @classmethod
    def from_word(cls, word: str) -> "CentralWindow":
        if len(word) % 2 == 0:
            raise InvalidArgument("central word must have odd length")
        return cls(len(word) // 2, tuple(int(c) for c in word))


@dataclass(frozen=True)
class FactorSet:
    """All distinct length-n sub-blocks observed in a window."""

    length: int
    words: frozenset[str]

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class FareyInterval:
    """Interval [lo, hi] with endpoints Farey neighbors (or equal)."""

    lo: Fraction
    hi: Fraction
    periodic: bool = False

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= 1):
            raise InvalidArgument("endpoints must satisfy 0 <= lo <= hi <= 1")
        if self.lo != self.hi:
            det = self.lo.numerator * self.hi.denominator - self.hi.numerator * self.lo.denominator
            if abs(det) != 1:
                raise InvalidArgument("endpoints are not Farey neighbors")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


# ---------------------------------------------------------------------------
# coding symbols
# ---------------------------------------------------------------------------

def _mod1(x):
    """x mod 1 as x - floor(x): bit for bit np.mod(x, 1.0), at about a
    sixth of its cost on an array.

    fmod(x, 1) = x - trunc(x) is exact.  numpy's remainder returns it
    when it is positive, adds 1 to it once, rounding once, when it is
    negative, and returns +0.0 when it is zero.  x - floor(x) is that
    same number: for x >= 0 it is x - trunc(x), exact (floor(x) is 0 or
    at least x/2, so Sterbenz's lemma applies); for a negative non-integer
    floor(x) = trunc(x) - 1, and x - floor(x) rounds the exact sum
    fmod(x, 1) + 1 once, as numpy does.  On an integer (every |x| >= 2^52,
    and -0.0) it is x - x = +0.0; on +-inf both give NaN and raise the
    invalid flag, and a NaN passes with its payload."""
    return x - np.floor(x)


def _symbol_exact(alpha: QuadReal, theta: QuadReal, k: int) -> int:
    if not (alpha.d and theta.d and alpha.d != theta.d):
        t = (theta + k * alpha).frac()
        return 0 if t < alpha else 1
    # theta + k*alpha spans two fields, so it has no QuadReal value; with
    # u = {theta} and v = {k*alpha} the point is u + v, less 1 when
    # u >= 1 - v, and comparisons order numbers across fields
    u, v = theta.frac(), (k * alpha).frac()
    return 0 if u < (alpha - v if u < 1 - v else alpha + 1 - v) else 1


def coding_block(alpha, theta, lo: int, hi: int) -> tuple[int, ...]:
    """Symbols of the rotation coding at k = lo..hi, in one float64 pass.

    Float angles must be finite (else InvalidArgument), and are coded as
    the binary rationals they are; when either angle is a float, both are
    taken at their float values.  An entry's margin is its distance to
    the arc ends 0, alpha and 1.  Entries with margin at most the certified
    error bound of the float pass, among them every exact hit of an arc
    end and every entry whose index is beyond the float range, are settled
    in exact arithmetic, so every symbol is exact.  A block of more than
    MAX_BLOCK symbols raises OutOfRange; the indices themselves may be any
    size.  A DEBUG record on this module's logger gives the block and the
    number of entries settled exactly (flagged)."""
    return tuple(_coding_array(alpha, theta, lo, hi).tolist())


def _coding_array(alpha, theta, lo: int, hi: int) -> np.ndarray:
    """The symbols of `coding_block` as an int8 array."""
    if hi - lo + 1 > MAX_BLOCK:
        raise OutOfRange(f"block of {hi - lo + 1} symbols exceeds MAX_BLOCK = {MAX_BLOCK}")
    if not (is_exact(alpha) and is_exact(theta)):
        af, tf = float(alpha), float(theta)
        if not (math.isfinite(af) and math.isfinite(tf)):
            raise InvalidArgument(f"angles alpha={alpha!r}, theta={theta!r} must be finite")
        # Fraction(float(x)), not Fraction(x), which refuses np.float32
        alpha, theta = Fraction(af), Fraction(tf)
    a, th = as_real(alpha), as_real(theta).frac()
    af, err_a = a.float_enclosure()
    tf, err_t = th.float_enclosure()
    span = max(abs(lo), abs(hi))
    if span <= 2 ** 53:
        ks = np.arange(lo, hi + 1, dtype=np.float64)
    elif span <= _FLOAT_INDEX_MAX:
        ks = np.array([float(k) for k in range(lo, hi + 1)])
    else:
        ks = np.zeros(hi - lo + 1)    # no float value: every entry is flagged below
    # the same operations, in the same order, as (theta + k*alpha) % 1.0,
    # with the wrap as x - floor(x), which gives the same bits (`_mod1`)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: nan, flagged
        t = _mod1(tf + ks * af)
        margin = np.minimum(np.minimum(t, 1.0 - t), np.abs(t - af))
        # |t - {theta + k alpha}| <= err_t + |k| err_a plus the rounding of k,
        # of the product, the sum and the wrap into [0, 1); alpha itself is
        # off by err_a.  A margin above the bound fixes the symbol.  An
        # infinite enclosure or an index beyond the float range (no float
        # value) flags every entry.
        bound = (_FILTER_SAFETY * (err_t + 2 * err_a + _UNIT * (abs(tf) + 2)
                                   + np.abs(ks) * (err_a + 3 * _UNIT * abs(af)))
                 if err_a + err_t < np.inf and span <= _FLOAT_INDEX_MAX else np.inf)
    syms = (t >= af).astype(np.int8)
    flagged = np.flatnonzero(~(margin > bound)).tolist()
    for i in flagged:
        syms[i] = _symbol_exact(a, th, lo + i)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("coding_block k=%(lo)d..%(hi)d symbols=%(symbols)d flagged=%(flagged)d",
                   {"lo": lo, "hi": hi, "symbols": len(t), "flagged": len(flagged)})
    return syms


def sturmian_window(alpha, theta, radius: int) -> CentralWindow:
    """Central coding window of radius N for the rotation by alpha, offset
    theta.  The window carries the `_coded` certificate: it is a rotation
    coding, balanced at every length (see the module docstring)."""
    w = CentralWindow(radius, _coding_array(alpha, theta, -radius, radius))
    object.__setattr__(w, "_coded", True)
    return w


# ---------------------------------------------------------------------------
# agreement of two windows
# ---------------------------------------------------------------------------

def agreement_radius(u: CentralWindow, v: CentralWindow) -> int | None:
    """Smallest |k| where u and v disagree; None if equal on the common
    radius.  The scan runs outward from k = 0 and stops at the first
    difference."""
    us, cu, vs, cv = u.symbols, u.radius, v.symbols, v.radius
    for k in range(min(cu, cv) + 1):
        if us[cu + k] != vs[cv + k] or us[cu - k] != vs[cv - k]:
            return k
    return None


# ---------------------------------------------------------------------------
# factors, complexity, balance
# ---------------------------------------------------------------------------
#
# One sort serves a block of up to 61 factor lengths.  With lab[i] a label
# of the length-n0 factor that starts at i (below `size`, equal for equal
# factors, ordered as the factors are), and code[i] the next b symbols
# s[i+n0 .. i+n0+b-1] packed into b bits (first symbol highest, ones past
# the end of the window), the key lab[i] << b | code[i] orders the
# length-(n0+b) factors lexicographically; b <= 62 - bitlen(size) keeps it
# below 2**62.  The codes are built by shift-or doubling: the code of
# width 2w at i is the code of width w at i, shifted by w, or'ed with the
# one at i + w.
#
# The block sorts the keys of every start i < L - n0 once (np.unique).
# The last b - 1 starts are late: their codes hold only the v = L - n0 - i
# symbols left, padded with ones, and a late key equal to an earlier one
# is the earlier word cut short, so the first occurrence stands for both.
# In the sorted list the length-(n0+k) factor of an entry is the prefix
# key >> (b - k), monotone in the key, so the distinct factors of length
# n0 + k are the runs of equal prefixes among the entries with v >= k,
# and the first entry of each run gives one start per factor, in
# lexicographic order.  An entry starts a run iff k exceeds a, the common
# prefix of its code and the one before it (0 when their labels differ),
# read from the highest bit of the keys' xor.  A late key is the largest
# with its label and its v symbols, so the entry after it shares fewer
# than v of them and starts a run once the late entry has left.  The
# ranks from the sort (its inverse) at the full starts label the next
# block, so any top <= L works.  Cost: one O(L log L) sort and about
# log2(b) O(L) passes per block, plus O(distinct) per length (about n + 1
# on a Sturmian window); memory: a few int64 arrays of length L.
#
# Balance needs no factors: with ones[j] the number of 1s among the first
# j symbols, ones[n:] - ones[:-n] are the one-counts of the length-n
# factors at every start, and the balance defect is their max - min.
# Balance at every length n <= N implies complexity p(n) <= n + 1 at
# every n <= N (Lothaire, "Algebraic Combinatorics on Words", Prop. 2.1.2;
# Coven & Hedlund, "Sequences with minimal block growth", Math. Systems
# Theory 7, 1973).  p(m+1) - p(m) is at most the number of right-special
# length-m factors (those followed by both 0 and 1; in a finite window
# only the suffix can have no extension), so p(m+1) >= p(m) + 2 gives two
# of them, u = ..as and v = ..bs with a != b and s their longest common
# suffix; then 0s0 and 1s1 are factors of length <= m + 1, and balance
# fails there.  So complexity never exceeds n + 1 at a length below the
# first one where balance fails.
#
# A coded window is balanced, and so is every prefix of it, so each has
# at most n + 1 factors of length n.  When a prefix shows m + 1 factors of
# length m, it holds every length-m factor of the window, and with them
# every shorter one: a length-n factor of the window is a prefix of the
# length-m factor at its start, or, within m symbols of the end, a
# suffix of the last one.  So `factor_family` reads a coded window's
# factors from a prefix: 4 m symbols first, doubled until the top level
# holds m + 1 factors, and the whole window once the next prefix would
# pass half of it.  The prefixes scanned before the whole window then sum
# to at most its length, so the worst case, a window that lacks a
# length-m factor (rational or near-rational slopes), costs at most two
# full scans.  Every start found lies in the prefix and reads the same
# word in the window.

def _symbol_array(w: CentralWindow) -> np.ndarray:
    return np.frombuffer(w.word().encode("ascii"), dtype=np.uint8).astype(np.int64) - 48


def _one_counts(w: CentralWindow) -> np.ndarray:
    """Prefix sum of the symbols: entry j is the number of 1s before index j."""
    return np.concatenate(([0], np.cumsum(_symbol_array(w))))


def _defect(ones: np.ndarray, n: int) -> int:
    """Balance defect at length n, max - min of the sliding one-counts,
    from the prefix sum `ones`; 1 <= n < len(ones)."""
    counts = ones[n:] - ones[:-n]
    return int(counts.max() - counts.min())


def _codes(s: np.ndarray, b: int) -> np.ndarray:
    """The b-bit codes, first symbol highest, of s[i:i+b] for every i,
    padded with ones past the end of s; 1 <= b <= 62."""
    width = 1
    while 2 * width <= b:
        width *= 2
    # the doublings read width - 1 entries past each start, the last step
    # another width: pad s with 2 * width - 1 ones
    c = np.concatenate((s, np.ones(2 * width - 1, dtype=np.int64)))
    w = 1
    while w < width:
        c = c[:-w] << w | c[w:]
        w *= 2
    # the last b - width symbols are the top bits of the code `width` on
    return c[:-width] << (b - width) | c[width:] >> (2 * width - b)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each entry of x, 0 <= x < 2**62; each half of 31
    bits converts to a float exactly."""
    high = x >> 31
    return np.where(high > 0, np.frexp(high)[1] + 31, np.frexp(x)[1])


def _factor_levels(w: CentralWindow, top: int, first: int = 1,
                   prefix: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """(n, starts) for n = first..top: one start of each distinct length-n
    factor, in lexicographic order of the factors, of the window or, given
    `prefix` (at least top), of its first `prefix` symbols.

    One sort serves a block of up to 61 lengths (see the comment above
    `_symbol_array`); a block that ends below `first` yields nothing.  A
    DEBUG record gives the window length, the symbols scanned, top, the
    number of blocks and the distinct keys of each block's sort."""
    if top > len(w):
        raise WindowTooShort(f"window length {len(w)} < factor length {top}")
    s = _symbol_array(w)[:prefix]
    L = len(s)
    lab = np.zeros(L + 1, dtype=np.int64)      # the empty factor, at 0..L
    size, n0 = 1, 0
    distinct = []
    while n0 < top:
        b = min(62 - size.bit_length(), top - n0)
        key = lab[:L - n0] << b | _codes(s[n0:], b)
        keys, starts, inverse = np.unique(key, return_index=True, return_inverse=True)
        lab, size = inverse[:L - n0 - b + 1], len(keys)
        distinct.append(size)
        if n0 + b < first:
            n0 += b
            continue
        valid = L - n0 - starts                # symbols left; b or more at a full start
        # entry j starts a run of equal length-(n0+k) prefixes iff k > a[j],
        # the common prefix of its code and the one before it (0 when
        # their labels differ)
        a = np.concatenate(([0], np.maximum(b - _bit_length(keys[1:] ^ keys[:-1]), 0)))
        for k in range(max(1, first - n0), b + 1):
            yield n0 + k, starts[(a < k) & (valid >= k)]
        n0 += b
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("factor_levels length=%(length)d scanned=%(scanned)d top=%(top)d "
                   "blocks=%(blocks)d distinct=%(distinct)s",
                   {"length": len(w), "scanned": L, "top": top, "blocks": len(distinct),
                    "distinct": distinct})


def _factor_set(word: str, n: int, starts: np.ndarray) -> FactorSet:
    return FactorSet(n, frozenset(word[i:i + n] for i in starts.tolist()))


def _level(w: CentralWindow, n: int) -> np.ndarray:
    """One start of each distinct length-n factor."""
    if n < 1:
        raise InvalidArgument("factor length must be >= 1")
    ((_, starts),) = _factor_levels(w, n, n)
    return starts


def factor_set(w: CentralWindow, n: int) -> FactorSet:
    """The set of distinct length-n blocks of the window."""
    return _factor_set(w.word(), n, _level(w, n))


def complexity(w: CentralWindow, n: int) -> int:
    return len(_level(w, n))


def balance_defect(w: CentralWindow, n: int) -> int:
    """Max difference of 1-counts over pairs of length-n factors (<=1 iff balanced)."""
    if n < 1:
        raise InvalidArgument("factor length must be >= 1")
    if n > len(w):
        raise WindowTooShort(f"window length {len(w)} < factor length {n}")
    return _defect(_one_counts(w), n)


def factor_family(w: CentralWindow, max_length: int) -> dict[int, FactorSet]:
    """Factor sets of every length 1..max_length.  A window with the
    `_coded` certificate is read from its shortest prefix, of 4 max_length
    symbols doubled, that shows max_length + 1 factors of length
    max_length, or from the whole window when the prefix would pass half
    of it; the sets are the whole window's (see the comment above
    `_symbol_array`)."""
    L = len(w)
    size = 4 * max_length if w._coded and max_length >= 1 else L
    while True:
        if 2 * size > L:
            size = L
        levels = list(_factor_levels(w, max_length, prefix=size))
        if size == L or len(levels[-1][1]) == max_length + 1:
            break
        size *= 2
    return {n: _factor_set(w.word(), n, starts) for n, starts in levels}


# ---------------------------------------------------------------------------
# limit languages of rational slopes
# ---------------------------------------------------------------------------
#
# For a rational slope m = p/q the coding language of nearby irrational
# slopes is constant on each side of m as long as the factor length does
# not exceed q.  Both one-sided languages are computed exactly with
# first-order numbers v + s*eps (eps an infinitesimal): values live on
# the grid Z/2q, slopes are integers, comparisons are lexicographic.
#
# The rotation walk needs only the difference of the two languages at
# length q, and that is known in closed form (Lothaire, "Algebraic
# Combinatorics on Words", ch. 2; Berstel, Lauve, Reutenauer & Saliola,
# "Combinatorics on Words: Christoffel Words and Repetitions in Words",
# CRM 2008): just above p/q the length-q language has one word with
# p+1 zeros, which just below is missing; just below it has one word with
# p-1 zeros instead.  The zero count alone is a sound test on its own:
# a length-q factor of a coding of slope beta has floor(q*beta) or
# ceil(q*beta) zeros, so a factor with p+1 or more zeros rules out every
# beta <= p/q, and one with p-1 or fewer every beta >= p/q.  The walk
# therefore reads the min and max of the sliding zero counts of length q
# from one prefix sum.  `rational_limit_language` builds the languages
# themselves; the walk does not call it, and the tests use it as the
# reference oracle for the zero-count test.

def _jet_frac(v: int, s: int, twoq: int) -> tuple[int, int]:
    v %= twoq
    if v == 0 and s < 0:
        return twoq, s
    return v, s


def rational_limit_language(p: int, q: int, side: int, n: int) -> frozenset[str]:
    """Length-n factors of rotation codings with slope just above (side=+1)
    or just below (side=-1) the rational p/q."""
    if side not in (1, -1):
        raise InvalidArgument("side must be +1 or -1")
    if q < 1:
        raise InvalidArgument("q must be >= 1")
    twoq = 2 * q
    beta = (2 * p, 2 * side)  # value scaled by 2q, slope scaled by 2
    # boundary offsets where some symbol of the length-n word flips
    pts = []
    for k in range(-1, n):
        pts.append(_jet_frac(-k * beta[0], -k * beta[1], twoq))
    pts = sorted(set(pts))
    words = set()
    m = len(pts)
    for i in range(m):
        v1, s1 = pts[i]
        if i + 1 < m:
            v2, s2 = pts[i + 1]
        else:
            v2, s2 = pts[0][0] + twoq, pts[0][1]
        # arc midpoint; values are even so the halving is exact
        phi = ((v1 + v2) // 2, (s1 + s2) // 2)
        chars = []
        for k in range(n):
            t = _jet_frac(phi[0] + k * beta[0], phi[1] + k * beta[1], twoq)
            chars.append("0" if t < beta else "1")
        words.add("".join(chars))
    return frozenset(words)


# ---------------------------------------------------------------------------
# rotation-number recovery
# ---------------------------------------------------------------------------

def _is_periodic(word: str) -> bool:
    """True iff the word has a period p <= len(word) // 2.  Such a period
    puts the prefix of length L - L//2 at position p; by Fine and Wilf
    the first position of that prefix is then a period itself."""
    L = len(word)
    p = word.find(word[:L - L // 2], 1)
    return 0 < p <= L // 2 and word[p:] == word[:L - p]


def _validate_sturmian(w: CentralWindow, max_check: int) -> None:
    """NotSturmian at the first length n <= max_check (and <= len(w))
    where the window has more than n + 1 factors or a balance defect
    above 1; complexity is reported first when both fail at that n.

    Only the sliding one-counts are read: balance at every length up to
    n implies complexity <= n + 1 up to n (Lothaire, "Algebraic
    Combinatorics on Words", Prop. 2.1.2; Coven & Hedlund, Math. Systems
    Theory 7, 1973; the argument is in the comment above `_symbol_array`),
    so neither check fails below the first length where balance fails.
    The factors of that one length are counted only to pick the message."""
    ones = _one_counts(w)
    for n in range(1, min(max_check, len(w)) + 1):
        if _defect(ones, n) > 1:
            if len(_level(w, n)) > n + 1:
                raise NotSturmian(f"complexity exceeds n+1 at n={n}")
            raise NotSturmian(f"balance defect exceeds 1 at n={n}")


def _count_side(zeros: np.ndarray, p: int, q: int) -> int:
    """+1 if some length-q factor has more than p zeros (the slope is above
    p/q), -1 if some factor has fewer (below), 0 if neither; `zeros` is the
    prefix sum of the window's zero symbols."""
    counts = zeros[q:] - zeros[:-q]
    above, below = counts.max() > p, counts.min() < p
    if above and below:
        raise NotSturmian(f"factors on both sides of {p}/{q}: window is not a rotation coding")
    return 1 if above else -1 if below else 0


def estimate_rotation_interval(w: CentralWindow) -> FareyInterval:
    """Farey interval guaranteed to contain every slope whose Sturmian
    language includes all observed factors.

    A window without the `_coded` certificate is first checked to be
    balanced at every factor length up to VALIDATE_TO, which also bounds
    its complexity by n + 1 there (see `_validate_sturmian`); NotSturmian
    names the first length that fails.  A window from `sturmian_window`
    carries the certificate and skips the check: a rotation coding is the
    complement of a mechanical word, balanced at every length (see the
    module docstring), so the check could not fail.  Then `_farey_walk`
    refines the interval; its DEBUG record says whether the check ran
    (validation=ran) or the certificate stood in for it
    (validation=certified)."""
    if not w._coded:
        _validate_sturmian(w, VALIDATE_TO)
    return _farey_walk(w)


def _farey_walk(w: CentralWindow) -> FareyInterval:
    """The Stern-Brocot refinement of `estimate_rotation_interval`, on a
    window that is not validated.

    Each mediant p/q is accepted on the side proven either by the symbol-0
    frequency bound or by the zero counts of the window's length-q
    factors.  A length-q factor of a coding of slope beta has floor(q*beta)
    or ceil(q*beta) zeros, so a factor with more than p zeros proves
    beta > p/q and one with fewer proves beta < p/q; seeing both means no
    slope fits and raises NotSturmian.  On a true coding this is the
    one-word difference of the two one-sided limit languages of p/q
    (Lothaire, "Algebraic Combinatorics on Words", ch. 2; Berstel, Lauve,
    Reutenauer & Saliola, "Combinatorics on Words", CRM 2008), read from
    one prefix sum instead of built.  The walk stops at TARGET_WIDTH, at
    the language cap (q > min(len(w), LANGUAGE_CAP)), or when the counts
    do not decide; every stop is sound (the interval only ever shrinks
    around the compatible-slope set).  While the interval is wider than
    TARGET_WIDTH, lo_q * hi_q < 1200, so every mediant has
    q = lo_q + hi_q <= 1200.  Every test is an integer cross-multiplication
    (mediants and interval ends lie in [0, 1]).  A DEBUG record on this
    module's logger gives the window's validation (see
    `estimate_rotation_interval`), the mediants tried, how each was
    decided, the stop reason and the final interval."""
    L = len(w)
    word = w.word()
    periodic = _is_periodic(word)

    # the frequency bounds (c0 - 1)/L and (c0 + 1)/L, clipped to [0, 1]:
    # p/q lies below the first iff p*L < (c0 - 1)*q, above the second iff
    # p*L > (c0 + 1)*q
    c0 = word.count("0")
    zeros = np.concatenate(([0], np.cumsum(_symbol_array(w) == 0)))
    cap = min(L, LANGUAGE_CAP)
    # the width 1/(lo_q*hi_q) exceeds TARGET_WIDTH = num/den iff lo_q*hi_q*num < den
    width_num, width_den = TARGET_WIDTH.numerator, TARGET_WIDTH.denominator

    lo_p, lo_q = 0, 1
    hi_p, hi_q = 1, 1
    tried = by_frequency = by_counts = 0
    stop = "target_width"
    while lo_q * hi_q * width_num < width_den:
        mp, mq = lo_p + hi_p, lo_q + hi_q
        tried += 1
        if mp * L < (c0 - 1) * mq:
            s = 1
            by_frequency += 1
        elif mp * L > (c0 + 1) * mq:
            s = -1
            by_frequency += 1
        elif mq > cap:
            stop = "language_cap"
            break
        else:
            s = _count_side(zeros, mp, mq)
            if s == 0:
                stop = "undecided"
                break
            by_counts += 1
        if s > 0:
            lo_p, lo_q = mp, mq
        else:
            hi_p, hi_q = mp, mq

    lo, hi = Fraction(lo_p, lo_q), Fraction(hi_p, hi_q)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("estimate_rotation_interval validation=%(validation)s length=%(length)d "
                   "mediants=%(mediants)d frequency=%(frequency)d counts=%(counts)d "
                   "stop=%(stop)s lo=%(lo)s hi=%(hi)s",
                   {"validation": "certified" if w._coded else "ran", "length": L,
                    "mediants": tried, "frequency": by_frequency, "counts": by_counts,
                    "stop": stop, "lo": lo, "hi": hi})
    if hi_p * L < (c0 - 1) * hi_q or lo_p * L > (c0 + 1) * lo_q:
        raise NotSturmian("frequency bound and factor refinement are inconsistent")
    return FareyInterval(lo, hi, periodic=periodic)

