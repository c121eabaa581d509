"""Binary coding words, the shift metric, and rotation-number recovery.

The coding convention throughout: symbol 0 at time k iff the rotated
point {theta + k*alpha} lies in the half-open arc [0, alpha); symbol 1
on the complementary arc.  Endpoint hits are resolved by the half-open
rule, so exact angles always produce a well-defined symbol.

Every coding symbol comes from `coding_block`, a filtered predicate
(Shewchuk, "Adaptive precision floating-point arithmetic and fast robust
geometric predicates", 1997).  One float64 pass computes each point and
its margin to the arc ends 0, alpha and 1.  For exact angles the error
of that float value is at most e(k) = e_theta + |k| e_alpha plus the
rounding of the product, the sum and the wrap, with e_alpha and e_theta
from `QuadReal.float_enclosure`; the float decides every entry whose
margin exceeds four times that bound, and exact arithmetic settles the
rest.  For float angles the margin is compared with GUARD_BAND, and
entries inside it are escalated to mpmath.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    BoundaryUndecidable,
    InvalidArgument,
    NotSturmian,
    OutOfRange,
    WindowTooShort,
)
from .exact import _UNIT, QuadReal, as_real, is_exact

GUARD_BAND = 1e-12
ESCALATED_DPS = 60
ESCALATED_GUARD = 1e-40
#: factor by which the float pass's error bound is widened for exact angles
_FILTER_SAFETY = 4.0

#: byte table taking symbols 0/1 to the characters '0'/'1'
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralWindow:
    """Finite central block of a bi-infinite 0/1 coding, indices -N..N."""

    radius: int
    symbols: tuple[int, ...]
    # the symbols as a '0'/'1' string, built once; not part of the value
    _word: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.radius < 0:
            raise InvalidArgument("radius must be non-negative")
        if len(self.symbols) != 2 * self.radius + 1:
            raise InvalidArgument("need exactly 2N+1 symbols")
        if any(s not in (0, 1) for s in self.symbols):
            raise InvalidArgument("symbols must be 0 or 1")
        object.__setattr__(self, "_word", bytes(self.symbols).translate(_DIGITS).decode())

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

    def __post_init__(self):
        if any(len(u) != self.length for u in self.words):
            raise InvalidArgument("factor length mismatch")

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class ShiftDistance:
    """Value of the shift metric d(u,v) = max_k |u_k - v_k| / (|k|+1).

    `truncated` marks comparisons of unequal radii, where the value is
    only a lower bound computed on the common radius."""

    value: Fraction
    truncated: bool = False

    def __post_init__(self):
        if not (0 <= self.value <= 1):
            raise InvalidArgument("shift distance lies in [0, 1]")


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

def _symbol_exact(alpha: QuadReal, theta: QuadReal, k: int) -> int:
    if not (alpha.d and theta.d and alpha.d != theta.d):
        t = (theta + k * alpha).frac()
        return 0 if t < alpha else 1
    # theta + k*alpha spans two fields, so it has no QuadReal value; with
    # u = {theta} and v = {k*alpha} the point is u + v, less 1 when
    # u >= 1 - v, and comparisons order numbers across fields
    u, v = theta.frac(), (k * alpha).frac()
    return 0 if u < (alpha - v if u < 1 - v else alpha + 1 - v) else 1


def _symbol_escalated(alpha: float, theta: float, k: int) -> int:
    """Symbol of float angles decided at ESCALATED_DPS digits.  Floats are
    exact binary rationals, so the escalated value is exact; a margin of
    exactly zero is a true endpoint hit, resolved by the half-open rule."""
    import mpmath

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
    raise BoundaryUndecidable(
        f"point {{theta + {k}*alpha}} is indistinguishable from an arc endpoint")


def coding_block(alpha, theta, lo: int, hi: int) -> tuple[int, ...]:
    """Symbols of the rotation coding at k = lo..hi, in one float64 pass.

    An entry's margin is its distance to the arc ends 0, alpha and 1.
    Float angles: entries with margin at most GUARD_BAND are escalated to
    mpmath.  Exact angles: entries with margin at most the certified error
    bound of the float pass, among them every exact hit of an arc end,
    are settled in exact arithmetic, so every symbol is exact."""
    exact = is_exact(alpha) and is_exact(theta)
    if exact:
        a, th = as_real(alpha), as_real(theta).frac()
        af, err_a = a.float_enclosure()
        tf, err_t = th.float_enclosure()
    else:
        af, tf = float(alpha), float(theta)
    ks = (np.arange(lo, hi + 1, dtype=np.float64) if max(abs(lo), abs(hi)) <= 2 ** 53
          else np.array([float(k) for k in range(lo, hi + 1)]))
    # the same operations, in the same order, as (theta + k*alpha) % 1.0
    t = np.mod(tf + ks * af, 1.0)
    margin = np.minimum(np.minimum(t, 1.0 - t), np.abs(t - af))
    if exact:
        # |t - {theta + k alpha}| <= err_t + |k| err_a plus the rounding of
        # k, of the product, the sum and the wrap into [0, 1); alpha itself
        # is off by err_a.  A margin above the bound fixes the symbol.
        # An infinite enclosure (no float value) flags every entry.
        bound = (_FILTER_SAFETY * (err_t + 2 * err_a + _UNIT * (abs(tf) + 2)
                                   + np.abs(ks) * (err_a + 3 * _UNIT * abs(af)))
                 if err_a + err_t < np.inf else np.inf)
    else:
        bound = GUARD_BAND
    syms = (t >= af).astype(np.int8)
    flagged = np.flatnonzero(~(margin > bound)).tolist()
    for i in flagged:
        syms[i] = _symbol_exact(a, th, lo + i) if exact else _symbol_escalated(af, tf, lo + i)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("coding_block k=%d..%d symbols=%d flagged=%d exact=%d escalated=%d",
                   lo, hi, len(t), len(flagged), len(flagged) if exact else 0,
                   0 if exact else len(flagged))
    return tuple(syms.tolist())


def sturmian_symbol(alpha, theta, k: int) -> int:
    """Symbol of the rotation coding at time k: 0 iff {theta+k*alpha} in [0, alpha)."""
    return coding_block(alpha, theta, k, k)[0]


def sturmian_window(alpha, theta, radius: int) -> CentralWindow:
    """Central coding window of radius N for the rotation by alpha, offset theta."""
    return CentralWindow(radius, coding_block(alpha, theta, -radius, radius))


# ---------------------------------------------------------------------------
# the shift metric
# ---------------------------------------------------------------------------

def _first_disagreement(u, cu: int, v, cv: int, r: int) -> int:
    """Least k in 0..r with u[cu+k] != v[cv+k] or u[cu-k] != v[cv-k], or
    r+1 when there is none.  u and v are strings or tuples indexed from
    their centres cu and cv."""
    for k in range(r + 1):
        if u[cu + k] != v[cv + k] or u[cu - k] != v[cv - k]:
            return k
    return r + 1


def agreement_radius(u: CentralWindow, v: CentralWindow) -> int | None:
    """Smallest |k| where u and v disagree; None if equal on the common radius."""
    r = min(u.radius, v.radius)
    k = _first_disagreement(u.symbols, u.radius, v.symbols, v.radius, r)
    return k if k <= r else None


def shift_distance(u: CentralWindow, v: CentralWindow) -> ShiftDistance:
    """Exact max_k |u_k - v_k|/(|k|+1) over the common radius.

    The first disagreement at minimal |k| dominates, so the scan runs
    outward from k = 0 and stops at the first difference."""
    k = agreement_radius(u, v)
    return ShiftDistance(Fraction(0) if k is None else Fraction(1, k + 1),
                         u.radius != v.radius)


# ---------------------------------------------------------------------------
# factors, complexity, balance
# ---------------------------------------------------------------------------
#
# One pass serves every factor length.  With lab[i] the rank, among the
# distinct length-n factors in lexicographic order, of the factor that
# starts at i, the length-(n+1) factor at i is the pair (lab[i], s[i+n]);
# the key 2*lab[i] + s[i+n] orders those pairs lexicographically, so the
# ranks of the keys that occur are the next level's labels.  The keys
# are below twice the number of labels, so ranking them is a presence
# table and a cumulative sum, O(L) per length.  A prefix sum of the
# symbols gives each factor's one-count.

def _symbol_array(w: CentralWindow) -> np.ndarray:
    return np.frombuffer(w.word().encode("ascii"), dtype=np.uint8).astype(np.int64) - 48


def _factor_levels(w: CentralWindow, top: int) -> Iterator[tuple[int, np.ndarray, int]]:
    """(n, starts, defect) for n = 1..top: one start of each distinct
    length-n factor, in lexicographic order of the factors, and the
    balance defect, max - min of the factors' one-counts."""
    if top > len(w):
        raise WindowTooShort(f"window length {len(w)} < factor length {top}")
    s = _symbol_array(w)
    ones = np.concatenate(([0], np.cumsum(s)))
    lab = np.zeros(len(s) + 1, dtype=np.int64)     # the empty factor, at 0..L
    size = 1
    for n in range(1, top + 1):
        key = 2 * lab[:-1] + s[n - 1:]
        seen = np.zeros(2 * size, dtype=bool)
        seen[key] = True
        rank = np.cumsum(seen) - 1
        lab = rank[key]
        size = int(rank[-1]) + 1
        starts = np.empty(size, dtype=np.int64)
        starts[lab] = np.arange(len(lab))
        counts = ones[starts + n] - ones[starts]
        yield n, starts, int(counts.max() - counts.min())


def _factor_set(word: str, n: int, starts: np.ndarray) -> FactorSet:
    return FactorSet(n, frozenset(word[i:i + n] for i in starts.tolist()))


def _level(w: CentralWindow, n: int) -> tuple[int, np.ndarray, int]:
    if n < 1:
        raise InvalidArgument("factor length must be >= 1")
    *_, last = _factor_levels(w, n)
    return last


def factor_set(w: CentralWindow, n: int) -> FactorSet:
    """The set of distinct length-n blocks of the window."""
    return _factor_set(w.word(), n, _level(w, n)[1])


def complexity(w: CentralWindow, n: int) -> int:
    return len(_level(w, n)[1])


def balance_defect(w: CentralWindow, n: int) -> int:
    """Max difference of 1-counts over pairs of length-n factors (<=1 iff balanced)."""
    return _level(w, n)[2]


def factor_family(w: CentralWindow, max_length: int) -> dict[int, FactorSet]:
    """Factor sets of every length 1..max_length."""
    return {n: _factor_set(w.word(), n, starts) for n, starts, _ in _factor_levels(w, max_length)}


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
    for n, starts, defect in _factor_levels(w, min(max_check, len(w))):
        if len(starts) > n + 1:
            raise NotSturmian(f"complexity exceeds n+1 at n={n}")
        if defect > 1:
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


def estimate_rotation_interval(
    w: CentralWindow,
    *,
    max_denominator: int = 10 ** 6,
    target_width: Fraction = Fraction(1, 1200),
    language_cap: int = 600,
    validate_to: int = 40,
) -> FareyInterval:
    """Farey interval guaranteed to contain every slope whose Sturmian
    language includes all observed factors.

    Stern-Brocot refinement: each mediant p/q is accepted on the side
    proven either by the symbol-0 frequency bound or by the zero counts of
    the window's length-q factors.  A length-q factor of a coding of slope
    beta has floor(q*beta) or ceil(q*beta) zeros, so a factor with more
    than p zeros proves beta > p/q and one with fewer proves beta < p/q;
    seeing both means no slope fits and raises NotSturmian.  On a true
    coding this is the one-word difference of the two one-sided limit
    languages of p/q (Lothaire, "Algebraic Combinatorics on Words", ch. 2;
    Berstel, Lauve, Reutenauer & Saliola, "Combinatorics on Words", CRM
    2008), read from one prefix sum instead of built.  The walk stops at
    the target width, at the denominator cap, at the language cap
    (q > min(len(w), language_cap)), or when the counts do not decide;
    every stop is sound (the interval only ever shrinks around the
    compatible-slope set).  A DEBUG record on this module's logger gives
    the mediants tried, how each was decided, the stop reason and the
    final interval."""
    L = len(w)
    word = w.word()

    _validate_sturmian(w, validate_to)

    periodic = _is_periodic(word)

    c0 = word.count("0")
    freq_lo = max(Fraction(0), Fraction(c0 - 1, L))
    freq_hi = min(Fraction(1), Fraction(c0 + 1, L))
    zeros = np.concatenate(([0], np.cumsum(_symbol_array(w) == 0)))
    cap = min(L, language_cap)

    lo_p, lo_q = 0, 1
    hi_p, hi_q = 1, 1
    tried = by_frequency = by_counts = 0
    stop = "target_width"
    while Fraction(1, lo_q * hi_q) > target_width:
        mp, mq = lo_p + hi_p, lo_q + hi_q
        if mq > max_denominator:
            stop = "max_denominator"
            break
        tried += 1
        m = Fraction(mp, mq)
        if m < freq_lo or m > freq_hi:
            s = 1 if m < freq_lo else -1
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
        _log.debug("estimate_rotation_interval length=%d mediants=%d frequency=%d counts=%d "
                   "stop=%s lo=%s hi=%s", L, tried, by_frequency, by_counts, stop, lo, hi)
    if hi < freq_lo or lo > freq_hi:
        raise NotSturmian("frequency bound and factor refinement are inconsistent")
    return FareyInterval(lo, hi, periodic=periodic)


# ---------------------------------------------------------------------------
# Hausdorff proximity of subshifts via shared factors
# ---------------------------------------------------------------------------

def symbolic_hausdorff(
    family_a: dict[int, FactorSet],
    family_b: dict[int, FactorSet],
    depth: int,
) -> ShiftDistance:
    """Bound on the Hausdorff distance of two subshifts: 1/(d+2) where d is
    the largest depth whose central (2d+1)-factor sets coincide."""
    for fam in (family_a, family_b):
        if 2 * depth + 1 not in fam:
            raise WindowTooShort(f"family lacks factors of length {2 * depth + 1}")
    for d in range(depth, -1, -1):
        n = 2 * d + 1
        if family_a[n].words == family_b[n].words:
            return ShiftDistance(Fraction(1, d + 2))
    return ShiftDistance(Fraction(1))
