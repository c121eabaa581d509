"""Explicit Denjoy circle maps with a single gap orbit.

The construction blows up the rotation orbit {n*alpha}: the orbit point
of index n becomes a gap of length c/((|n|+1)(|n|+2)) with c = 1/3, so
the total gap mass is 1/2 and the minimal Cantor set keeps measure 1/2.
On each gap the map is the affine bijection onto the next gap; on the
minimal set it is conjugate to the rotation through the measure
coordinate.  Gaps beyond the index cutoff M are kept as points and
their mass (the error budget) is reported.  The Cantor part is weighted
by 1 - G, where G is the mass of the included gaps, so that with any
cutoff the gaps and the Cantor part fill [0, 1) exactly and h is a
homeomorphism of R/Z.

Orbits have a closed form, so ``DenjoyMap.orbit`` evaluates h^j(x) for a
whole range of j at once instead of stepping.  With k the semi-conjugacy
and P = ``position_of_angle``:

* off the gap orbit, h^j(x) = P(k(x) + j*alpha);
* for x in the closure of gap n, at t = (x - a_n)/len_n, h^j(x) =
  a_{n+j} + t*len_{n+j} while |n + j| <= M, and P((n + j)*alpha) past
  the cutoff, where gap n + j is a point at its anchor angle.

The products j*alpha are formed from alpha = head + tail, with head the
fractional part of ``alpha_float`` rounded down to a multiple of 2^-27
and tail = {alpha_float} - head < 2^-27.  For |j| < 2^26 the product
j*head is exact and so is its fractional part.  Then |j*tail| < 1/2
rounds by at most 2^-55, the two additions by 2^-53 and 2^-52, and the
reduction mod 1 by 2^-54, so each angle lies within 2^-51 (about
4.4e-16) of k(x) + j*{alpha_float} mod 1, whatever j is.  Stepping one
map at a time instead rounds at every step, and its error grows with |j|.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidArgument, NotInMinimalSet, OutOfRange, RationalAlpha
from .exact import as_real, is_exact
from .symbolic import CentralWindow

#: gap-length normalizer: sum over Z of 1/((|n|+1)(|n|+2)) = 3/2, so c = 1/3
#: makes the total gap mass exactly 1/2.
GAP_NORMALIZER = Fraction(1, 3)

#: bits of the head of alpha in the split angle products (module docstring)
HEAD_BITS = 27

_log = logging.getLogger(__name__)


def gap_length(n: int) -> float:
    return float(GAP_NORMALIZER) / ((abs(n) + 1) * (abs(n) + 2))


@dataclass
class DenjoyMap:
    """Denjoy example: circle homeomorphism with rotation number alpha whose
    complement of the minimal set is the orbit of one gap anchored at 0."""

    alpha: object                 # exact QuadReal/Fraction or float
    cutoff: int
    alpha_float: float = field(init=False)
    # sorted-by-position tables over orbit indices |n| <= cutoff
    _pos: np.ndarray = field(init=False, repr=False)      # {n alpha}, sorted
    _idx: np.ndarray = field(init=False, repr=False)      # orbit index n per slot
    _len: np.ndarray = field(init=False, repr=False)      # gap lengths per slot
    _cum: np.ndarray = field(init=False, repr=False)      # exclusive mass prefix
    _a: np.ndarray = field(init=False, repr=False)        # gap left endpoints
    _weight: float = field(init=False, repr=False)        # 1 - included gap mass
    _slot_of_n: np.ndarray = field(init=False, repr=False)
    _head: float = field(init=False, repr=False)          # {alpha}, 27-bit head
    _tail: float = field(init=False, repr=False)          # {alpha} - head
    error_budget: float = field(init=False)

    def __post_init__(self):
        m = self.cutoff
        self.alpha_float = float(self.alpha)
        ns = np.arange(-m, m + 1)
        pos = np.mod(ns * self.alpha_float, 1.0)
        lens = float(GAP_NORMALIZER) / ((np.abs(ns) + 1.0) * (np.abs(ns) + 2.0))
        order = np.argsort(pos)
        self._pos = pos[order]
        self._idx = ns[order]
        self._len = lens[order]
        cum = np.cumsum(self._len)
        self._cum = np.concatenate([[0.0], cum[:-1]])
        self._weight = 1.0 - float(cum[-1])
        self._a = self._weight * self._pos + self._cum
        slot = np.empty(2 * m + 1, dtype=np.int64)
        slot[self._idx + m] = np.arange(2 * m + 1)
        self._slot_of_n = slot
        frac = self.alpha_float % 1.0
        self._head = math.ldexp(math.floor(math.ldexp(frac, HEAD_BITS)), -HEAD_BITS)
        self._tail = frac - self._head
        self.error_budget = 2.0 * float(GAP_NORMALIZER) / (m + 2)

    # --- coordinates ---------------------------------------------------

    def gap_endpoints(self, n: int) -> tuple[float, float]:
        """(a_n, b_n) for the gap at orbit index n."""
        if abs(n) > self.cutoff:
            raise OutOfRange(f"gap index {n} beyond cutoff {self.cutoff}")
        s = self._slot_of_n[n + self.cutoff]
        return float(self._a[s]), float(self._a[s] + self._len[s])

    @property
    def gap_zero(self) -> tuple[float, float]:
        return self.gap_endpoints(0)

    def position_of_angle(self, theta):
        """Image of the rotation coordinate theta (a float or an array) in
        the blown-up circle (left limit at orbit points, i.e. the gap's left
        endpoint).  A tiny negative angle, which reduces to 1.0, is taken as
        the angle 0; since _pos[0] = 0, every reduced angle then has a slot."""
        theta %= 1.0
        theta = theta * (theta < 1.0)      # 1.0 -> 0.0; scalars stay scalars
        j = self._pos.searchsorted(theta, "right") - 1
        pos = np.where(self._pos[j] == theta, self._a[j],
                       self._weight * theta + (self._cum[j] + self._len[j]))
        return pos if pos.ndim else float(pos)

    def _slot(self, x: float) -> tuple[int, bool]:
        """(j, in_gap): the sorted slot j of the last gap whose left end is
        <= x (-1 if none), and whether x lies in that gap's closure."""
        j = bisect_right(self._a, x) - 1
        return j, j >= 0 and x <= self._a[j] + self._len[j]

    def locate_gap(self, x: float) -> int | None:
        """Sorted slot of the gap whose closure contains x, else None."""
        j, in_gap = self._slot(x)
        return j if in_gap else None

    def angle_of_position(self, x: float) -> float:
        """Semi-conjugacy k to the rotation: the monotone degree-one map
        with k(h(x)) = k(x) + alpha and k(b_0) = 0, which collapses each gap
        to its anchor."""
        return self._angle(x, *self._slot(x))

    def _angle(self, x: float, j: int, in_gap: bool) -> float:
        """angle_of_position(x), given _slot(x)."""
        if in_gap:
            return float(self._pos[j])
        mass = self._cum[j] + self._len[j] if j >= 0 else 0.0
        return (x - float(mass)) / self._weight

    # --- the map ---------------------------------------------------------

    def _step(self, x: float, direction: int) -> float:
        j, in_gap = self._slot(x)
        if in_gap:
            n2 = int(self._idx[j]) + direction
            if abs(n2) <= self.cutoff:
                s2 = self._slot_of_n[n2 + self.cutoff]
                t = (x - self._a[j]) / self._len[j]
                return float(self._a[s2] + t * self._len[s2])
            # beyond the cutoff the gap is a point, at its anchor angle
        theta = self._angle(x, j, in_gap)
        return self.position_of_angle((theta + direction * self.alpha_float) % 1.0)

    def __call__(self, x: float) -> float:
        return self._step(x, +1)

    def inverse(self, x: float) -> float:
        return self._step(x, -1)

    def _turns(self, ks: np.ndarray) -> np.ndarray:
        """k*{alpha_float} up to an integer, in (-1/2, 3/2), for |k| < 2^26."""
        return np.mod(ks * self._head, 1.0) + ks * self._tail

    def orbit(self, x: float, lo: int, hi: int) -> np.ndarray:
        """Positions h^j(x) for j = lo..hi, from the closed form of the
        module docstring."""
        if max(abs(lo), abs(hi)) + self.cutoff >= 2 ** (53 - HEAD_BITS):
            raise InvalidArgument(f"orbit range {lo}..{hi} too long for exact angle products")
        js = np.arange(lo, hi + 1)
        j, in_gap = self._slot(x)
        if in_gap:
            ms = int(self._idx[j]) + js
            chain = np.abs(ms) <= self.cutoff
            # index the slot table only where the gap index is inside it
            slots = self._slot_of_n[ms[chain] + self.cutoff]
            t = (x - self._a[j]) / self._len[j]
            out = np.empty(len(js))
            out[chain] = self._a[slots] + t * self._len[slots]
            out[~chain] = self.position_of_angle(self._turns(ms[~chain]))
            on_chain = int(np.count_nonzero(chain))
            past = len(out) - on_chain
        else:
            out = self.position_of_angle(self._angle(x, j, False) + self._turns(js))
            on_chain = past = 0
        if _log.isEnabledFor(logging.DEBUG):
            ci = coding_intervals(self)
            margin = float(np.min(np.abs(out[:, None] - [ci.mid0, ci.mid1])))
            _log.debug("orbit points=%d gap_chain=%d past_cutoff=%d margin=%.3e",
                       len(out), on_chain, past, margin)
        return out


def denjoy_build(alpha, cutoff: int = 10 ** 4) -> DenjoyMap:
    """Build the Denjoy example for an irrational-representable alpha.  The
    map runs on the float value of alpha, which is taken as irrational when
    its 2*cutoff+1 orbit angles are distinct in float, so that every gap
    has its own anchor."""
    if cutoff < 10 ** 3:
        raise InvalidArgument("cutoff must be at least 10^3")
    if is_exact(alpha):
        a = as_real(alpha)
        if a.is_rational:
            raise RationalAlpha(f"{alpha} is rational: the coding would be periodic")
    else:
        a = float(alpha)
    h = DenjoyMap(a, cutoff)
    if not np.all(h._pos[1:] > h._pos[:-1]):
        raise RationalAlpha(f"{alpha} is rational to float precision: its orbit angles "
                            f"collide within cutoff {cutoff}")
    return h


def rotation_estimate(h: DenjoyMap, x: float, iterations: int) -> float:
    """Orbit average of the canonical lift: mean of (h(y) - y) mod 1."""
    if iterations < 1:
        raise InvalidArgument("iterations must be >= 1")
    return float(np.sum(np.mod(np.diff(h.orbit(x, 0, iterations)), 1.0))) / iterations


# ---------------------------------------------------------------------------
# symbolic coding of the minimal set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodingIntervals:
    """Half-open coding arcs: I0 runs from the middle of the base gap to the
    middle of its image gap in the direct sense; I1 is the complement.
    Both endpoints sit in gap interiors, so minimal-set points are always
    classified with a margin of half the smaller gap length."""

    mid0: float
    mid1: float


def coding_intervals(h: DenjoyMap) -> CodingIntervals:
    a0, b0 = h.gap_endpoints(0)
    a1, b1 = h.gap_endpoints(1)
    return CodingIntervals(0.5 * (a0 + b0), 0.5 * (a1 + b1))


def itinerary(
    h: DenjoyMap,
    ci: CodingIntervals,
    x: float,
    radius: int,
) -> CentralWindow:
    """Central itinerary window of x under h with respect to the coding arcs.
    NotInMinimalSet when x lies inside a gap by more than 1e-9."""
    clearance = 1e-9
    j = h.locate_gap(x)
    if j is not None:
        a = float(h._a[j])
        b = a + float(h._len[j])
        if a + clearance < x < b - clearance:
            raise NotInMinimalSet(f"{x} lies inside the gap ({a}, {b})")
    pos = h.orbit(x, -radius, radius)
    symbols = np.where((ci.mid0 <= pos) & (pos < ci.mid1), 0, 1)
    return CentralWindow(radius, tuple(symbols.tolist()))
