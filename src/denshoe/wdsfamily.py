"""Weak Denjoy sub-systems as symbolic objects.

A WDS is carried purely symbolically: the factor family of the Sturmian
subshift of its rotation angle, together with the circular order of its
central cylinders.  The order is computed from exact coding arcs, never
lexicographically: the cylinder of a central (2n+1)-word is the arc of
offsets whose coding realizes the word, and the circle orders the arcs.

Both are read off one coding window at offset 0 by two standard lemmas
(Morse & Hedlund, Amer. J. Math. 62, 1940; Lothaire, "Algebraic
Combinatorics on Words", ch. 2).  The coding depends only on
theta + k*alpha, so the arc with left end {j*alpha} has the window's
slice j-n..j+n as its word.  A slope-alpha language has exactly m+1
factors of length m, so these 2n+2 arc words are all the factors of
length 2n+1, every shorter factor is a sub-word of one, and a window of
radius >= 2n+1 holds the whole family up to length 2n+1.

The arcs' circular order needs no sort, by the three-distance theorem
(Sós, Ann. Univ. Sci. Budapest 1, 1958; Świerczkowski, Fund. Math. 46,
1958; Alessandri & Berthé, Enseign. Math. 44, 1998).  Let N points
{k*alpha}, k in [0, N), cut the circle, and let a and b be the indices of
the points nearest to 0 on the right and on the left, at distances da
and db.  Then the point after {k*alpha} in the direct sense is
{(k+a)*alpha} if k+a < N, else {(k-b)*alpha} if k-b >= 0, else
{(k+a-b)*alpha}; the gap between them is da, db or da + db.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateArc,
    DepthMismatch,
    InvalidArgument,
    NotSturmian,
    RationalAlpha,
    WindowTooShort,
)
from .exact import QuadReal, as_real
from .symbolic import (
    CentralWindow,
    FactorSet,
    _factor_levels,
    _factor_set,
    _first_disagreement,
    estimate_rotation_interval,
    sturmian_window,
)

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WdsSymbolic:
    """Sturmian subshift of a rotation angle in (0, 1/2), with the factor
    family up to length 2*depth+1 and an orientation sign for the induced
    circular order (-1 models the inverse order of an equivalent WDS)."""

    alpha: QuadReal
    depth: int
    family: dict[int, FactorSet]
    window: CentralWindow
    orientation: int = 1

    def factors(self, length: int) -> FactorSet:
        return self.family[length]


@dataclass(frozen=True)
class CircularOrderGraph:
    """Admissible central words in their circular order, plus the exact
    arc left-endpoints realizing them."""

    depth: int
    cylinders: tuple[str, ...]
    arc_lefts: tuple[QuadReal, ...]

    def __len__(self) -> int:
        return len(self.cylinders)

    def position(self, word: str) -> int:
        return self.cylinders.index(word)

    def in_order(self, a: str, b: str, c: str) -> bool:
        """Ternary betweenness: b lies on the (directed) arc from a to c.
        Degenerate triples follow the interval conventions: (a, b, a) is
        always in order, and so are (a, a, c) and (a, c, c)."""
        i, j, k = self.position(a), self.position(b), self.position(c)
        if i == k:
            return True
        m = len(self.cylinders)
        return (j - i) % m <= (k - i) % m

    def index_triples(self) -> np.ndarray:
        """All ordered triples of distinct cylinder indices in circular order,
        as rows (i, i + b, i + c) mod m with 0 < b < c < m, i outermost."""
        m = len(self.cylinders)
        b, c = np.triu_indices(m - 1, k=1)
        i = np.repeat(np.arange(m), len(b))
        return np.stack([i, i + np.tile(b + 1, m), i + np.tile(c + 1, m)], axis=1) % m


@dataclass(frozen=True)
class RotationClass:
    """Rotation number modulo sign: exact rational bounds inside [0, 1/2]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= Fraction(1, 2)):
            raise InvalidArgument("class bounds must lie in [0, 1/2]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def overlaps(self, other: "RotationClass") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


@dataclass(frozen=True)
class GapPair:
    """Two admissible central words coding the two endpoints of one gap:
    they agree for k >= k0 and k <= k1 and swap '10'/'01' in between."""

    upper: str   # carries '10' at the swap (left gap endpoint coding)
    lower: str   # carries '01' at the swap (right gap endpoint coding)
    position: int  # window index j of the swap: words differ at j, j+1
    k0: int
    k1: int


class Equivalence(enum.Enum):
    EQUAL_ORDER = "EqualOrder"
    REVERSED_ORDER = "ReversedOrder"
    NOT_EQUIVALENT = "NotEquivalent"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_wds(
    alpha,
    depth: int,
    *,
    initial_radius: int | None = None,
    orientation: int = 1,
) -> WdsSymbolic:
    """Factor family up to length 2*depth+1 from one coding window at
    offset 0, checked for complexity n+1 and balance <= 1 (else
    NotSturmian).  The radius defaults to max(8(2n+1), 128) for
    `rotation_class`; any radius >= 2n+1 holds the family (see the module
    docstring), and a shorter one raises WindowTooShort."""
    a = as_real(alpha)
    if a.is_rational:
        raise RationalAlpha(f"{alpha} is rational")
    if not (QuadReal(0) < a < Fraction(1, 2)):
        raise InvalidArgument("alpha must lie in (0, 1/2)")
    if depth < 0:
        raise InvalidArgument("depth must be >= 0")
    top = 2 * depth + 1
    radius = max(8 * top, 128) if initial_radius is None else initial_radius
    if radius < top:
        raise WindowTooShort(f"window radius {radius} < 2*depth+1 = {top}")
    w = sturmian_window(a, 0, radius)
    levels = list(_factor_levels(w, top))
    for n, starts, defect in levels:
        if len(starts) != n + 1:
            raise NotSturmian(f"{len(starts)} factors of length {n}, not {n + 1}")
        if defect > 1:
            raise NotSturmian(f"balance defect exceeds 1 at length {n}")
    fam = {n: _factor_set(w.word(), n, starts) for n, starts, _ in levels}
    return WdsSymbolic(a, depth, fam, w, orientation)


def reversed_wds(w: WdsSymbolic) -> WdsSymbolic:
    """Same subshift with the inverse circular order."""
    return replace(w, orientation=-w.orientation)


# ---------------------------------------------------------------------------
# cylinder order
# ---------------------------------------------------------------------------

def cylinder_order(w: WdsSymbolic) -> CircularOrderGraph:
    """Order the admissible central words by the left endpoints of their
    coding arcs.  The arcs are cut by the exact points {j*alpha} for
    j in [-n, n+1]; the coding is right-continuous, so each arc's word is
    the word of its left endpoint: the window's slice j-n..j+n.

    No point is sorted or reduced mod 1.  With k = j + n the cuts are the
    points {k*alpha}, k in [0, 2n+2), turned by -n*alpha, and the order
    starts at k = n, the point 0.  A subtractive Euclidean chain on the
    gaps (da, db) finds the nearest points a and b to 0 from the right and
    the left, and the three-distance successor rule of the module
    docstring walks the circle from there, adding da, db or da + db to
    the arc's left end.  Equal gaps in the chain mean two cuts coincide."""
    n = w.depth
    size = 2 * n + 2
    da = w.alpha.frac()
    a, b, db = 1, 1, 1 - da
    steps = 0
    while a + b < size:
        if da < db:
            b += a
            db -= da
        elif db < da:
            a += b
            da -= db
        else:
            raise DegenerateArc("coinciding arc boundaries (rational angle?)")
        steps += 1
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("cylinder_order depth=%d a=%d b=%d steps=%d", n, a, b, steps)
    dab = da + db
    k, p = n, QuadReal(0)
    ks, pts = [k], [p]
    for _ in range(size - 1):
        if k + a < size:
            k, p = k + a, p + da
        elif k - b >= 0:
            k, p = k - b, p + db
        else:
            k, p = k + a - b, p + dab
        ks.append(k)
        pts.append(p)
    words = tuple(w.window.segment(k - 2 * n, k) for k in ks)
    if len(set(words)) != len(words):
        raise DegenerateArc("two arcs realize the same central word")
    if set(words) != set(w.factors(2 * n + 1).words):
        raise DegenerateArc("arc words disagree with the factor family")
    if w.orientation < 0:
        words = words[::-1]
        pts = pts[::-1]
    return CircularOrderGraph(n, words, tuple(pts))


# ---------------------------------------------------------------------------
# Hausdorff distance between order graphs
# ---------------------------------------------------------------------------

def graph_hausdorff(g1: CircularOrderGraph, g2: CircularOrderGraph) -> Fraction:
    """Hausdorff distance between the triple sets under the product shift
    metric, minimized over g2 and its order reversal.

    Two central words agree to level h (their first disagreement lies at
    |k| >= h) exactly when their central (2h-1)-blocks are equal, so at
    each level agreement is an equivalence relation.  Every triple of g1
    then has a triple of g2 agreeing to level h in all three places, and
    the reverse, exactly when the two sets of block-class triples are
    equal.  Matching is monotone in h, so the largest matched level, which
    gives the distance 1/(h+1) (0 from n+1 on), is found by bisecting h
    over 0..n+1 for each orientation of g2.  With T triples per graph and
    depth n this takes O(T log n) time and O(T) memory: no pair of triples
    is ever compared."""
    if g1.depth != g2.depth:
        raise DepthMismatch(f"depths {g1.depth} != {g2.depth}")
    n = g1.depth
    words = g1.cylinders + g2.cylinders
    t1 = g1.index_triples()
    t2 = g2.index_triples()

    def classes(triples, labels, size):
        return np.unique((labels[triples[:, 0]] * size + labels[triples[:, 1]]) * size
                         + labels[triples[:, 2]])

    def matched(t2v, h):
        # one label per distinct central (2h-1)-block, shared by both graphs
        blocks: dict[str, int] = {}
        labels = np.array([blocks.setdefault(w[n - h + 1:n + h], len(blocks)) for w in words],
                          dtype=np.int64)
        size = len(blocks)
        return np.array_equal(classes(t1, labels[:len(g1)], size),
                              classes(t2v, labels[len(g1):], size))

    levels = []
    for t2v in (t2, t2[:, ::-1]):
        lo, hi, probed = 0, n + 1, []       # level 0 always matches
        while lo < hi:
            h = (lo + hi + 1) // 2
            probed.append(h)
            if matched(t2v, h):
                lo = h
            else:
                hi = h - 1
        levels.append((probed, lo))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("graph_hausdorff depth=%d triples=%d/%d direct probed=%s matched=%d "
                   "reversed probed=%s matched=%d", n, len(t1), len(t2),
                   *levels[0], *levels[1])
    h = max(lo for _, lo in levels)
    return Fraction(0) if h >= n + 1 else Fraction(1, h + 1)


# ---------------------------------------------------------------------------
# rotation class and equivalence
# ---------------------------------------------------------------------------

def fold_interval(lo: Fraction, hi: Fraction) -> RotationClass:
    """Fold an interval of angles through x -> min(x, 1-x) into [0, 1/2]."""
    half = Fraction(1, 2)
    if hi <= half:
        return RotationClass(lo, hi)
    if lo >= half:
        return RotationClass(1 - hi, 1 - lo)
    return RotationClass(min(lo, 1 - hi), half)


def rotation_class(w: WdsSymbolic) -> RotationClass:
    iv = estimate_rotation_interval(w.window)
    return fold_interval(iv.lo, iv.hi)


def _cyclic_equal(a: tuple, b: tuple) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    double = b + b
    return any(double[i:i + len(a)] == a for i in range(len(b)))


def equivalence_test(w1: WdsSymbolic, w2: WdsSymbolic) -> Equivalence:
    """Outcome of comparing two symbolic WDS: same subshift with the same
    circular order, with the inverse order, or different subshifts."""
    if w1.depth != w2.depth:
        raise DepthMismatch(f"depths {w1.depth} != {w2.depth}")
    # every shorter factor is a sub-word of a top-length one
    top = 2 * w1.depth + 1
    if w1.factors(top).words != w2.factors(top).words:
        return Equivalence.NOT_EQUIVALENT
    g1 = cylinder_order(w1)
    g2 = cylinder_order(w2)
    if _cyclic_equal(g1.cylinders, g2.cylinders):
        return Equivalence.EQUAL_ORDER
    if _cyclic_equal(g1.cylinders, g2.cylinders[::-1]):
        return Equivalence.REVERSED_ORDER
    return Equivalence.NOT_EQUIVALENT


# ---------------------------------------------------------------------------
# gap pairs
# ---------------------------------------------------------------------------

def asymptotic_pairs_in(words, radius: int) -> list[GapPair]:
    """Scan a set of central words for pairs differing by exactly one
    adjacent '10' <-> '01' swap (the coding signature of a gap)."""
    ws = sorted(words)
    pairs = []
    for i, u in enumerate(ws):
        for v in ws[i + 1:]:
            diffs = [p for p in range(len(u)) if u[p] != v[p]]
            if len(diffs) != 2 or diffs[1] != diffs[0] + 1:
                continue
            p = diffs[0]
            du, dv = u[p:p + 2], v[p:p + 2]
            if {du, dv} != {"10", "01"}:
                continue
            upper, lower = (u, v) if du == "10" else (v, u)
            j = p - radius
            pairs.append(GapPair(upper, lower, j, k0=j + 2, k1=j - 1))
    return pairs


def asymptotic_pairs(w: WdsSymbolic) -> list[GapPair]:
    if w.depth < 10:
        raise InvalidArgument("gap detection needs depth >= 10")
    return asymptotic_pairs_in(w.factors(2 * w.depth + 1).words, w.depth)


def _pairs_aligned(p1: GapPair, p2: GapPair, radius: int) -> bool:
    # Windows of one bi-infinite pair satisfy u2[k] = u1[k + s] with
    # s = j1 - j2 (swap offsets), on the overlapping index range.
    s = p1.position - p2.position
    lo = max(-radius, -radius - s)
    hi = min(radius, radius - s)
    if hi < lo:
        return False
    c = radius
    for k in range(lo, hi + 1):
        if p2.upper[k + c] != p1.upper[k + s + c]:
            return False
        if p2.lower[k + c] != p1.lower[k + s + c]:
            return False
    return True


def count_gap_orbits(pairs: list[GapPair], radius: int) -> int:
    reps: list[GapPair] = []
    for p in pairs:
        if not any(_pairs_aligned(p, r, radius) for r in reps):
            reps.append(p)
    return len(reps)


# ---------------------------------------------------------------------------
# continuity probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeRow:
    alpha_prime: QuadReal
    distance: float            # |alpha' - alpha0|
    agreement_radius: int      # largest R with identical windows on [-R, R]
    hausdorff_bound: Fraction
    class0: RotationClass
    class1: RotationClass


@dataclass(frozen=True)
class ContinuityReport:
    alpha0: QuadReal
    radius: int
    depth: int
    rows: tuple[ProbeRow, ...]
    monotone: bool


def continuity_probe(alpha0, radius: int, perturbations, depth: int = 6) -> ContinuityReport:
    """For each perturbed angle report the window agreement radius, the
    order-graph distance and both rotation classes, then check the
    monotone relation: closer angle => larger agreement => smaller bound."""
    a0 = as_real(alpha0)
    w0 = build_wds(a0, depth)
    g0 = cylinder_order(w0)
    win0 = sturmian_window(a0, 0, radius)
    cls0 = rotation_class(w0)
    rows = []
    for ap in perturbations:
        a1 = as_real(ap)
        win1 = sturmian_window(a1, 0, radius)
        agree = _first_disagreement(win0.symbols, radius, win1.symbols, radius, radius) - 1
        if a1 == a0:
            bound, cls1 = Fraction(0), cls0
        else:
            w1 = build_wds(a1, depth)
            bound = graph_hausdorff(g0, cylinder_order(w1))
            cls1 = rotation_class(w1)
        rows.append(ProbeRow(a1, abs(float(a1) - float(a0)), agree, bound, cls0, cls1))
    by_dist = sorted(rows, key=lambda r: r.distance)
    monotone = all(
        r1.agreement_radius >= r2.agreement_radius and r1.hausdorff_bound <= r2.hausdorff_bound
        for r1, r2 in zip(by_dist, by_dist[1:])
    )
    return ContinuityReport(a0, radius, depth, tuple(rows), monotone)
