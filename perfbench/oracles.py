"""Reference computations written apart from denshoe.

Nothing here imports the package under test.  Quadratic angles are plain
integer tuples ``Quad(a, b, c, d)`` standing for (a + b*sqrt(d)) / c with
c > 0 and d a square-free integer > 1; every decision on them is made in
integer arithmetic (``math.isqrt``).  Float angles are turned into exact
binary rationals with ``Fraction``.  The twist-map checks use the closed
forms of the standard map, written out again here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple

import numpy as np


class Quad(NamedTuple):
    """(a + b*sqrt(d)) / c, exactly."""

    a: int
    b: int
    c: int
    d: int

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.c


def _sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d) for integers p, q and a non-square d > 1."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0 or (p > 0) == (q > 0):
        return 1 if q > 0 else -1
    # opposite signs: |p| against |q|*sqrt(d), never equal
    if p * p > q * q * d:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


def _floor(p: int, q: int, r: int, d: int) -> int:
    """floor((p + q*sqrt(d)) / r) for r > 0."""
    if q == 0:
        return p // r
    s = math.isqrt(q * q * d)          # floor(|q| sqrt d); the root is irrational
    return (p + (s if q > 0 else -s - 1)) // r


def _common(x: Quad, y: Quad) -> tuple[int, int, int, int, int]:
    """(px, qx, py, qy, r): both numbers over one denominator r."""
    r = x.c * y.c // math.gcd(x.c, y.c)
    fx, fy = r // x.c, r // y.c
    return x.a * fx, x.b * fx, y.a * fy, y.b * fy, r


def quad_cmp(x: Quad, y: Quad) -> int:
    d = x.d if x.b else y.d
    px, qx, py, qy, _ = _common(x, y)
    return _sign(px - py, qx - qy, d)


def quad_cmp_fraction(x: Quad, f: Fraction) -> int:
    """Sign of x - f."""
    return _sign(x.a * f.denominator - x.c * f.numerator, x.b * f.denominator, x.d)


def quad_add_fraction(x: Quad, f: Fraction) -> Quad:
    n, m = f.numerator, f.denominator
    return Quad(x.a * m + n * x.c, x.b * m, x.c * m, x.d)


def frac_multiple(alpha: Quad, j: int) -> Quad:
    """{j * alpha} as a Quad over alpha's denominator."""
    p, q, r = j * alpha.a, j * alpha.b, alpha.c
    return Quad(p - _floor(p, q, r, alpha.d) * r, q, r, alpha.d)


def partial_quotients(x: Quad):
    """The continued fraction of an irrational x, term by term."""
    a, b, c, d = x
    while True:
        n = _floor(a, b, c, d)
        yield n
        # 1 / (x - n) = c / ((a - n c) + b sqrt d), rationalised
        a = a - n * c
        a, b, c = c * a, -c * b, a * a - b * b * d
        if c < 0:
            a, b, c = -a, -b, -c


def convergents(x: Quad, qmax: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of x with q <= qmax."""
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    for n in partial_quotients(x):
        p0, q0, p1, q1 = p1, q1, n * p1 + p0, n * q1 + q0
        if q1 > qmax:
            return out
        out.append((p1, q1))


# ---------------------------------------------------------------------------
# rotation codings: symbol 0 at time k iff {theta + k*alpha} lies in [0, alpha)
# ---------------------------------------------------------------------------

def coding(alpha: Quad, theta: Quad, lo: int, hi: int) -> tuple[int, ...]:
    """Symbols at k = lo..hi.  With F(k) = floor(theta + k*alpha) the
    symbol is 1 - (F(k) - F(k-1)), because F(k) - F(k-1) = 1 exactly when
    {theta + k*alpha} < alpha."""
    pa, qa, pt, qt, r = _common(alpha, theta)
    d = alpha.d

    def F(k):
        return _floor(pt + k * pa, qt + k * qa, r, d)

    prev = F(lo - 1)
    out = []
    for k in range(lo, hi + 1):
        cur = F(k)
        out.append(1 - (cur - prev))
        prev = cur
    return tuple(out)


def float_coding(alpha: float, theta: float, lo: int, hi: int) -> tuple[int, ...]:
    """The same coding for float inputs, read as the binary rationals they are."""
    fa, ft = Fraction(alpha), Fraction(theta)
    den = fa.denominator * ft.denominator // math.gcd(fa.denominator, ft.denominator)
    a = fa.numerator * (den // fa.denominator)
    t = ft.numerator * (den // ft.denominator)
    return tuple(0 if (t + k * a) % den < a else 1 for k in range(lo, hi + 1))


def cylinder_words(alpha: Quad, n: int) -> tuple[str, ...]:
    """Central (2n+1)-words of the coding arcs, in circular order from the
    arc that starts at 0.  The arcs are cut by {j*alpha}, j = -n..n+1, and
    each arc's word is the word of its left endpoint."""
    pts = sorted((frac_multiple(alpha, j) for j in range(-n, n + 2)),
                 key=cmp_to_key(quad_cmp))
    return tuple("".join(map(str, coding(alpha, p, -n, n))) for p in pts)


def agreement(u: str, v: str) -> int:
    """Least |k| where two central words differ; n+1 when they are equal."""
    n = len(u) // 2
    for k in range(n + 1):
        if u[n + k] != v[n + k] or u[n - k] != v[n - k]:
            return k
    return n + 1


def factor_words(word: str, n: int) -> frozenset[str]:
    return frozenset(word[i:i + n] for i in range(len(word) - n + 1))


# ---------------------------------------------------------------------------
# Hausdorff distance between the triple sets of two circular orders
# ---------------------------------------------------------------------------

def circular_triples(m: int):
    """Index triples (i, j, k), distinct, with j on the forward arc i -> k."""
    return [(i, (i + b) % m, (i + c) % m)
            for i in range(m) for b in range(1, m) for c in range(b + 1, m)]


def _distance(h: int, n: int) -> Fraction:
    return Fraction(0) if h >= n + 1 else Fraction(1, h + 1)


def brute_graph_hausdorff(words1, words2) -> Fraction:
    """Every triple against every triple, in the product shift metric, with
    words2 taken in its own order and in the reversed one.  O(T^2)."""
    n = len(words1[0]) // 2
    agr = [[agreement(u, v) for v in words2] for u in words1]
    t1 = circular_triples(len(words1))
    t2 = circular_triples(len(words2))
    best = Fraction(1)
    for t2v in (t2, [(k, j, i) for i, j, k in t2]):
        fwd = min(max(min(agr[i][a], agr[j][b], agr[k][c]) for a, b, c in t2v)
                  for i, j, k in t1)
        bwd = min(max(min(agr[i][a], agr[j][b], agr[k][c]) for i, j, k in t1)
                  for a, b, c in t2v)
        best = min(best, _distance(min(fwd, bwd), n))
    return best


def bucketed_graph_hausdorff(words1, words2) -> Fraction:
    """The same value without comparing triples pairwise.  Two words agree
    to level h exactly when their central (2h-1)-blocks are equal, so a
    triple of words1 is matched at level h exactly when the triple of its
    blocks is the block triple of some triple of words2.  Matching is
    monotone in h, so the largest matched level is found by bisection."""
    n = len(words1[0]) // 2
    t1 = circular_triples(len(words1))
    t2 = circular_triples(len(words2))

    def blocks(words, triples, h):
        cut = [w[n - h + 1:n + h] if h else "" for w in words]
        return {(cut[i], cut[j], cut[k]) for i, j, k in triples}

    best = Fraction(1)
    for t2v in (t2, [(k, j, i) for i, j, k in t2]):
        lo, hi = 0, n + 1                    # level lo always matches
        while lo < hi:
            h = (lo + hi + 1) // 2
            if blocks(words1, t1, h) == blocks(words2, t2v, h):
                lo = h
            else:
                hi = h - 1
        best = min(best, _distance(lo, n))
    return best


# ---------------------------------------------------------------------------
# the standard twist map, from its closed forms
# ---------------------------------------------------------------------------
#
#   h(x, x') = (x' - x)^2 / 2 + K/(4 pi^2) cos(2 pi x)
#   F(x, y)  = (x + y - g(x), y - g(x)),  g(x) = K/(2 pi) sin(2 pi x)
#   y_i      = -d1 h(x_i, x_{i+1}) = (x_{i+1} - x_i) + g(x_i)

def _g(x, K):
    return K / (2 * math.pi) * np.sin(2 * math.pi * x)


def standard_map(x, y, K):
    gy = y - _g(x, K)
    return x + gy, gy


def gradient(xm, x, xp, K):
    """d/dx_i of the action sum at x_i, given its neighbours."""
    return (x - xm) - (xp - x) - _g(x, K)


def periodic_extension(x: np.ndarray, p: int, extra: int = 1) -> np.ndarray:
    """x_{-1} .. x_{q-1+extra} of a (p, q) configuration."""
    q = len(x)
    idx = np.arange(-1, q + extra)
    return x[idx % q] + (idx // q) * p


def periodic_gradient(x, p, K) -> np.ndarray:
    e = periodic_extension(np.asarray(x, dtype=float), p)
    return gradient(e[:-2], e[1:-1], e[2:], K)


def segment_gradient(x, K) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return gradient(x[:-2], x[1:-1], x[2:], K)


def periodic_action(x, p, K) -> float:
    e = periodic_extension(np.asarray(x, dtype=float), p)[1:]
    return float(np.sum(0.5 * np.diff(e) ** 2
                        + K / (4 * math.pi ** 2) * np.cos(2 * math.pi * e[:-1])))


def orbit_points(x, p, K) -> np.ndarray:
    """(x_i, y_i) for i = 0..q of a (p, q) configuration."""
    e = periodic_extension(np.asarray(x, dtype=float), p, extra=2)[1:]
    xs = e[:-1]
    return np.column_stack([xs, np.diff(e) + _g(xs, K)])


def orbit_defect(pts: np.ndarray, K) -> float:
    """max |F(pts[i]) - pts[i+1]| along a chain of points."""
    fx, fy = standard_map(pts[:-1, 0], pts[:-1, 1], K)
    return float(max(np.max(np.abs(fx - pts[1:, 0])), np.max(np.abs(fy - pts[1:, 1]))))


def translates_cross(x, p, tol: float = 1e-12) -> bool:
    """Do two translates x_{i+a} + b and x_i of a (p, q) configuration cross?
    For each shift a, x_{i+a} - x_i must not straddle an integer."""
    x = np.asarray(x, dtype=float)
    q = len(x)
    for a in range(1, q):
        idx = np.arange(q) + a
        dif = x[idx % q] + (idx // q) * p - x
        lo, hi = float(dif.min()), float(dif.max())
        if math.floor(lo + tol) + 1 < hi - tol:
            return True
    return False


def grid_min_action(p: int, q: int, K: float, n: int = 400) -> float:
    """Least action over a uniform grid of one period of (p, q)
    configurations, q <= 2."""
    g = np.linspace(0.0, 1.0, n, endpoint=False)
    c = K / (4 * math.pi ** 2)
    if q == 1:
        return float(np.min(0.5 * p * p + c * np.cos(2 * math.pi * g)))
    if q != 2:
        raise ValueError("grid minimum only for q <= 2")
    x0 = g[:, None]
    x1 = np.linspace(-1.0, 2.0, 3 * n, endpoint=False)[None, :]
    s = (0.5 * (x1 - x0) ** 2 + c * np.cos(2 * math.pi * x0)
         + 0.5 * (x0 + p - x1) ** 2 + c * np.cos(2 * math.pi * x1))
    return float(s.min())


def no_conjugate_points(x, K) -> bool:
    """Jacobi recursion of the linearized criticality equation along a
    segment, xi_{i+1} = (2 - K cos 2 pi x_i) xi_i - xi_{i-1}, started at
    xi_0 = 0, xi_1 = 1: it must stay positive."""
    prev, cur = 0.0, 1.0
    for xi in np.asarray(x, dtype=float)[1:-1]:
        prev, cur = cur, (2.0 - K * math.cos(2 * math.pi * xi)) * cur - prev
        if cur <= 0.0:
            return False
    return True


def monodromy(xs, K) -> np.ndarray:
    """Product of DF = [[1 - g', 1], [-g', 1]] along the orbit, g' = K cos 2 pi x."""
    M = np.eye(2)
    for x in xs:
        gp = K * math.cos(2 * math.pi * x)
        M = np.array([[1.0 - gp, 1.0], [-gp, 1.0]]) @ M
    return M
