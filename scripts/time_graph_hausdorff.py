"""Time `graph_hausdorff` against the two bisections it replaced.

    PYTHONPATH=src python3 scripts/time_graph_hausdorff.py [--repeats 3]

The angles are min({m sqrt d}, 1 - {m sqrt d}) for d in 2, 3, 5, 7, 11, 13
and m = 1..40, each paired with itself moved by 10^-k for k = 3..6, as
in the continuity-probe rows, at depths 4, 6, 8, 10 and 12.  The
reference is the previous `graph_hausdorff`, which bisects the matched
level once for each orientation of g2, scattering each level's bitmaps
anew and the reversed orientation from the reversed triples; the new one
bisects the OR of the two orientations once, builds the two bitmaps of a
level once and reads the reversed one as a transpose.  Both run on the
same pair of order graphs in this process, each call timed as the best of
`--repeats`, and every pair of outputs is asserted equal.  Prints per
depth the median call of each and their ratio.
"""

import argparse
import math
import statistics
import time
from fractions import Fraction

import numpy as np

from denshoe.exact import QuadReal
from denshoe.wdsfamily import build_wds, cylinder_order, graph_hausdorff

FIELDS = (2, 3, 5, 7, 11, 13)
DEPTHS = (4, 6, 8, 10, 12)


def two_bisection_graph_hausdorff(g1, g2):
    """The replaced `graph_hausdorff`: one bisection per orientation of g2."""
    n = g1.depth
    words = g1.cylinders + g2.cylinders
    t1 = g1.index_triples()
    t2 = g2.index_triples()

    def classes(triples, labels, size):
        present = np.zeros(size ** 3, dtype=bool)
        present[(labels[triples[:, 0]] * size + labels[triples[:, 1]]) * size
                + labels[triples[:, 2]]] = True
        return present

    def matched(t2v, h):
        blocks = {}
        labels = np.array([blocks.setdefault(w[n - h + 1:n + h], len(blocks)) for w in words],
                          dtype=np.int64)
        size = len(blocks)
        return np.array_equal(classes(t1, labels[:len(g1)], size),
                              classes(t2v, labels[len(g1):], size))

    best = 0
    for t2v in (t2, t2[:, ::-1]):
        lo, hi = 0, n + 1
        while lo < hi:
            h = (lo + hi + 1) // 2
            if matched(t2v, h):
                lo = h
            else:
                hi = h - 1
        best = max(best, lo)
    return Fraction(0) if best >= n + 1 else Fraction(1, best + 1)


def sweep():
    for d in FIELDS:
        for m in range(1, 41):
            x = QuadReal(0, m, d).frac()
            if x > QuadReal(1, 0, d) / 2:
                x = QuadReal(1, 0, d) - x
            yield x


def best_ms(fn, g1, g2, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(g1, g2)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    repeats = ap.parse_args().repeats
    angles = list(sweep())
    for depth in DEPTHS:
        old_ms, new_ms = [], []
        for a in angles:
            g0 = cylinder_order(build_wds(a, depth))
            for k in range(3, 7):
                g1 = cylinder_order(build_wds(a + Fraction(1, 10 ** k), depth))
                t_old, d_old = best_ms(two_bisection_graph_hausdorff, g0, g1, repeats)
                t_new, d_new = best_ms(graph_hausdorff, g0, g1, repeats)
                assert d_new == d_old, (a, depth, k)
                old_ms.append(t_old)
                new_ms.append(t_new)
        mo, mn = statistics.median(old_ms), statistics.median(new_ms)
        print(f"depth {depth}: {len(old_ms)} calls, two bisections median {mo:.3f} ms, "
              f"one bisection median {mn:.3f} ms, ratio {mo / mn:.2f}")


if __name__ == "__main__":
    main()
