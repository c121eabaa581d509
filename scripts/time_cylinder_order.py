"""Time `cylinder_order` against the exact sort it replaced.

    PYTHONPATH=src python3 scripts/time_cylinder_order.py [--repeats 3]

The angles are min({m sqrt d}, 1 - {m sqrt d}) for d in 2, 3, 5, 7, 11, 13
and m = 1..120, at depths 4, 8 and 20, in both orientations.  The
reference is the previous `cylinder_order`, which sorts the 2n+2 exact
arc ends {j*alpha}; the new one walks them by the three-distance
successor rule.  Both run on the same `WdsSymbolic` in this process, each
call timed as the best of `--repeats`.  Every output pair is asserted
equal, by value and by repr.  Prints, per depth, the median call of each
and their ratio.
"""

import argparse
import math
import statistics
import time

from denshoe.errors import DegenerateArc
from denshoe.exact import QuadReal
from denshoe.wdsfamily import CircularOrderGraph, build_wds, cylinder_order, reversed_wds

FIELDS = (2, 3, 5, 7, 11, 13)
DEPTHS = (4, 8, 20)


def sorted_cylinder_order(w):
    """The replaced `cylinder_order`: an exact sort of the arc ends."""
    n = w.depth
    alpha = w.alpha
    arcs = sorted((((j * alpha).frac(), j) for j in range(-n, n + 2)), key=lambda a: a[0])
    pts, js = zip(*arcs)
    for p, q in zip(pts, pts[1:]):
        if not (p < q):
            raise DegenerateArc("coinciding arc boundaries (rational angle?)")
    words = tuple(w.window.segment(j - n, j + n) for j in js)
    if len(set(words)) != len(words):
        raise DegenerateArc("two arcs realize the same central word")
    if set(words) != set(w.factors(2 * n + 1).words):
        raise DegenerateArc("arc words disagree with the factor family")
    if w.orientation < 0:
        words = words[::-1]
        pts = pts[::-1]
    return CircularOrderGraph(n, words, pts)


def sweep():
    for d in FIELDS:
        for m in range(1, 121):
            x = QuadReal(0, m, d).frac()
            if x > QuadReal(1, 0, d) / 2:
                x = QuadReal(1, 0, d) - x
            yield x


def best_ms(fn, w, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(w)
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
            w = build_wds(a, depth)
            for v in (w, reversed_wds(w)):
                t_old, g_old = best_ms(sorted_cylinder_order, v, repeats)
                t_new, g_new = best_ms(cylinder_order, v, repeats)
                assert g_new == g_old and repr(g_new) == repr(g_old), (a, depth, v.orientation)
                old_ms.append(t_old)
                new_ms.append(t_new)
        mo, mn = statistics.median(old_ms), statistics.median(new_ms)
        print(f"depth {depth}: {len(old_ms)} calls, sort median {mo:.3f} ms, "
              f"walk median {mn:.3f} ms, ratio {mo / mn:.1f}")


if __name__ == "__main__":
    main()
