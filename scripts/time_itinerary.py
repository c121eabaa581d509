"""Time `itinerary` on Denjoy maps with cutoff 2000 at radius 1800 and 3000.

    PYTHONPATH=src python3 scripts/time_itinerary.py [--cutoff 2000]

The angles are min({m sqrt d}, 1 - {m sqrt d}) for d in 2, 3, 5, 7, 11, 13
and m = 1..120.  Each map is built once; its itinerary is coded at the
image of the angle 1/2 (off the gap orbit) and at the right end of gap
-cutoff/2 (on it), and a call is timed as the best of three.  Prints, per
radius, the median and the slowest call with its angle.
"""

import argparse
import math
import statistics
import time

from denshoe.circle import coding_intervals, denjoy_build, itinerary
from denshoe.exact import QuadReal

FIELDS = (2, 3, 5, 7, 11, 13)
RADII = (1800, 3000)


def sweep():
    for d in FIELDS:
        for m in range(1, 121):
            x = QuadReal(0, m, d).frac()
            if x > QuadReal(1, 0, d) / 2:
                x = QuadReal(1, 0, d) - x
            yield f"{{{m}*sqrt({d})}}", x


def best_ms(h, ci, x, radius, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        itinerary(h, ci, x, radius)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cutoff", type=int, default=2000)
    cutoff = ap.parse_args().cutoff
    times = {r: [] for r in RADII}
    for name, a in sweep():
        h = denjoy_build(a, cutoff)
        ci = coding_intervals(h)
        starts = (h.position_of_angle(0.5), h.gap_endpoints(-cutoff // 2)[1])
        for r in RADII:
            times[r] += [(best_ms(h, ci, x, r), name) for x in starts]
    for r, ts in times.items():
        worst = max(ts)
        print(f"radius {r}: {len(ts)} calls, median {statistics.median(t for t, _ in ts):.2f} ms, "
              f"slowest {worst[0]:.2f} ms ({worst[1]})")


if __name__ == "__main__":
    main()
