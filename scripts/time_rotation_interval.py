"""Time `estimate_rotation_interval` on exact coding windows of radius R.

    PYTHONPATH=src python3 scripts/time_rotation_interval.py [--radius 2000]

The angles are min({m sqrt d}, 1 - {m sqrt d}) for d in 2, 3, 5, 7, 11, 13
and m = 1..120, with no filter on the partial quotients, plus the two
angles with a large partial quotient, 18 sqrt 5 - 40 (near 1/4) and
20 sqrt 11 - 66 (near 1/3).  Each window is coded at offset 0; a call is
timed as the best of three.  Prints the two slow angles, the slowest
angle of the sweep and the median.
"""

import argparse
import math
import statistics
import time

from denshoe.exact import QuadReal
from denshoe.symbolic import estimate_rotation_interval, sturmian_window

FIELDS = (2, 3, 5, 7, 11, 13)
SLOW = {"18*sqrt(5) - 40": QuadReal(-40, 18, 5), "20*sqrt(11) - 66": QuadReal(-66, 20, 11)}


def sweep():
    for d in FIELDS:
        for m in range(1, 121):
            x = QuadReal(0, m, d).frac()
            if x > QuadReal(1, 0, d) / 2:
                x = QuadReal(1, 0, d) - x
            yield f"{{{m}*sqrt({d})}}", x


def best_ms(w, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        estimate_rotation_interval(w)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--radius", type=int, default=2000)
    r = ap.parse_args().radius
    for name, a in SLOW.items():
        print(f"{name}: {best_ms(sturmian_window(a, 0, r)):.1f} ms")
    times = [(best_ms(sturmian_window(a, 0, r)), name) for name, a in sweep()]
    worst = max(times)
    print(f"{len(times)} angles: median {statistics.median(t for t, _ in times):.1f} ms, "
          f"slowest {worst[0]:.1f} ms ({worst[1]})")


if __name__ == "__main__":
    main()
