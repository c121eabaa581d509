"""Time the block kernel `_factor_levels` against the label loop it replaced.

    PYTHONPATH=src python3 scripts/time_factor_family.py [--repeats 3]

The angles are the `coding` benchmark's pool: min({m sqrt d}, 1 - {m sqrt d})
for d in 2, 3, 5, 7, 11, 13 and m = 1..120, kept when they lie in
[0.12, 0.45] and their first ten partial quotients after the first are at
most 6.  Each is coded at offset 0 with radius 1800 and 3000, the radii of
the `coding` benchmark, and its factors are read to length 41, as a
`coding` task's `factor_family` call reads them.  Each kernel is timed as
the best of `--repeats`, and the two families (the set of words at every
length) are asserted equal on every window.  Prints, per radius, the
median call of each and their ratio.

Then, on a random window of 200 001 symbols (seed 0), where a level holds
up to L distinct factors instead of n + 1, it prints each kernel's
tracemalloc peak and the time of one call, at top 41 and 100.  A level is
dropped as soon as the next one is read, so the peak is the kernel's own.
"""

import argparse
import collections
import math
import random
import statistics
import time
import tracemalloc

import numpy as np

from denshoe.exact import QuadReal, continued_fraction
from denshoe.symbolic import CentralWindow, _factor_levels, _symbol_array, sturmian_window

FIELDS = (2, 3, 5, 7, 11, 13)
RADII = (1800, 3000)
TOP = 41
RANDOM_LENGTH = 200_001
RANDOM_TOPS = (41, 100)


def old_factor_levels(w, top):
    """The replaced kernel: one pass over the window per length."""
    s = _symbol_array(w)
    lab = np.zeros(len(s) + 1, dtype=np.int64)
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
        yield n, starts


def angle_pool():
    for d in FIELDS:
        for m in range(1, 121):
            x = QuadReal(0, m, d).frac()
            if x > QuadReal(1, 0, d) / 2:
                x = QuadReal(1, 0, d) - x
            if 0.12 <= float(x) <= 0.45 and max(continued_fraction(x, 11)[1:]) <= 6:
                yield x


def family(kernel, w, top):
    word = w.word()
    return {n: {word[i:i + n] for i in starts.tolist()} for n, starts in kernel(w, top)}


def best_ms(kernel, w, top, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        collections.deque(kernel(w, top), maxlen=0)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def peak_mib(kernel, w, top):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        collections.deque(kernel(w, top), maxlen=0)
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    repeats = ap.parse_args().repeats
    angles = list(angle_pool())
    for radius in RADII:
        old_ms, new_ms = [], []
        for a in angles:
            w = sturmian_window(a, 0, radius)
            assert family(_factor_levels, w, TOP) == family(old_factor_levels, w, TOP), (a, radius)
            old_ms.append(best_ms(old_factor_levels, w, TOP, repeats))
            new_ms.append(best_ms(_factor_levels, w, TOP, repeats))
        mo, mn = statistics.median(old_ms), statistics.median(new_ms)
        print(f"radius {radius}: {len(angles)} windows, top {TOP}, label-loop median "
              f"{mo:.3f} ms, block-kernel median {mn:.3f} ms, ratio {mo / mn:.1f}")
    rng = random.Random(0)
    w = CentralWindow(RANDOM_LENGTH // 2, tuple(rng.randrange(2) for _ in range(RANDOM_LENGTH)))
    for top in RANDOM_TOPS:
        for name, kernel in (("label loop", old_factor_levels), ("block kernel", _factor_levels)):
            print(f"random window of {RANDOM_LENGTH} symbols, top {top}, {name}: "
                  f"peak {peak_mib(kernel, w, top):.1f} MiB, "
                  f"{best_ms(kernel, w, top, 1):.0f} ms")


if __name__ == "__main__":
    main()
