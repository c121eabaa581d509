"""Time `_validate_sturmian` against the label-kernel loop it replaced.

    PYTHONPATH=src python3 scripts/time_validate_sturmian.py [--repeats 3]

The angles are min({m sqrt d}, 1 - {m sqrt d}) for d in 2, 3, 5, 7, 11, 13
and m = 1..120, each coded at offset 0 with radius 1800 and 3000, the
radii of the `coding` benchmark, and checked to length 40, the default of
`estimate_rotation_interval`.  The reference is the previous validator,
which runs the label kernel for n = 1..40 and reads both the factor count
and the balance defect of every level; the new one reads the sliding
one-counts alone.  Each call is timed as the best of `--repeats`.  The
outcomes (None, or the NotSturmian message) are asserted equal on every
window and on a copy of it with its central symbol flipped, which the
two validators must reject with the same message.  Prints, per radius,
the median call of each and their ratio.
"""

import argparse
import math
import statistics
import time

import numpy as np

from denshoe.errors import NotSturmian
from denshoe.exact import QuadReal
from denshoe.symbolic import CentralWindow, _symbol_array, _validate_sturmian, sturmian_window

FIELDS = (2, 3, 5, 7, 11, 13)
RADII = (1800, 3000)
CHECK = 40


def old_factor_levels(w, top):
    """The replaced kernel: (n, starts, defect) for n = 1..top."""
    s = _symbol_array(w)
    ones = np.concatenate(([0], np.cumsum(s)))
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
        counts = ones[starts + n] - ones[starts]
        yield n, starts, int(counts.max() - counts.min())


def old_validate_sturmian(w, max_check):
    """The replaced validator."""
    for n, starts, defect in old_factor_levels(w, min(max_check, len(w))):
        if len(starts) > n + 1:
            raise NotSturmian(f"complexity exceeds n+1 at n={n}")
        if defect > 1:
            raise NotSturmian(f"balance defect exceeds 1 at n={n}")


def outcome(fn, w):
    try:
        return fn(w, CHECK)
    except NotSturmian as e:
        return str(e)


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
        out = outcome(fn, w)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    repeats = ap.parse_args().repeats
    angles = list(sweep())
    for radius in RADII:
        old_ms, new_ms = [], []
        for a in angles:
            w = sturmian_window(a, 0, radius)
            syms = list(w.symbols)
            syms[radius] ^= 1
            flipped = CentralWindow(radius, tuple(syms))
            assert outcome(_validate_sturmian, flipped) == outcome(old_validate_sturmian, flipped)
            t_old, v_old = best_ms(old_validate_sturmian, w, repeats)
            t_new, v_new = best_ms(_validate_sturmian, w, repeats)
            assert v_new == v_old, (a, radius, v_old, v_new)
            old_ms.append(t_old)
            new_ms.append(t_new)
        mo, mn = statistics.median(old_ms), statistics.median(new_ms)
        print(f"radius {radius}: {len(old_ms)} windows, label-kernel median {mo:.3f} ms, "
              f"one-count median {mn:.3f} ms, ratio {mo / mn:.1f}")


if __name__ == "__main__":
    main()
