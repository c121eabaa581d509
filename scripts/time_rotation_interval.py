"""Time `estimate_rotation_interval` on exact coding windows of radius R,
against the validate-then-`Fraction`-walk it replaced.

    PYTHONPATH=src python3 scripts/time_rotation_interval.py [--radius 2000]

The angles are min({m sqrt d}, 1 - {m sqrt d}) for d in 2, 3, 5, 7, 11, 13
and m = 1..120, with no filter on the partial quotients, plus the two
angles with a large partial quotient, 18 sqrt 5 - 40 (near 1/4) and
20 sqrt 11 - 66 (near 1/3).  Each window is coded at offset 0 by
`sturmian_window`, so it carries the rotation-coding certificate and the
new call skips the balance scan.  The reference checks balance to
VALIDATE_TO and runs the Stern-Brocot walk on `Fraction` bounds, as the
previous `estimate_rotation_interval` did.  Both run on the same window
in this process, each call timed as the best of three, and every pair of
intervals is asserted equal.  Prints the two slow angles, then the median
of each over the sweep, their ratio, and the slowest angle of the new
call.
"""

import argparse
import math
import statistics
import time
from fractions import Fraction

import numpy as np

from denshoe.errors import NotSturmian
from denshoe.exact import QuadReal
from denshoe.symbolic import (
    LANGUAGE_CAP,
    TARGET_WIDTH,
    VALIDATE_TO,
    FareyInterval,
    _count_side,
    _is_periodic,
    _symbol_array,
    _validate_sturmian,
    estimate_rotation_interval,
    sturmian_window,
)

FIELDS = (2, 3, 5, 7, 11, 13)
SLOW = {"18*sqrt(5) - 40": QuadReal(-40, 18, 5), "20*sqrt(11) - 66": QuadReal(-66, 20, 11)}


def validated_fraction_walk(w):
    """The replaced `estimate_rotation_interval`: balance checked to
    VALIDATE_TO, then the walk on `Fraction` frequency bounds."""
    _validate_sturmian(w, VALIDATE_TO)
    L = len(w)
    word = w.word()
    periodic = _is_periodic(word)
    c0 = word.count("0")
    freq_lo = max(Fraction(0), Fraction(c0 - 1, L))
    freq_hi = min(Fraction(1), Fraction(c0 + 1, L))
    zeros = np.concatenate(([0], np.cumsum(_symbol_array(w) == 0)))
    cap = min(L, LANGUAGE_CAP)
    lo_p, lo_q = 0, 1
    hi_p, hi_q = 1, 1
    while Fraction(1, lo_q * hi_q) > TARGET_WIDTH:
        mp, mq = lo_p + hi_p, lo_q + hi_q
        m = Fraction(mp, mq)
        if m < freq_lo or m > freq_hi:
            s = 1 if m < freq_lo else -1
        elif mq > cap:
            break
        else:
            s = _count_side(zeros, mp, mq)
            if s == 0:
                break
        if s > 0:
            lo_p, lo_q = mp, mq
        else:
            hi_p, hi_q = mp, mq
    lo, hi = Fraction(lo_p, lo_q), Fraction(hi_p, hi_q)
    if hi < freq_lo or lo > freq_hi:
        raise NotSturmian("frequency bound and factor refinement are inconsistent")
    return FareyInterval(lo, hi, periodic=periodic)


def sweep():
    for d in FIELDS:
        for m in range(1, 121):
            x = QuadReal(0, m, d).frac()
            if x > QuadReal(1, 0, d) / 2:
                x = QuadReal(1, 0, d) - x
            yield f"{{{m}*sqrt({d})}}", x


def best_ms(fn, w, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(w)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, out


def pair(w):
    """(reference ms, new ms), with the two intervals asserted equal."""
    t_old, iv_old = best_ms(validated_fraction_walk, w)
    t_new, iv_new = best_ms(estimate_rotation_interval, w)
    assert iv_new == iv_old, (iv_old, iv_new)
    return t_old, t_new


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--radius", type=int, default=2000)
    r = ap.parse_args().radius
    for name, a in SLOW.items():
        t_old, t_new = pair(sturmian_window(a, 0, r))
        print(f"{name}: validated Fraction walk {t_old:.2f} ms, certified integer walk "
              f"{t_new:.2f} ms")
    times = [(pair(sturmian_window(a, 0, r)), name) for name, a in sweep()]
    mo = statistics.median(t[0] for t, _ in times)
    mn = statistics.median(t[1] for t, _ in times)
    worst = max(times, key=lambda x: x[0][1])
    print(f"{len(times)} angles: validated Fraction walk median {mo:.3f} ms, certified "
          f"integer walk median {mn:.3f} ms, ratio {mo / mn:.2f}; slowest {worst[0][1]:.2f} ms "
          f"({worst[1]})")


if __name__ == "__main__":
    main()
