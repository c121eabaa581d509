"""Time `minimize_periodic` against the 20-start search it replaced.

    PYTHONPATH=src python3 scripts/time_minimize_periodic.py [--repeats 5]

The reference, `old_minimize_periodic`, is the previous search: ten
shifted ramps, then ten random starts with seed 0, each descended for at
most 500 Newton iterations, stopping after four confirmations of the
best action.  The new one descends the symmetric ramp c = 1/(2q), and
the ramp c = 0 only when the first result does not pass.  Both share
`_newton_minimize`.  Both run on 225 cases: 25 rotation
numbers p/q (the golden-mean and golden-square convergents with
2 <= q <= 144, and ten small p/q) at nine couplings K around the golden
circle's breakup.

For every case the new result must be well ordered and of action at
most the old one's + 1e-12 (asserted; tests/test_periodic_oracle.py
also checks its residual).  Prints, per case, the
median call time of each over `--repeats` calls and their ratio, then
the summed medians.
"""

import argparse
import math
import statistics
import time

import numpy as np

from denshoe import twist as tw
from denshoe.errors import NoConvergence
from denshoe.exact import ALPHA_STAR, QuadReal, convergents

GOLDEN = QuadReal(-0.5, 0.5, 5)
PERIODS = sorted({c for w in (GOLDEN, ALPHA_STAR) for c in convergents(w, 20) if 2 <= c[1] <= 144}
                 | {(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (2, 7), (3, 7), (3, 8), (2, 25)},
                 key=lambda c: (c[1], c[0]))
COUPLINGS = (0.3, 0.7, 0.93, 0.95, 0.97, 1.2, 1.5, 2.0, 3.0)


def old_minimize_periodic(gf, p, q):
    rng = np.random.default_rng(0)
    base = np.arange(q) * (p / q)
    candidates = [s + base for s in np.linspace(0.0, 1.0, 10, endpoint=False)]
    for _ in range(10):
        candidates.append(rng.uniform(0, 1) + base + rng.normal(0, 0.05, size=q))
    best = None
    confirmations = 0
    for x0 in candidates:
        e, _, res, steps, refused = tw._newton_minimize(gf, lambda x: tw._pad(x, p), x0, 500,
                                                        cyclic=True)
        if res > tw.TOL or (steps == 0 and refused
                            and tw._clearly_indefinite(gf, e, tw.NEGATIVE_CURVATURE, cyclic=True)):
            continue
        x = e[1:-1]
        cfg = tw.Configuration(x - math.floor(x[0]), "periodic", p, q)
        if not tw.check_well_ordered(cfg):
            continue
        a = tw.action(gf, cfg)
        if best is None or a < best[0] - 1e-12:
            best = (a, cfg)
            confirmations = 0
        elif a < best[0] + 1e-12:
            confirmations += 1
            if confirmations >= 4:
                break
    if best is None:
        raise NoConvergence(f"no well-ordered critical ({p},{q}) configuration found")
    best[1].well_ordered = True
    return best[1]


def median_ms(fn, args, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    repeats = ap.parse_args().repeats
    total_old = total_new = 0.0
    worst = -math.inf
    for K in COUPLINGS:
        gf, _ = tw.standard_family(K)
        for p, q in PERIODS:
            old, new = old_minimize_periodic(gf, p, q), tw.minimize_periodic(gf, p, q)
            label = f"K={K:<4} ({p},{q})"
            assert new.well_ordered and tw.check_well_ordered(new), label
            gap = tw.action(gf, new) - tw.action(gf, old)
            assert gap <= 1e-12, (label, gap)
            worst = max(worst, gap)
            t_old = median_ms(old_minimize_periodic, (gf, p, q), repeats)
            t_new = median_ms(tw.minimize_periodic, (gf, p, q), repeats)
            total_old += t_old
            total_new += t_new
            print(f"{label:<22} old {t_old:8.2f} ms   new {t_new:8.2f} ms   "
                  f"ratio {t_old / t_new:5.2f}   action gap {gap:+.1e}")
    print(f"{len(COUPLINGS) * len(PERIODS)} cases: old {total_old:.0f} ms   new {total_new:.0f} ms   "
          f"ratio {total_old / total_new:.2f}   largest action gap {worst:+.1e}")


if __name__ == "__main__":
    main()
