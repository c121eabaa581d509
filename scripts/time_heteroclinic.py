"""Time `heteroclinic_minimizer` against the full-window descent it replaced.

    PYTHONPATH=src python3 scripts/time_heteroclinic.py [--repeats 7]

The reference is the `heteroclinic_minimizer` from before the core
descent, copied here: it descended each of three kink centerings
(offsets 0.5, 0 and 0.25) over the whole window from its sigmoid blend.
The new one descends the two symmetric centerings, 0.5 and 0, each on
the central core of min(window, 50 q) bonds first, finishing a core
minimizer on the full window.  Both share `_newton_minimize`.  Both
connect the (0,1) orbit to its translate by 1 at K = 0.7 and 1.0, over
windows of 60, 200 and 1000 bonds; the two segments are asserted equal
within 1e-9.

Prints, per case, the median wall time of each over `--repeats` calls
and the pivots each call factored: the summed lengths of the pivot
lists `_ldl` returned, refused factorizations included.
"""

import argparse
import math
import statistics
import time

import numpy as np

from denshoe import twist as tw

WINDOWS = (60, 200, 1000)
COUPLINGS = (0.7, 1.0)


def old_heteroclinic_minimizer(gf, left, right, window):
    if window < 50 * left.q:
        raise tw.InvalidArgument("window must be at least 50 q")
    L = window
    idx = np.arange(-L // 2, L - L // 2 + 1)
    base_l, base_r = left.extended(idx), right.extended(idx)

    def clamped(xi):
        return np.concatenate([[base_l[0]], xi, [base_r[-1]]])

    best = None
    for offset in (0.5, 0.0, 0.25):
        blend = 1.0 / (1.0 + np.exp(-tw.STEEPNESS * (idx - idx.mean() - offset)))
        x0 = base_l + (base_r - base_l) * blend
        x, w, res, _, _ = tw._newton_minimize(gf, clamped, x0[1:-1], 400, cyclic=False)
        if res > tw.TOL:
            continue
        diag, off = tw._hessian(gf, x)
        if tw._ldl((diag + 1e-10).tolist(), off.tolist())[0][-1] <= 0.0:
            continue
        if best is None or w < best[0] - 1e-14:
            best = (w, x)
    if best is None:
        raise tw.NoConvergence("heteroclinic segment did not converge", residual=math.inf)
    x = best[1]
    m = left.q + 1
    edge = max(np.max(np.abs(x[:m] - base_l[:m])), np.max(np.abs(x[-m:] - base_r[-m:])))
    if edge > tw.TAIL_TOL:
        raise tw.TailNotSettled(f"window edge residual {edge:.2e} exceeds {tw.TAIL_TOL:.0e}")
    return tw.Configuration(x, "segment", right.p - left.p, left.q)


def counted_pivots(fn, args):
    """fn(*args) and the pivots `_ldl` factored during it."""
    ldl, total = tw._ldl, [0]

    def counting(diag, off):
        piv, mult = ldl(diag, off)
        total[0] += len(piv)
        return piv, mult

    tw._ldl = counting
    try:
        out = fn(*args)
    finally:
        tw._ldl = ldl
    return out, total[0]


def median_ms(fn, args, repeats):
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=7)
    repeats = ap.parse_args().repeats
    for K in COUPLINGS:
        gf, _ = tw.standard_family(K)
        left = tw.minimize_periodic(gf, 0, 1)
        right = tw.Configuration(left.x + 1, "periodic", 0, 1)
        for window in WINDOWS:
            args = (gf, left, right, window)
            old, old_piv = counted_pivots(old_heteroclinic_minimizer, args)
            new, new_piv = counted_pivots(tw.heteroclinic_minimizer, args)
            assert np.max(np.abs(new.x - old.x)) <= 1e-9, (K, window)
            t_old = median_ms(old_heteroclinic_minimizer, args, repeats)
            t_new = median_ms(tw.heteroclinic_minimizer, args, repeats)
            print(f"K={K} w={window:<5} old {t_old:7.2f} ms {old_piv:6d} pivots   "
                  f"new {t_new:7.2f} ms {new_piv:6d} pivots   ratio {t_old / t_new:5.2f}")


if __name__ == "__main__":
    main()
