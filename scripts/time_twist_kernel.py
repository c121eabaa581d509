"""Time the `twist` kernels against the code they replaced.

    PYTHONPATH=src python3 scripts/time_twist_kernel.py [--repeats 7]

The LDL^T solve: the reference is the previous `_positive_solve`, which
recomputed each multiplier off[i] / piv[i] in both substitutions; the new
one stores the multipliers in its one factor loop.  Both are timed from
the same arrays, list conversion included, at n = 1, 2, 8, 89, 199 and
999, cyclic and plain, on a positive definite twist-like Hessian (diag
about 2.2, off = -1) and on the same matrix with a negative entry at
n // 2, which the factorization refuses there.

Well-ordering: the reference is the previous `check_well_ordered`, one
(2|p| + 5, q) block per shift a; the new one takes one max and one min
per shift.  Both run on the minimizing (3,5), (21,34) and (55,89)
configurations at K = 0.95, which are well ordered, so every shift is
scanned.

Every output pair is asserted equal (`np.array_equal`, or both None).
Prints, per case, the median call time of each over `--repeats` timed
batches and their ratio.
"""

import argparse
import statistics
import timeit

import numpy as np

from denshoe import twist as tw

SIZES = (1, 2, 8, 89, 199, 999)
PERIODS = ((3, 5), (21, 34), (55, 89))


def old_ldl_pivots(diag, off):
    piv = []
    for i, a in enumerate(diag):
        piv.append(a - off[i - 1] * off[i - 1] / piv[-1] if i else a)
        if piv[-1] <= 0.0:
            break
    return piv


def old_substitute(piv, off, rhs):
    y = list(rhs)
    for i in range(1, len(y)):
        y[i] -= off[i - 1] / piv[i - 1] * y[i - 1]
    y = [a / d for a, d in zip(y, piv)]
    for i in range(len(y) - 2, -1, -1):
        y[i] -= off[i] / piv[i] * y[i + 1]
    return y


def old_positive_solve(diag, off, rhs, cyclic):
    diag, off, rhs = diag.tolist(), off.tolist(), rhs.tolist()
    if cyclic:
        n = len(diag)
        c, r = diag.pop(), rhs.pop()
        u = [0.0] * (n - 1)
        if n == 1:
            c += 2.0 * off[0]
        else:
            u[0] += off[-1]
            u[-1] += off[-2]
    piv = old_ldl_pivots(diag, off)
    if piv and piv[-1] <= 0.0:
        return None
    y = old_substitute(piv, off, rhs)
    if not cyclic:
        return np.array(y)
    z = old_substitute(piv, off, u)
    schur = c - sum(a * b for a, b in zip(u, z))
    if schur <= 0.0:
        return None
    t = (r - sum(a * b for a, b in zip(u, y))) / schur
    return np.array([a - b * t for a, b in zip(y, z)] + [t])


def new_positive_solve(diag, off, rhs, cyclic):
    return tw._positive_solve(diag.tolist(), off.tolist(), rhs.tolist(), cyclic)


def old_check_well_ordered(cfg, b_extra=2):
    q, p = cfg.q, cfg.p
    ext = cfg.extended(np.arange(2 * q))
    base = ext[:q]
    bs = np.arange(-abs(p) - b_extra, abs(p) + b_extra + 1)[:, None]
    for a in range(q):
        d = ext[a:a + q] + bs - base
        if np.any(np.any(d > 1e-12, axis=1) & np.any(d < -1e-12, axis=1)):
            return False
    return True


def median_us(fn, args, repeats):
    """Median over `repeats` batches of the time per call, in us."""
    number = max(1, int(0.02 / max(timeit.timeit(lambda: fn(*args), number=1), 1e-7)))
    times = timeit.repeat(lambda: fn(*args), number=number, repeat=repeats)
    return 1e6 * statistics.median(times) / number


def same(a, b):
    return (a is None and b is None) or (a is not None and b is not None
                                         and np.array_equal(a, b))


def report(label, old_fn, new_fn, args, repeats):
    assert same(old_fn(*args), new_fn(*args)), label
    t_old, t_new = median_us(old_fn, args, repeats), median_us(new_fn, args, repeats)
    print(f"{label:<34} old {t_old:9.1f} us   new {t_new:9.1f} us   ratio {t_old / t_new:5.2f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=7)
    repeats = ap.parse_args().repeats
    rng = np.random.default_rng(0)
    for n in SIZES:
        diag = 2.2 + rng.uniform(-0.2, 0.2, n)
        off = -np.ones(n)
        rhs = rng.normal(size=n)
        bad = diag.copy()
        bad[n // 2] = -5.0
        for cyclic in (False, True):
            o = off if cyclic else off[:-1]
            for name, d in (("definite", diag), ("refused at mid", bad)):
                label = f"solve n={n} {'cyclic' if cyclic else 'plain'} {name}"
                report(label, old_positive_solve, new_positive_solve, (d, o, rhs, cyclic),
                       repeats)
    gf, _ = tw.standard_family(0.95)
    for p, q in PERIODS:
        cfg = tw.minimize_periodic(gf, p, q)
        report(f"well-ordered ({p},{q})", old_check_well_ordered, tw.check_well_ordered,
               (cfg,), repeats)


if __name__ == "__main__":
    main()
