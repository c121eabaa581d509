"""Property tests for the tridiagonal LDL^T kernel of `twist` and its
padded bond layout.

The oracles are the code the kernel replaced, copied here: the dense
Hessian assembly loops, dense `np.linalg.solve` and `eigvalsh`, the
LDL^T solve that recomputed each multiplier off[i] / piv[i] where it was
used, the xi recursion of the discrete Jacobi test, the growth loop of
`hyperbolicity_report` that rebuilt Df^m from scratch for every m, the
translate-by-translate loop of `check_well_ordered`, the point-by-point
loop of `_lipschitz_constant`, the per-point eigenvectors of the cycled
Jacobian product that `_orbit_frames` formed at every orbit point, the
`heteroclinic_minimizer` that descended every kink centering over its
full window, and the one that descended a 50 q core and then the full
window.  A grid of 16 q kink offsets is the oracle of the two
symmetric ones.  The gradient is checked against central differences of
`action`.  The oracles that descend share `_newton_minimize`, and all
write the Hessian out: diagonal 2 - K cos 2 pi x_i, off-diagonal -1.
"""

import functools
import itertools
import logging
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denshoe import twist as tw

PROPERTY = settings(max_examples=200, deadline=None)


def dense(diag, cyclic):
    """The dense matrix with off-diagonal -1, filled bond by bond like the
    old assembly loops."""
    n = len(diag)
    H = np.diag(np.asarray(diag, dtype=float))
    for i in range(n if cyclic else n - 1):
        j = (i + 1) % n
        H[i, j] -= 1.0
        H[j, i] -= 1.0
    return H


def dense_periodic_hessian(gf, x):
    q = len(x)
    H = np.zeros((q, q))
    d11 = 1.0 - gf.K * np.cos(2 * np.pi * x)
    for i in range(q):
        j = (i + 1) % q
        H[i, i] += d11[i]
        H[j, j] += 1.0      # d22
        H[i, j] -= 1.0      # d12
        H[j, i] -= 1.0
    return H


def dense_segment_hessian(gf, x):
    n = len(x) - 2
    d = 1.0 + (1.0 - gf.K * np.cos(2 * np.pi * x[1:-1]))     # d22 + d11
    return np.diag(d) - np.eye(n, k=1) - np.eye(n, k=-1)


def xi_recursion(gf, x):
    """The Jacobi field with xi_0 = 0, xi_1 = 1; (ok, first index where it
    fails to be positive)."""
    xi_prev, xi = 0.0, 1.0
    for i in range(1, len(x) - 1):
        diag = float(1.0 + (1.0 - gf.K * np.cos(2 * np.pi * x[i])))
        xi_next = diag * xi - xi_prev       # -(diag xi + d12 xi_prev) / d12, d12 = -1
        if xi_next <= 0.0:
            return False, i + 1
        xi_prev, xi = xi, xi_next
    return True, None


@st.composite
def diagonals(draw):
    n = draw(st.integers(1, 80))
    entries = st.floats(-2.0, 2.0, allow_nan=False)
    diag = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    return diag + draw(st.floats(-2.0, 6.0))


@PROPERTY
@given(diagonals(), st.booleans())
def test_positive_solve_matches_dense_solve(diag, cyclic):
    H = dense(diag, cyclic)
    rhs = np.cos(np.arange(len(diag)))
    got = tw._positive_solve(diag.tolist(), rhs.tolist(), cyclic)
    lam = np.linalg.eigvalsh(H)
    if lam[0] > 1e-8:
        ref = np.linalg.solve(H, rhs)
        cond = max(abs(lam[0]), abs(lam[-1])) / lam[0]
        assert got is not None
        assert np.max(np.abs(got - ref)) <= 1e-12 * cond * np.max(np.abs(ref))
    elif lam[0] < -1e-8:
        assert got is None


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
    """The LDL^T solve before the multipliers were stored."""
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


@st.composite
def large_tridiagonals(draw):
    """(diag, off, rhs, cyclic) with n = 1..1200 and off = -1, the diagonal
    either random or shaped like a damped twist Hessian,
    2 - K cos 2 pi x + tau, so that some factorizations are refused
    midway."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(1, 1200)))
    cyclic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        diag = draw(st.floats(-2.0, 8.0)) + rng.uniform(-2.0, 2.0, n)
    else:
        K = draw(st.floats(0.0, 4.0))
        tau = draw(st.sampled_from((0.0, 1e-8, 1e-4, 0.1, 1.0, 10.0)))
        diag = 2.0 - K * np.cos(2 * np.pi * rng.uniform(0, 1, n)) + tau
    off = -np.ones(n)
    return diag, off if cyclic else off[:-1], rng.normal(size=n), cyclic


@PROPERTY
@given(large_tridiagonals())
def test_kernel_matches_old_kernel_bit_for_bit(matrix):
    diag, off, rhs, cyclic = matrix
    ref = old_positive_solve(diag, off, rhs, cyclic)
    got = tw._positive_solve(diag.tolist(), rhs.tolist(), cyclic)
    assert (got is None) == (ref is None)
    if ref is not None:
        assert np.array_equal(got, ref)
    # the same pivots, so the same first nonpositive one, and the stored
    # multipliers are the quotients the old solve formed
    t = diag[:-1] if cyclic else diag
    if len(t):
        piv, mult = tw._ldl(t.tolist())
        assert piv == old_ldl_pivots(t.tolist(), off.tolist())
        assert mult == [b / d for b, d in zip(off.tolist(), piv[:-1])]


@PROPERTY
@given(large_tridiagonals())
def test_inertia_verdict_matches_positive_solve(matrix):
    # the saddle test reads the factorization's inertia only, and refuses
    # exactly the matrices that the solve refuses
    diag, _, rhs, cyclic = matrix
    with mock.patch.object(tw, "_evaluate", lambda gf, e, cyclic: (None, None, diag, None)):
        indefinite = tw._clearly_indefinite(None, None, 0.0, cyclic)
    assert indefinite == (tw._positive_solve(diag.tolist(), rhs.tolist(), cyclic) is None)


@PROPERTY
@given(st.floats(0.0, 4.0),
       st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=80))
def test_jacobi_check_matches_xi_recursion(K, xs):
    # xi_{i+1} has the sign of the i-th leading minor of the Hessian (the
    # bonds have d12 < 0), so xi first fails to be positive where the
    # LDL^T factorization meets its first nonpositive pivot
    gf, _ = tw.standard_family(K)
    x = np.array(xs)
    piv, _ = tw._ldl(tw._evaluate(gf, x, False)[2].tolist())
    assert ((True, None) if piv[-1] > 0.0 else (False, len(piv) + 1)) == xi_recursion(gf, x)


def loop_well_ordered(cfg):
    """Every translate (a, b) tested on its own."""
    q, p = cfg.q, cfg.p
    idx = np.arange(2 * q)
    ext = cfg.x[idx % q] + (idx // q) * p
    base = ext[:q]
    for a in range(q):
        shifted = ext[a:a + q]
        for b in range(-abs(p) - tw.B_EXTRA, abs(p) + tw.B_EXTRA + 1):
            if a == 0 and b == 0:
                continue
            d = shifted + b - base
            if np.any(d > 1e-12) and np.any(d < -1e-12):
                return False
    return True


@PROPERTY
@given(st.integers(1, 40), st.integers(-40, 40),
       st.sampled_from((0.0, 1e-13, 1e-6, 1e-3, 0.1, 1.0)), st.integers(0, 2 ** 32))
def test_well_ordered_matches_translate_loop(q, p, noise, seed):
    rng = np.random.default_rng(seed)
    x = np.arange(q) * (p / q) + rng.uniform(0, 1) + noise * rng.normal(size=q)
    cfg = tw.Configuration(x, "periodic", p, q)
    assert tw.check_well_ordered(cfg) == loop_well_ordered(cfg)


def every_b_well_ordered(cfg):
    """`check_well_ordered` as it was before it stopped listing the shifts
    b: each row's max and min against every b in range."""
    q, p = cfg.q, cfg.p
    ext = cfg.extended(np.arange(2 * q))
    d = ext[np.add.outer(np.arange(q), np.arange(q))] - ext[:q]
    hi, lo = d.max(axis=1), d.min(axis=1)
    bs = np.arange(-abs(p) - tw.B_EXTRA, abs(p) + tw.B_EXTRA + 1)[:, None]
    return not np.any((hi + bs > 1e-12) & (lo + bs < -1e-12))


@PROPERTY
@given(st.integers(1, 40), st.integers(-40, 40), st.booleans(),
       st.sampled_from((0.0, 5e-13, 1e-12, 2e-12, 1e-6, 0.1)), st.integers(0, 2 ** 32))
def test_well_ordered_matches_every_b(q, p, on_integers, noise, seed):
    """The same verdict as listing every b, bit for bit; with on_integers
    the differences sit within the noise of integers, so the rows meet the
    +-1e-12 margins."""
    rng = np.random.default_rng(seed)
    x = np.arange(q) * (p / q)
    x = (np.round(x) if on_integers else x + rng.uniform(0, 1)) + noise * rng.normal(size=q)
    cfg = tw.Configuration(x, "periodic", p, q)
    assert tw.check_well_ordered(cfg) == every_b_well_ordered(cfg)


def test_well_ordered_matches_every_b_at_the_margins():
    """(p, 3)-configurations whose differences sit on half-integers, on
    +-1e-12 and a few ulps from +-1e-12, so that hi + b or lo + b lands on
    the margin itself: hi = 1e-12 with lo = -0.5 crosses for no b."""
    ulps = [0.0]
    for _ in range(3):
        ulps.append(np.nextafter(ulps[-1], np.inf))
    ulps = [s * u for u in ulps[1:] for s in (1, -1)]
    sites = sorted({h + e + u for h in (-1.0, -0.5, 0.0, 0.5, 1.0)
                    for e in (0.0, 1e-12, -1e-12) for u in [0.0] + ulps})
    for p in range(-2, 3):
        for x1, x2 in itertools.product(sites, repeat=2):
            cfg = tw.Configuration(np.array([0.0, x1, x2]), "periodic", p, 3)
            assert tw.check_well_ordered(cfg) == every_b_well_ordered(cfg)


def test_well_ordered_memory_does_not_grow_with_p():
    # listing every b took 2|p| + 5 entries, 8.7 GiB at p = 582049683,
    # which irrational_am_set reaches from the integer angle 582049683
    assert tw.minimize_periodic(tw.standard_family(0.0)[0], 582049683, 1).well_ordered
    p = 2 * 582049683 + 1
    assert tw.check_well_ordered(tw.Configuration(np.array([0.0, p / 2]), "periodic", p, 2))
    assert tw.check_well_ordered(tw.Configuration(np.array([0.0, p / 2 + 0.3]), "periodic", p, 2))
    assert not tw.check_well_ordered(
        tw.Configuration(np.array([0.0, p / 2 + 0.6]), "periodic", p, 2))


def test_well_ordered_memory_does_not_grow_as_q_squared():
    # the whole (q, q) table of x_{i+a} - x_i took 244 MiB at q = 4001 and
    # asked for 6.7 GiB at q = 30011; the rows come in blocks of 2^20 // q
    q = 4001
    cfg = tw.Configuration(np.arange(q) / q + 0.1, "periodic", 1, q)
    tracemalloc.start()
    try:
        assert tw.check_well_ordered(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


def test_well_ordered_matches_translate_loop_over_two_blocks():
    # at q = 1031 the shifts a come in two blocks, 0..1016 and 1017..1030
    q = 1031
    x = np.arange(q) / q + 0.1
    bent = x.copy()
    bent[500] += 0.01       # x_501 - x_500 < 0: the translate (1, 0) crosses
    for sites, verdict in ((x, True), (bent, False)):
        cfg = tw.Configuration(sites, "periodic", 1, q)
        assert tw.check_well_ordered(cfg) == loop_well_ordered(cfg) == verdict


def loop_lipschitz_constant(points):
    """One row of pairs per point, as `_lipschitz_constant` computed it."""
    m = len(points)
    if m < 2:
        return 0.0
    worst = 0.0
    for i in range(m):
        dx = tw._circle_dist(points[:, 0], points[i, 0])
        dy = np.abs(points[:, 1] - points[i, 1])
        mask = dx > 1e-12
        if mask.any():
            worst = max(worst, float(np.max(dy[mask] / dx[mask])))
    return worst


@PROPERTY
@given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)), max_size=30),
       st.sampled_from((0.0, 1e-13, 1e-9)))
def test_lipschitz_constant_matches_point_loop(pts, dx):
    # the last point repeats the first one's x mod 1, give or take dx,
    # so some pairs fall below the 1e-12 cut
    points = np.array(pts, dtype=float).reshape(-1, 2)
    if len(points):
        points = np.vstack([points, points[:1] + [1.0 + dx, 0.5]])
    assert tw._lipschitz_constant(points) == loop_lipschitz_constant(points)


def test_lipschitz_constant_memory_does_not_grow_as_m_squared():
    # the whole (m, m) table of pairs peaked at 215 MiB at m = 3000; the
    # rows come in blocks of 2^20 // m = 349 points, 9 blocks here
    points = np.random.default_rng(3000).uniform(-1.0, 1.0, (3000, 2))
    tracemalloc.start()
    try:
        got = tw._lipschitz_constant(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert got == loop_lipschitz_constant(points)


GOLDEN_CONVERGENTS = ((0, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21),
                      (21, 34), (34, 55), (55, 89))
GOLDEN_SQUARE_CONVERGENTS = ((1, 3), (2, 5), (3, 8), (5, 13), (8, 21), (13, 34),
                             (21, 55), (34, 89))


@pytest.mark.parametrize("p, q", GOLDEN_CONVERGENTS + GOLDEN_SQUARE_CONVERGENTS)
def test_well_ordered_matches_translate_loop_on_minimizers(p, q):
    # the minimizers of the benchmark's periodic tasks, and copies of them
    # perturbed until some translates cross
    gf, _ = tw.standard_family(0.95)
    cfg = tw.minimize_periodic(gf, p, q)
    assert tw.check_well_ordered(cfg) and loop_well_ordered(cfg)
    rng = np.random.default_rng(q)
    for noise in (1e-13, 1e-6, 1e-3, 1e-1):
        bent = replace(cfg, x=cfg.x + noise * rng.normal(size=q))
        assert tw.check_well_ordered(bent) == loop_well_ordered(bent)


@pytest.mark.parametrize("q", [1, 2, 3, 8])
def test_hessians_match_dense_assembly(q):
    gf, _ = tw.standard_family(1.3)
    x = np.random.default_rng(q).uniform(-1.0, 2.0, q + 2)
    diag = tw._evaluate(gf, tw.Configuration(x[:q], "periodic", 1, q).padded(), True)[2]
    assert np.array_equal(dense(diag, cyclic=True), dense_periodic_hessian(gf, x[:q]))
    diag = tw._evaluate(gf, x, False)[2]
    assert np.array_equal(dense(diag, cyclic=False), dense_segment_hessian(gf, x))


def action_differences(gf, cfg, sites, eps=1e-6):
    """Central differences of `action` in the given sites of cfg.x."""
    out = []
    for i in sites:
        plus, minus = cfg.x.copy(), cfg.x.copy()
        plus[i] += eps
        minus[i] -= eps
        out.append((tw.action(gf, replace(cfg, x=plus))
                    - tw.action(gf, replace(cfg, x=minus))) / (2 * eps))
    return np.array(out)


@PROPERTY
@given(st.floats(0.0, 4.0), st.integers(1, 8), st.integers(-8, 8),
       st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8))
def test_periodic_gradient_matches_action_differences(K, q, p, noise):
    # every site is checked, so the wrap-around bond enters at sites 0 and q - 1
    gf, _ = tw.standard_family(K)
    cfg = tw.Configuration(np.arange(q) * (p / q) + noise[:q], "periodic", p, q)
    ref = action_differences(gf, cfg, range(q))
    got = tw._evaluate(gf, cfg.padded(), True)[1]
    assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, abs(tw.action(gf, cfg)))


@PROPERTY
@given(st.floats(0.0, 4.0), st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=40))
def test_segment_gradient_matches_action_differences(K, xs):
    gf, _ = tw.standard_family(K)
    cfg = tw.Configuration(np.array(xs), "segment")
    ref = action_differences(gf, cfg, range(1, len(xs) - 1))
    got = tw._evaluate(gf, cfg.padded(), False)[1]
    assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, abs(tw.action(gf, cfg)))


@PROPERTY
@given(st.integers(1, 8), st.integers(-8, 8),
       st.lists(st.integers(-50, 50), min_size=1, max_size=20))
def test_extended_index_array_matches_scalar_calls(q, p, idx):
    cfg = tw.Configuration(np.cos(np.arange(q)), "periodic", p, q)
    scalar = [cfg.extended(i) for i in idx]
    assert np.array_equal(cfg.extended(np.array(idx)), scalar)
    assert scalar == [float(cfg.x[i % q]) + (i // q) * p for i in idx]


def reference_growth(tm, orbit, frames, radius, grid=5, rays=9, m_cap=20):
    """(cone_m, growth_forward, growth_backward), rebuilding Df^m for each m."""
    q = len(orbit)
    offsets = np.linspace(-radius, radius, grid)
    ts = np.linspace(-1.0, 1.0, rays)

    def growth(m, forward):
        worst = math.inf
        for j in range(q):
            for dx in offsets:
                for dy in offsets:
                    p = orbit[j] + (dx, dy)
                    A = np.eye(2)
                    pt = p.copy()
                    for _ in range(m):
                        if forward:
                            A = tm.jacobian(pt[0]) @ A
                            pt = tm(pt)
                        else:
                            pt = tm.inverse(pt)
                            A = np.linalg.inv(tm.jacobian(pt[0])) @ A
                    for t in ts:
                        v = frames[j] @ np.array([t, 1.0] if forward else [1.0, t])
                        worst = min(worst, np.linalg.norm(A @ v) / np.linalg.norm(v))
        return worst

    g_fwd = g_bwd = 0.0
    for m in range(1, m_cap + 1):
        g_fwd, g_bwd = growth(m, True), growth(m, False)
        if min(g_fwd, g_bwd) > 1.0:
            return m, g_fwd, g_bwd
    return 0, g_fwd, g_bwd


@pytest.mark.parametrize("K", [0.95, 2.0])
@pytest.mark.parametrize("p, q", [(0, 1), (1, 2), (1, 3)])
def test_hyperbolicity_growth_matches_rebuilt_products(K, p, q):
    gf, tm = tw.standard_family(K)
    orbit = tw.config_orbit(gf, tw.minimize_periodic(gf, p, q))
    rep = tw.hyperbolicity_report(tm, orbit)
    cone_m, g_fwd, g_bwd = reference_growth(tm, orbit, rep.frames, tw.BOX)
    assert rep.cone_m == cone_m
    assert rep.passed[1:] == (cone_m > 0 and g_fwd > 1.0, cone_m > 0 and g_bwd > 1.0)
    assert abs(rep.margins["growth_forward"] - g_fwd) <= 1e-12
    assert abs(rep.margins["growth_backward"] - g_bwd) <= 1e-12


def per_point_frames(tm, orbit):
    """The frames as `_orbit_frames` built them before it formed one
    monodromy: at every orbit point, the unit eigenvectors [stable,
    unstable] of the Jacobian product cycled to start there."""
    q = len(orbit)
    frames = np.empty((q, 2, 2))
    for j in range(q):
        M = np.eye(2)
        for i in range(q):
            M = tm.jacobian(orbit[(j + i) % q, 0]) @ M
        evals, evecs = np.linalg.eig(M)
        order = np.argsort(np.real(evals))
        vs, vu = (np.real(evecs[:, k]) / np.linalg.norm(np.real(evecs[:, k])) for k in order)
        frames[j] = np.column_stack([vs, vu])
    return frames


@pytest.mark.parametrize("K, p, q", [(0.95, 0, 1), (1.0, 1, 2), (0.95, 1, 3), (1.2, 2, 5),
                                     (2.0, 3, 8), (3.0, 5, 13), (4.0, 8, 21), (1.5, 13, 34),
                                     (0.95, 34, 89), (2.0, 55, 144)])
def test_frames_match_per_point_eigenvectors(K, p, q, monkeypatch):
    """One monodromy, its eigenvectors carried along the orbit, gives each
    point's eigenbasis up to sign, and the cone tests, which do not read
    the sign, give the same verdicts.  (34,89) at K = 0.95 is near
    parabolic (trace 2.12) and agrees within 8.2e-13, the others within
    1e-15."""
    gf, tm = tw.standard_family(K)
    orbit = tw.config_orbit(gf, tw.minimize_periodic(gf, p, q))
    frames = tw._orbit_frames(tm, orbit, tw._saddle_trace(tm, orbit)[1])
    old = per_point_frames(tm, orbit)
    sign = np.sign(np.sum(frames * old, axis=1, keepdims=True))
    assert np.all(sign != 0) and np.max(np.abs(frames * sign - old)) <= 1e-11
    rep = tw.hyperbolicity_report(tm, orbit)
    monkeypatch.setattr(tw, "_orbit_frames", lambda tm, orbit, M: per_point_frames(tm, orbit))
    old_rep = tw.hyperbolicity_report(tm, orbit)
    assert (rep.cone_m, rep.passed) == (old_rep.cone_m, old_rep.passed)


def old_heteroclinic_minimizer(gf, left, right, window):
    """`heteroclinic_minimizer` as it was before it descended each kink
    on its core: every centering descends the full window from its
    sigmoid blend."""
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
        x, w, res, _, _, _ = tw._newton_minimize(gf, clamped, x0[1:-1], 400, cyclic=False)
        if res > tw.TOL:
            continue
        diag = 2.0 - gf.K * np.cos(2 * np.pi * x[1:-1])
        if tw._ldl((diag + 1e-10).tolist())[0][-1] <= 0.0:
            continue
        if best is None or w < best[0] - 1e-14:
            best = (w, x, offset)
    if best is None:
        raise tw.NoConvergence("heteroclinic segment did not converge", residual=math.inf)
    x = best[1]
    m = left.q + 1
    edge = max(np.max(np.abs(x[:m] - base_l[:m])), np.max(np.abs(x[-m:] - base_r[-m:])))
    if tw._log.isEnabledFor(logging.DEBUG):
        tw._log.debug("heteroclinic_minimizer offset=%(offset)s", {"offset": best[2]})
    if edge > tw.TAIL_TOL:
        raise tw.TailNotSettled(f"window edge residual {edge:.2e} exceeds {tw.TAIL_TOL:.0e}")
    return tw.Configuration(x, "segment", right.p - left.p, left.q)


def fixed_core_heteroclinic_minimizer(gf, left, right, window):
    """`heteroclinic_minimizer` as it was before its core was sized from
    the saddle multiplier: each centering descends a core of 50 q bonds
    and then, from the core padded with the orbit values, the full window."""
    q = left.q
    L = window
    idx = np.arange(-(L // 2), L - L // 2 + 1)
    base_l, base_r = left.extended(idx), right.extended(idx)
    n = len(idx) - 1
    C = min(n, 50 * q)
    lo = (n - C) // 2
    spans = [(lo, lo + C), (0, n)] if C < n else [(0, n)]

    def clamped(a, b):
        return lambda xi: np.concatenate([[base_l[a]], xi, [base_r[b]]])

    m = q + 1

    def edge(e, a, b):
        return max(np.max(np.abs(e[:m] - base_l[a:a + m])),
                   np.max(np.abs(e[-m:] - base_r[b + 1 - m:b + 1])))

    best = None
    for centerings, offset in enumerate((0.5, 0.0), 1):
        with np.errstate(over="ignore"):
            blend = 1.0 / (1.0 + np.exp(-tw.STEEPNESS * (idx - idx.mean() - offset)))
        x = base_l + (base_r - base_l) * blend
        for a, b in spans:
            e, _, res, _, _, reach = tw._newton_minimize(gf, clamped(a, b), x[a + 1:b], 400,
                                                         cyclic=False)
            if res > tw.TOL:
                break
            if tw._clearly_indefinite(gf, e, tw.SADDLE_CURVATURE, cyclic=False):
                break
            if b - a < n and edge(e, a, b) > tw.TAIL_TOL:
                continue
            x = np.concatenate([base_l[:a], e, base_r[b + 1:]])
        else:
            if best is None or reach < best[0]:
                best = (reach, x, offset)
            if reach <= tw.TAIL_TOL:
                break
    if best is None:
        raise tw.NoConvergence("heteroclinic segment did not converge", residual=math.inf)
    _, x, offset = best
    tail = edge(x, 0, n)
    if tw._log.isEnabledFor(logging.DEBUG):
        tw._log.debug("heteroclinic_minimizer offset=%(offset)s centerings=%(centerings)d",
                      {"offset": offset, "centerings": centerings})
    if tail > tw.TAIL_TOL:
        raise tw.TailNotSettled(f"window edge residual {tail:.2e} exceeds {tw.TAIL_TOL:.0e}")
    return tw.Configuration(x, "segment", right.p - left.p, q)


@functools.cache
def minimizer(K, p, q):
    gf, _ = tw.standard_family(K)
    return gf, tw.minimize_periodic(gf, p, q)


def recorded_run(fn, gf, left, right, window, caplog):
    """(segment or (error type, message), fields of the
    `heteroclinic_minimizer` record, fields of the Newton records)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
        try:
            out = fn(gf, left, right, window)
        except tw.TailNotSettled as exc:
            out = (type(exc), str(exc))
    *runs, summary = caplog.records
    assert summary.msg.split()[0] == "heteroclinic_minimizer"
    return out, summary.args, [r.args for r in runs]


@pytest.mark.parametrize("K, p, q, window, shift", [
    (K, 0, 1, window, shift) for K in (0.12, 0.3, 0.7, 1.0, 1.3, 2.0)
    for window in (50, 60, 200, 1000) for shift in (1, -1)
] + [(K, 1, 2, window, shift) for K in (1.0, 2.0) for window in (100, 300) for shift in (1, -1)]
    + [(2.0, 1, 2, 110, 1)])
def test_core_descent_matches_full_descent(K, p, q, window, shift, caplog):
    """The core-then-window descent from an orbit to its neighbouring
    translate reaches the old full-window minimizer: the same sites within
    1e-9, the same action within 1e-12 and the same offset.  At
    window = 50 q the core is the window, and offset 0.5 settles, so the
    one Newton descent run is the first the old code ran; the old code
    ran all three offsets."""
    gf, left = minimizer(K, p, q)
    right = neighbour(left, shift)
    old, old_f, old_runs = recorded_run(old_heteroclinic_minimizer, gf, left, right, window, caplog)
    new, new_f, new_runs = recorded_run(tw.heteroclinic_minimizer, gf, left, right, window, caplog)
    if window == 50 * q:
        assert new_runs == old_runs[:1]
    if isinstance(old, tuple):
        # below K = 0.32 the (0,1) kink settles too slowly for 50 bonds,
        # and below K = 0.14 for 60: both refuse it.  At K = 0.12 over 60
        # bonds no centering settles, and the new code quotes the edge of
        # offset 0, whose last step is the shorter
        assert isinstance(new, tuple) and new[0] is old[0] and K <= 0.3 and window <= 60
        return
    assert new_f["offset"] == old_f["offset"]
    assert np.max(np.abs(new.x - old.x)) <= 1e-9
    assert abs(tw.action(gf, old) - tw.action(gf, new)) <= 1e-12


@pytest.mark.parametrize("window", [200, 400, 600, 800, 1000])
@pytest.mark.parametrize("K", [round(0.68 + 0.02 * k, 2) for k in range(28)])
def test_sized_core_matches_fixed_core_then_window(K, window, caplog):
    """The (0,1) kink from a core sized from the saddle multiplier, with
    no full-window descent after it, is the one that the 50-bond core and
    the full-window descent after it reach: the same offset and centerings,
    sites within 1e-13, and a full-window residual at round-off."""
    gf, left = minimizer(K, 0, 1)
    right = neighbour(left, 1)
    old, old_f, _ = recorded_run(fixed_core_heteroclinic_minimizer, gf, left, right, window, caplog)
    new, new_f, _ = recorded_run(tw.heteroclinic_minimizer, gf, left, right, window, caplog)
    assert (new_f["offset"], new_f["centerings"]) == (old_f["offset"], old_f["centerings"])
    assert new_f["core"] < window
    assert np.max(np.abs(new.x - old.x)) <= 1e-13
    assert tw.criticality_residual(gf, new) <= 1e-14


def neighbour(per, s):
    """The translate x_{i+a} + b of the periodic orbit per with
    a p + b q = s, 0 <= a < q."""
    p, q = per.p, per.q
    a = next(a for a in range(q) if (s - a * p) % q == 0)
    return tw.Configuration(per.extended(np.arange(q) + a) + (s - a * p) // q, "periodic", p, q)


def offset_grid_minimum(gf, left, right, window):
    """The least action of the minimizers that the full-window descent
    reaches from the sigmoid blends of the 16 q offsets k / 16,
    k = 0..16q-1, which cover q sites, the period of the orbits."""
    idx = np.arange(-(window // 2), window - window // 2 + 1)
    base_l, base_r = left.extended(idx), right.extended(idx)

    def clamped(xi):
        return np.concatenate([[base_l[0]], xi, [base_r[-1]]])

    best = math.inf
    for offset in np.arange(16 * left.q) / 16:
        blend = 1.0 / (1.0 + np.exp(-tw.STEEPNESS * (idx - idx.mean() - offset)))
        x0 = base_l + (base_r - base_l) * blend
        x, w, res, _, _, _ = tw._newton_minimize(gf, clamped, x0[1:-1], 400, cyclic=False)
        diag = 2.0 - gf.K * np.cos(2 * np.pi * x[1:-1])
        if res <= tw.TOL and tw._ldl((diag + 1e-10).tolist())[0][-1] > 0.0:
            best = min(best, w)
    return best


@pytest.mark.parametrize("s, extra, p, q, K", [
    (s, extra, p, q, K) for s in (1, -1) for extra in (0, 1) for p, q in ((1, 2), (1, 3), (2, 5))
    for K in (1.0, 2.0, 3.0)] + [(1, 0, 2, 7, 1.2), (1, 0, 1, 4, 3.0)]
    + [(-1, 0, p, q, K) for K, p, q in ((0.95, 1, 2), (0.95, 1, 3), (0.95, 2, 7), (1.2, 2, 5),
                                        (3.0, 1, 4))])
def test_two_starts_reach_the_offset_grid_minimum(K, p, q, extra, s):
    """The connection to the neighbouring translate, over the window of
    `assemble_am_set` and one bond more (both parities), has the least
    action that any of 16 q kink offsets reaches, within 1e-12.  The
    cases after the grid are those whose descents end where a step
    changes the action by less than the rounding of its sum: (2,7),
    K = 1.2 and (1,4), K = 3, both with s = 1, and five with s = -1,
    where neither symmetric centering once gave a minimizer."""
    gf, left = minimizer(K, p, q)
    right = neighbour(left, s)
    window = max(50 * q, 60) + extra
    seg = tw.heteroclinic_minimizer(gf, left, right, window)
    assert abs(tw.action(gf, seg) - offset_grid_minimum(gf, left, right, window)) <= 1e-12
