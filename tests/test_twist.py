"""Tests for the twist-map variational engine."""

import logging
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from denshoe import twist as tw
from denshoe.errors import NoConvergence, NotSaddle, TailNotSettled
from denshoe.exact import ALPHA_STAR

GOLDEN_SQ = (3 + math.sqrt(5)) / 2  # expanding eigenvalue at trace 3


@pytest.fixture(scope="module")
def family():
    return tw.standard_family(1.0)


def is_orbit(tm, pts, wrap=0):
    """Do the points form an F-orbit (up to the final wrap by `wrap`),
    within 1e-8?"""
    tol = 1e-8
    for i in range(len(pts) - 1):
        img = tm(pts[i])
        if not np.allclose(img, pts[i + 1], atol=tol):
            return False
    if wrap:
        img = tm(pts[-1])
        target = pts[0] + np.array([wrap, 0.0])
        return bool(np.allclose(img, target, atol=tol))
    return True


def is_partial_graph(am):
    """No two points of the assembly share an x.  Near-saddle orbit points
    cluster like mu^(q/2), so the workable tolerance is close to round-off."""
    return bool(np.all(np.diff(np.sort(am.points[:, 0])) > 1e-12))


def crossed_translates(x):
    """The translates (a, b), a >= 1, of the segment x that cross it: over
    the sites both cover, x_{i+a} + b - x_i exceeds 1e-12 at some i and
    falls below -1e-12 at another.  A translate with a < 0 crosses iff
    (-a, -b) does."""
    found = []
    for a in range(1, len(x)):
        d = x[a:] - x[:-a]
        hi, lo = d.max(), d.min()
        found += [(a, b) for b in range(math.floor(-hi) - 1, math.ceil(-lo) + 2)
                  if hi + b > 1e-12 and lo + b < -1e-12]
    return found


def h(K, x, xp):
    """The generating function of the standard family, written out."""
    return 0.5 * (xp - x) ** 2 + K / (4 * math.pi ** 2) * np.cos(2 * math.pi * x)


def pivots(gf, x):
    """LDL^T pivots of the Hessian of the segment x, 2 - K cos 2 pi x_i on
    the diagonal, up to and including the first nonpositive one."""
    return tw._ldl((2.0 - gf.K * np.cos(2 * np.pi * np.asarray(x, dtype=float)[1:-1])).tolist())[0]


class TestStandardFamily:
    def test_gradients_match_finite_differences(self, family):
        # `_evaluate` at (a, x, b): the action of the two bonds, the
        # gradient in x and the Hessian diagonal, against central
        # differences of the written-out h
        gf, _ = family
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, x, b = e = rng.uniform(-2, 2, 3)

            def f(x, a=a, b=b):
                return h(gf.K, a, x) + h(gf.K, x, b)

            act, (g,), (diag,), _ = tw._evaluate(gf, e, False)
            g_fd = (f(x + 1e-6) - f(x - 1e-6)) / 2e-6
            diag_fd = (f(x + 1e-4) - 2 * f(x) + f(x - 1e-4)) / 1e-8
            assert act == pytest.approx(f(x), abs=1e-14)
            assert abs(g - g_fd) <= 1e-6 * max(1, abs(g_fd))
            assert abs(diag - diag_fd) <= 1e-5 * max(1, abs(diag_fd))

    def test_twist_condition(self, family):
        # d12 h = -1 < 0: the image x' = x + y - g(x) grows with y
        _, tm = family
        xs = np.linspace(-1, 2, 100)
        assert np.all(tm.jacobian(xs)[:, 0, 1] > 0)

    def test_periodicity(self, family):
        gf, _ = family
        assert tw._evaluate(gf, np.array([0.3, 0.7]), False)[0] == pytest.approx(
            tw._evaluate(gf, np.array([1.3, 1.7]), False)[0], abs=1e-14)

    def test_det_one(self, family):
        _, tm = family
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x = rng.uniform(-2, 2)
            assert abs(np.linalg.det(tm.jacobian(x)) - 1) <= 1e-10

    def test_traces(self):
        for K in (0.5, 1.0, 2.0):
            _, tm = tw.standard_family(K)
            assert np.trace(tm.jacobian(0.5)) == pytest.approx(2 + K, abs=1e-10)
            assert np.trace(tm.jacobian(0.0)) == pytest.approx(2 - K, abs=1e-10)

    def test_lift_property(self, family):
        _, tm = family
        p = np.array([0.3, 0.41])
        assert np.allclose(tm(p + [1, 0]), tm(p) + [1, 0], atol=1e-14)

    def test_inverse(self, family):
        _, tm = family
        p = np.array([0.27, -0.34])
        assert np.allclose(tm.inverse(tm(p)), p, atol=1e-12)

    def test_fixed_points(self, family):
        _, tm = family
        for fp in ([0.0, 0.0], [0.5, 0.0]):
            assert np.allclose(tm(np.array(fp)), fp, atol=1e-15)


class TestMinimizePeriodic:
    def test_zero_one_at_half(self, family):
        gf, _ = family
        cfg = tw.minimize_periodic(gf, 0, 1)
        assert cfg.x[0] == pytest.approx(0.5, abs=1e-10)
        assert tw.criticality_residual(gf, cfg) <= 1e-10

    def test_grid_oracle_zero_one(self, family):
        # brute-force grid minimization of h(x, x)
        gf, _ = family
        xs = np.linspace(0, 1, 20001)
        vals = h(gf.K, xs, xs)
        assert xs[np.argmin(vals)] == pytest.approx(0.5, abs=1e-4)

    def test_minimal_among_random(self, family):
        gf, _ = family
        cfg = tw.minimize_periodic(gf, 0, 1)
        a0 = tw.action(gf, cfg)
        rng = np.random.default_rng(11)
        for _ in range(100):
            other = tw.Configuration(rng.uniform(0, 1, 1), "periodic", 0, 1)
            assert a0 <= tw.action(gf, other) + 1e-12

    def test_degenerate_minimizers_at_zero_coupling(self, caplog):
        # at K = 0 every equally spaced configuration is a minimizer; its
        # Hessian is singular, so the first start's factorization is refused
        # before any step, but it has no negative direction and is returned:
        # the first ramp, c = 1/(2q), is the result
        gf, _ = tw.standard_family(0.0)
        for p, q in ((0, 1), (1, 1), (2, 1), (1, 2), (2, 5)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
                cfg = tw.minimize_periodic(gf, p, q)
            assert (cfg.p, cfg.q) == (p, q) and cfg.well_ordered
            assert tw.criticality_residual(gf, cfg) <= 1e-15
            assert cfg.x == pytest.approx(np.arange(q) * (p / q) + 0.5 / q, abs=1e-15)
            summary = caplog.records[-1].args
            assert summary["starts"] == 1 and summary["offset"] == 0.5 / q

    def test_second_start_when_the_first_is_not_well_ordered(self, caplog):
        # at K = 7 the (13,28) descent from the ramp c = 1/(2q) ends within
        # TOL, with no negative curvature, on a configuration whose
        # translates cross; the ramp c = 0 is then descended and passes
        gf, _ = tw.standard_family(7.0)
        p, q = 13, 28
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            cfg = tw.minimize_periodic(gf, p, q)
        assert caplog.records[-1].getMessage() == "minimize_periodic p=13 q=28 starts=2 offset=0.0"
        assert cfg.well_ordered and tw.check_well_ordered(cfg)
        assert tw.criticality_residual(gf, cfg) <= tw.TOL
        e, _, res, _, _, _ = tw._newton_minimize(gf, lambda x: tw._pad(x, p),
                                                 np.arange(q) * (p / q) + 0.5 / q, 500, cyclic=True)
        assert res <= tw.TOL
        assert not tw._clearly_indefinite(gf, e, tw.NEGATIVE_CURVATURE, cyclic=True)
        assert not tw.check_well_ordered(tw.Configuration(e[1:-1], "periodic", p, q))

    def test_stalled_descent_is_polished(self):
        # at K = 3 minimize_periodic returns a well-ordered (1,4)
        # configuration within TOL
        gf, _ = tw.standard_family(3.0)
        cfg = tw.minimize_periodic(gf, 1, 4)
        assert cfg.well_ordered and tw.criticality_residual(gf, cfg) <= tw.TOL

    def test_no_polish_no_convergence(self, caplog):
        # no plain Newton step follows a descent: at K = 3 the (1,4)
        # descents reach TOL by themselves, before their iteration cap
        gf, _ = tw.standard_family(3.0)
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            tw.minimize_periodic(gf, 1, 4)
        *runs, _ = [r.args for r in caplog.records]
        assert all(f["residual"] <= tw.TOL and f["steps"] < 500 for f in runs)

    def test_one_two(self, family):
        gf, _ = family
        cfg = tw.minimize_periodic(gf, 1, 2)
        assert cfg.well_ordered
        assert 0 < cfg.x[1] - cfg.x[0] < 1

    def test_one_two_grid_oracle(self, family):
        # 2d grid descent oracle for the (1,2) action
        gf, _ = family
        grid = np.linspace(0, 1, 201)
        best = min(
            (float(h(gf.K, a, b) + h(gf.K, b, a + 1)), a, b)
            for a in grid for b in grid
        )
        cfg = tw.minimize_periodic(gf, 1, 2)
        assert tw.action(gf, cfg) <= best[0] + 1e-9

    def test_bad_pq(self, family):
        gf, _ = family
        with pytest.raises(ValueError):
            tw.minimize_periodic(gf, 2, 4)

    def test_criticality_iff_orbit(self, family):
        gf, tm = family
        cfg = tw.minimize_periodic(gf, 1, 5)
        pts = tw.config_orbit(gf, cfg)
        assert is_orbit(tm, pts, wrap=1)
        # perturbing breaks both criticality and the orbit property
        bad = tw.Configuration(cfg.x + np.array([0, 0.01, 0, 0, 0]), "periodic", 1, 5)
        assert tw.criticality_residual(gf, bad) > 1e-4
        assert not is_orbit(tm, tw.config_orbit(gf, bad), wrap=1)

    def test_translates_never_cross(self, family):
        gf, _ = family
        cfg = tw.minimize_periodic(gf, 2, 5)
        assert tw.check_well_ordered(cfg)


    def test_no_random_module(self):
        # numpy imports numpy.random lazily, and nothing in twist needs it
        code = ("import sys; from denshoe import twist as tw; gf = tw.standard_family(1.0)[0]; "
                "tw.minimize_periodic(gf, 2, 5); tw.assemble_am_set(gf, 0, 1); "
                "print('numpy.random' in sys.modules)")
        src = str(Path(tw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"


class TestHeteroclinic:
    def test_r0_kink(self, family):
        gf, _ = family
        left = tw.minimize_periodic(gf, 0, 1)
        right = tw.Configuration(left.x + 1, "periodic", 0, 1)
        for window in (60, 61, 200, 201):
            seg = tw.heteroclinic_minimizer(gf, left, right, window)
            assert len(seg.x) == window + 1
            assert seg.x[0] == pytest.approx(0.5) and seg.x[-1] == pytest.approx(1.5)
            assert np.all(np.diff(seg.x) > -1e-9)
            assert tw.criticality_residual(gf, seg) <= 1e-9

    def test_action_stable_under_window_growth(self, family):
        gf, _ = family
        left = tw.minimize_periodic(gf, 0, 1)
        right = tw.Configuration(left.x + 1, "periodic", 0, 1)
        base = float(h(gf.K, 0.5, 0.5))
        # the action less one baseline bond per bond converges as the window grows
        a1, a2 = (tw.action(gf, tw.heteroclinic_minimizer(gf, left, right, w)) - w * base
                  for w in (60, 120))
        assert abs(a1 - a2) <= 1e-8

    def test_plus_branch_inequality(self, family):
        gf, tm = family
        left = tw.minimize_periodic(gf, 0, 1)
        right = tw.Configuration(left.x + 1, "periodic", 0, 1)
        seg = tw.heteroclinic_minimizer(gf, left, right, 60)
        pts = tw.config_orbit(gf, seg)
        # pi_1(F(x)) >= pi_1(x) + p with p = 0 along the advancing branch
        for x, y in pts:
            assert tm((x, y))[0] >= x - 1e-9

    def test_blend_of_a_long_window(self, family):
        # from 1780 bonds on, the blend's exponent overflows to inf far left
        # of the kink, where 1 / (1 + inf) = 0 is its limit; the suite turns
        # a RuntimeWarning into an error
        gf, _ = family
        left = tw.minimize_periodic(gf, 0, 1)
        right = tw.Configuration(left.x + 1, "periodic", 0, 1)
        seg = tw.heteroclinic_minimizer(gf, left, right, 1780)
        assert len(seg.x) == 1781 and np.all(np.diff(seg.x) > -1e-9)
        assert tw.criticality_residual(gf, seg) <= tw.TOL

    def test_window_too_small(self, family):
        gf, _ = family
        left = tw.minimize_periodic(gf, 0, 1)
        right = tw.Configuration(left.x + 1, "periodic", 0, 1)
        with pytest.raises(ValueError):
            tw.heteroclinic_minimizer(gf, left, right, 10)

    @pytest.mark.parametrize("tr, q, n, core", [
        (2.7, 1, 1000, 92), (2.7, 1, 1001, 91), (3.0, 1, 60, 60), (4.0, 1, 60, 56),
        (math.inf, 1, 1000, 50), (math.inf, 3, 1001, 151), (math.nan, 2, 1000, 100),
        (2.0, 1, 1000, 1000), (1.5, 1, 1001, 1001), (2.0 + 2e-15, 1, 60, 60)])
    def test_core_is_sized_from_the_trace(self, tr, q, n, core):
        # ceil(2 ln(2^53) q / ln lam): 90.3 -> 91 bonds at K = 0.7 (trace
        # 2.7), 92 over an even window; a trace of at most 2 is no saddle
        # and leaves the window, one that overflowed leaves 50 q
        assert tw._core_bonds(tw._approach_rate(tr, q), q, n) == core

    @pytest.mark.parametrize("K", [0.0, 1e-9])
    def test_kink_without_a_saddle_descends_the_window(self, K, caplog):
        # at K = 0 the (0,1) orbit is no saddle (trace 2) and at K = 1e-9
        # its kink decays by 3.2e-5 per site, so the core is the window;
        # the chain's minimizer there is close to the straight ramp, whose
        # ends stray 1/60 from the orbits, as when a 50-bond core came first
        gf, _ = tw.standard_family(K)
        left = tw.minimize_periodic(gf, 0, 1)
        right = tw.Configuration(left.x + 1, "periodic", 0, 1)
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            with pytest.raises(TailNotSettled, match="1.67e-02"):
                tw.heteroclinic_minimizer(gf, left, right, 60)
        (_, run), (name, f) = records(caplog)[-2:]
        assert name == "heteroclinic_minimizer" and run["sites"] == 59
        assert (f["core"], f["centerings"]) == (60, 1)


class TestHyperbolicity:
    def test_saddle_eigenvalues(self, family):
        _, tm = family
        rep = tw.hyperbolicity_report(tm, [[0.5, 0.0]])
        assert rep.lam == pytest.approx(GOLDEN_SQ, abs=1e-12)
        assert rep.mu == pytest.approx(1 / GOLDEN_SQ, abs=1e-12)
        assert abs(rep.lam * rep.mu - 1) <= 1e-10

    def test_cone_conditions_pass(self, family):
        _, tm = family
        rep = tw.hyperbolicity_report(tm, [[0.5, 0.0]])
        assert rep.is_saddle and rep.cone_mu > 1 and rep.cone_m >= 1
        assert rep.margins["cone_invariance_ratio"] < 1

    def test_elliptic_rejected(self, family):
        _, tm = family
        with pytest.raises(NotSaddle):
            tw.hyperbolicity_report(tm, [[0.0, 0.0]])

    def test_assembly_refuses_what_the_report_refuses(self):
        # at K = 0 the (0,1) minimizer is parabolic: trace 2
        gf, tm = tw.standard_family(0.0)
        orbit = tw.config_orbit(gf, tw.minimize_periodic(gf, 0, 1))
        with pytest.raises(NotSaddle) as report:
            tw.hyperbolicity_report(tm, orbit)
        with pytest.raises(NotSaddle) as assembly:
            tw.assemble_am_set(gf, 0, 1)
        assert str(assembly.value) == str(report.value)

    def test_periodic_orbit_report(self, family):
        gf, tm = family
        cfg = tw.minimize_periodic(gf, 1, 2)
        rep = tw.hyperbolicity_report(tm, tw.config_orbit(gf, cfg))
        assert rep.trace > 2 and abs(rep.lam * rep.mu - 1) <= 1e-8

    def test_eigenvalues_at_large_traces(self):
        # mu = (tr - disc) / 2 cancelled: lam mu - 1 was -4.8e-4 at a
        # trace of 3.7e6, mu was 0.0 from about 1e8 on, and tr^2
        # overflowed past 1.3e154, giving lam = inf and mu = -inf
        for K, q in ((2.0, 21), (4.0, 401)):
            gf, tm = tw.standard_family(K)
            rep = tw.hyperbolicity_report(tm, tw.config_orbit(gf, tw.minimize_periodic(gf, 1, q)))
            assert math.isfinite(rep.lam) and 0.0 < rep.mu < 1.0
            assert abs(rep.lam * rep.mu - 1.0) <= 1e-12


class TestJacobi:
    """A segment has no conjugate points iff every LDL^T pivot of its
    Hessian is positive; the Jacobi field first vanishes one index after
    the first nonpositive pivot (see test_twist_kernel)."""

    def test_minimizer_has_no_conjugate_points(self, family):
        gf, _ = family
        piv = pivots(gf, [0.5] * 20)
        assert len(piv) == 18 and min(piv) > 0

    def test_elliptic_fails_with_witness(self, family):
        # recursion 0, 1, 1, 0: the Jacobi field vanishes at index 3
        gf, _ = family
        piv = pivots(gf, [0.0] * 20)
        assert len(piv) + 1 == 3 and piv[-1] <= 0

    def test_heteroclinic_passes(self, family):
        gf, _ = family
        left = tw.minimize_periodic(gf, 0, 1)
        right = tw.Configuration(left.x + 1, "periodic", 0, 1)
        seg = tw.heteroclinic_minimizer(gf, left, right, 60)
        piv = pivots(gf, seg.x)
        assert len(piv) == len(seg.x) - 2 and min(piv) > 0


class TestAubryMather:
    def test_r0_plus_assembly(self, family):
        gf, _ = family
        am = tw.assemble_am_set(gf, 0, 1, "plus")
        assert am.rotation == Fraction(0, 1)
        assert "periodic" in am.roles and any(r.startswith("heteroclinic") for r in am.roles)
        assert is_partial_graph(am)
        assert math.isfinite(am.lipschitz)

    def test_lipschitz_stable_under_doubling(self, family):
        # the assembly connects over 60 bonds; the same connection over 120
        # bonds, sampled as the assembly samples it, keeps the constant
        gf, _ = family
        am = tw.assemble_am_set(gf, 0, 1, "plus")
        per = tw.minimize_periodic(gf, 0, 1)
        seg = tw.heteroclinic_minimizer(
            gf, per, tw.Configuration(per.x + 1, "periodic", 0, 1), 120)
        interior = tw.config_orbit(gf, seg)[1:-1]
        x, y = interior[:, 0] % 1.0, interior[:, 1]
        keep = tw._circle_dist(x, am.points[0, 0]) > 1e-7
        points = np.vstack([am.points[:1], np.column_stack([x, y])[keep]])
        assert tw._lipschitz_constant(points) <= am.lipschitz * 1.5 + 0.1

    def test_rotation_of_members(self, family):
        # rotation number of the underlying data: the periodic orbit advances
        # 0 per period exactly, and the connecting segment advances a fixed
        # unit over a window that can be grown, so its rate tends to zero.
        # (Re-measuring by long iteration is hopeless on a chaotic map: a
        # 1e-9 seed error escapes the homoclinic shadow in ~20 steps.)
        gf, _ = family
        left = tw.minimize_periodic(gf, 0, 1)
        assert (left.extended(50) - left.extended(0)) / 50 == 0
        right = tw.Configuration(left.x + 1, "periodic", 0, 1)
        for L in (60, 120):
            seg = tw.heteroclinic_minimizer(gf, left, right, L)
            assert abs(seg.x[-1] - seg.x[0]) / L <= 1.0 / 50

    def test_minus_branch(self, family):
        gf, tm = family
        am = tw.assemble_am_set(gf, 0, 1, "minus")
        het = [i for i, r in enumerate(am.roles) if r == "heteroclinic-minus"]
        for i in het[:10]:
            x, y = am.points[i]
            assert tm((x, y))[0] <= x + 1e-9

    @pytest.mark.parametrize("p, q", [(1, 2), (1, 3), (2, 5)])
    def test_assembly_above_period_one(self, p, q):
        # the tail check compares the end sites with the periodic orbits,
        # not with each other, so a q >= 2 orbit's own step passes
        for K in (1.0, 2.0):
            gf, tm = tw.standard_family(K)
            am = tw.assemble_am_set(gf, p, q)
            assert am.rotation == Fraction(p, q)
            assert am.roles.count("periodic") == q and len(am.roles) > q
            per = am.points[:q]
            fx, fy = tm((per[:, 0], per[:, 1]))
            x, y = per[(np.arange(q) + 1) % q].T
            assert np.allclose(fx % 1.0, x, atol=1e-8) and np.allclose(fy, y, atol=1e-8)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("p, q", [(1, 2), (1, 3), (2, 5)])
    def test_assembled_segment_crosses_no_translate(self, p, q, branch, monkeypatch):
        # the connection runs to the neighbouring translate, 1/q away; to
        # the translate by 1 it is a chain of q kinks, and at K = 2 it
        # crosses 22, 48 and 99 of its own translates (plus)
        gf, _ = tw.standard_family(2.0)
        segments = []
        heteroclinic = tw.heteroclinic_minimizer
        monkeypatch.setattr(tw, "heteroclinic_minimizer",
                            lambda *args: segments.append(heteroclinic(*args)) or segments[-1])
        tw.assemble_am_set(gf, p, q, branch)
        (seg,) = segments
        assert len(seg.x) == 50 * q + 1
        assert crossed_translates(seg.x) == []

    def test_irrational_convergents(self, family):
        gf, _ = family
        omega = ALPHA_STAR * Fraction(1, 3)  # ~0.1273, q: 1, 7, 8, 47
        am = tw.irrational_am_set(gf, omega, 4)
        p, q = am.rotation.numerator, am.rotation.denominator
        assert abs(p / q - float(omega)) <= 1.0 / q ** 2
        assert is_partial_graph(am)
        assert len(am.drift) >= 2
        assert all(a >= b for a, b in zip(am.drift, am.drift[1:]))

    def test_no_convergence_reports_residual(self, family, monkeypatch):
        # no Newton iteration at all: no start converges
        gf, _ = family
        newton = tw._newton_minimize
        monkeypatch.setattr(tw, "_newton_minimize",
                            lambda gf, pad, x0, max_iter, cyclic: newton(gf, pad, x0, 0, cyclic))
        with pytest.raises(NoConvergence) as err:
            tw.minimize_periodic(gf, 2, 25)
        assert err.value.residual is not None and err.value.residual > 0


def records(caplog):
    """(leading word, fields) of each record caught."""
    return [(r.msg.split()[0], r.args) for r in caplog.records]


class TestRecords:
    def test_periodic_record_counts_its_newton_runs(self, family, caplog):
        gf, _ = family
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            tw.minimize_periodic(gf, 2, 5)
        *runs, (name, summary) = records(caplog)
        assert name == "minimize_periodic" and (summary["p"], summary["q"]) == (2, 5)
        assert {n for n, _ in runs} == {"newton"}
        assert all(f["sites"] == 5 and f["cyclic"] == 1 for _, f in runs)
        # the first ramp, c = 1/(2q), descends with steps to the minimizer
        # and passes, so the second is not descended
        ((_, run),) = runs
        assert summary["starts"] == 1 and summary["offset"] == 0.1
        assert run["residual"] <= tw.TOL and run["steps"] != 0
        # the second ramp, c = 0, descends with steps to the minimax, which
        # would not pass: its Hessian is clearly indefinite
        e, _, res, steps, _, _ = tw._newton_minimize(gf, lambda x: tw._pad(x, 2),
                                                     np.arange(5) * 0.4, 500, cyclic=True)
        assert res <= tw.TOL and steps > 0
        assert tw._clearly_indefinite(gf, e, tw.NEGATIVE_CURVATURE, cyclic=True)

    def test_start_on_the_potential_maximum_is_refused(self, family, caplog):
        # the second (0,1) start is x = 0: critical, with H = -K < 0, so its
        # one factorization is refused, no step is taken, and it would not
        # pass; the first start, x = 1/2, is the saddle orbit and passes,
        # so x = 0 is never descended
        gf, _ = family
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            cfg = tw.minimize_periodic(gf, 0, 1)
            e = tw._newton_minimize(gf, lambda x: tw._pad(x, 0), [0.0], 500, cyclic=True)[0]
        run, summary, maximum = caplog.records
        assert maximum.getMessage() == ("newton sites=1 cyclic=1 steps=0 refused=1 uphill=0 "
                                        "max_tau=0.000e+00 residual=0.000e+00 reach=inf")
        assert tw._clearly_indefinite(gf, e, tw.NEGATIVE_CURVATURE, cyclic=True)
        assert run.msg.split()[0] == "newton" and run.args["sites"] == 1
        assert summary.getMessage() == "minimize_periodic p=0 q=1 starts=1 offset=0.5"
        assert cfg.x.tolist() == [0.5]

    def test_heteroclinic_record(self, family, caplog):
        gf, _ = family
        left = tw.minimize_periodic(gf, 0, 1)
        right = tw.Configuration(left.x + 1, "periodic", 0, 1)
        # at K = 1 the saddle's multiplier has lam + 1/lam = 3, and the core
        # of 2 ln(2^53) / ln lam = 76.3 bonds rounds up to 78 over an even
        # window: over 200 bonds its 77 sites are the only descent, and the
        # padded core is within TOL over the full window; over 60 the core
        # is the window
        for window, core in ((60, 60), (200, 78)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
                seg = tw.heteroclinic_minimizer(gf, left, right, window)
            (n, run), (name, f) = records(caplog)
            assert name == "heteroclinic_minimizer" and f["window"] == window
            assert (f["core"], f"{f['rate']:.3e}") == (core, f"{math.acosh(1.5):.3e}")
            assert n == "newton" and run["sites"] == core - 1 and run["cyclic"] == 0
            # the first centering, offset 0.5, settles, so it is the only one
            assert (f["centerings"], f["offset"], f["saddles"]) == (1, 0.5, 0)
            assert f["reach"] <= tw.TAIL_TOL and f["reach"] == run["reach"]
            assert tw.criticality_residual(gf, seg) <= tw.TOL
            idx = np.arange(-(window // 2), window - window // 2 + 1)
            edge = max(np.max(np.abs(seg.x[:2] - left.extended(idx[:2]))),
                       np.max(np.abs(seg.x[-2:] - right.extended(idx[-2:]))))
            assert f"{f['edge']:.3e}" == f"{edge:.3e}"

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_offset_half_wins_after_polishing(self, branch, caplog):
        # at (2,5), K = 1, over 250 bonds offset 0.5 settles on both
        # branches, so offset 0 (a saddle on the retarded one) is not descended
        gf, _ = tw.standard_family(1.0)
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            tw.assemble_am_set(gf, 2, 5, branch)
        *_, (_, half), (name, f) = records(caplog)
        assert name == "heteroclinic_minimizer" and f["window"] == 250 and f["offset"] == 0.5
        assert half["sites"] == 249 and f["centerings"] == 1
        assert half["residual"] <= tw.TOL and half["reach"] <= tw.TAIL_TOL

    @pytest.mark.parametrize("K, p, q", [(1.2, 2, 7), (3.0, 1, 4)])
    def test_kink_descents_settle_before_the_cap(self, K, p, q, caplog):
        # the advanced connections over 350 and 200 bonds: near the
        # minimizer each step changes the action by less than the rounding
        # of its sum, and the residual decides it, so each kink descent
        # ends within TOL in a few steps, without raising tau past 10; the
        # first centering settles, so it is the only kink descent
        gf, _ = tw.standard_family(K)
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            tw.assemble_am_set(gf, p, q, "plus")
        kinks = [f for name, f in records(caplog) if name == "newton" and f["cyclic"] == 0]
        assert len(kinks) == 1
        for f in kinks:
            assert f["residual"] <= tw.TOL and f["steps"] < 400
            assert f["uphill"] <= 2 and f["max_tau"] <= 10.0

    def test_lower_action_settles_a_soft_kink(self, caplog):
        # the plus connection of `assemble_am_set` at (7,10), K = 0.8, over
        # 500 bonds (the core is the window): moving the kink is a soft
        # mode, so the offset-0.5 descent stops within TOL but with a last
        # step of about 2.5e-5, unsettled, and offset 0 settles (9.9e-10)
        gf, _ = tw.standard_family(0.8)
        per = tw.minimize_periodic(gf, 7, 10)
        target = tw.Configuration(per.extended(np.arange(10) + 3) - 2, "periodic", 7, 10)
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            seg = tw.heteroclinic_minimizer(gf, per, target, 500)
        *_, (_, half), (_, zero), (name, f) = records(caplog)
        assert name == "heteroclinic_minimizer" and half["sites"] == zero["sites"] == 499
        assert 1e-12 < half["residual"] <= tw.TOL and zero["residual"] <= 1e-12
        assert half["reach"] > tw.TAIL_TOL and zero["reach"] <= tw.TAIL_TOL
        assert (f["offset"], f["centerings"], f["reach"]) == (0.0, 2, zero["reach"])
        assert tw.criticality_residual(gf, seg) <= 1e-12
        hessian = (np.diag(2 - 0.8 * np.cos(2 * np.pi * seg.x[1:-1]))
                   - np.eye(499, k=1) - np.eye(499, k=-1))
        assert 0 < np.linalg.eigvalsh(hessian)[0] < 1e-6

    @pytest.mark.parametrize("window", [60, 61, 201, 1000, 1001])
    @pytest.mark.parametrize("K", [0.7, 1.0, 2.0])
    def test_first_centering_settles_a_period_one_kink(self, K, window, caplog):
        # at either window parity offset 0.5 centres the (0,1) kink on the
        # bond (0,1), where the minimizer sits; it settles, so offset 0
        # (site 0, the Peierls-Nabarro saddle) is not descended.  The core,
        # sized from lam + 1/lam = 2 + K, has 92, 78 and 56 bonds over an
        # even window and 91, 77 and 57 over an odd one (at most the
        # window), and its one descent is the only one.  Over an odd window
        # the sites pair up as i and 1 - i, and the kink is symmetric about
        # the middle bond: x_i + x_{1-i} = 2
        core = min(window, {0.7: (92, 91), 1.0: (78, 77), 2.0: (56, 57)}[K][window % 2])
        gf, _ = tw.standard_family(K)
        left = tw.minimize_periodic(gf, 0, 1)
        right = tw.Configuration(left.x + 1, "periodic", 0, 1)
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            seg = tw.heteroclinic_minimizer(gf, left, right, window)
        *runs, (name, f) = records(caplog)
        assert name == "heteroclinic_minimizer"
        assert [g["sites"] for _, g in runs] == [core - 1]
        assert f["core"] == core
        assert (f["centerings"], f["offset"], f["saddles"]) == (1, 0.5, 0)
        assert f["reach"] <= tw.TAIL_TOL and f["reach"] == runs[-1][1]["reach"]
        if window % 2:
            assert np.max(np.abs(seg.x + seg.x[::-1] - 2.0)) <= 1e-12

    @pytest.mark.parametrize("K, p, q, s, window, outcome", [(0.7, 2, 5, 1, 1000, (0.5, 2, 1)),
                                                             (0.5, 1, 3, -1, 600, (None, 2, 2))])
    def test_padded_core_saddle_is_refused(self, K, p, q, s, window, outcome, caplog):
        # cores (C < n) that descend to a saddle, refused on the full
        # window once padded with the orbit values: for (2,5) plus offset 0,
        # after offset 0.5 passed unsettled; for (1,3) minus both, so that
        # no centering passes and NoConvergence says why
        gf, _ = tw.standard_family(K)
        left = tw.minimize_periodic(gf, p, q)
        right = tw.Configuration(tw._neighbour(left, s), "periodic", p, q)
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            try:
                tw.heteroclinic_minimizer(gf, left, right, window)
            except NoConvergence as err:
                assert str(err) == "every kink centering converged to a saddle"
        *_, (_, half), (_, zero), (name, f) = records(caplog)
        assert name == "heteroclinic_minimizer" and f["core"] < window
        assert half["sites"] == zero["sites"] == f["core"] - 1
        assert (f["offset"], f["centerings"], f["saddles"]) == outcome

    def test_shortest_reach_wins_when_no_centering_settles(self, caplog):
        # the plus connection at (2,7), K = 0.75, over 350 bonds (the core
        # is the window): both centerings pass, neither settles, and offset
        # 0, whose last step is the shorter, is returned, as the lower
        # action once picked it
        gf, _ = tw.standard_family(0.75)
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            tw.assemble_am_set(gf, 2, 7, "plus")
        *_, (_, half), (_, zero), (name, f) = records(caplog)
        assert name == "heteroclinic_minimizer" and half["sites"] == zero["sites"] == 349
        assert half["residual"] <= tw.TOL and zero["residual"] <= tw.TOL
        assert tw.TAIL_TOL < zero["reach"] < half["reach"]
        assert (f["offset"], f["centerings"], f["saddles"]) == (0.0, 2, 0)
        assert f["reach"] == zero["reach"]

    def test_record_comes_before_no_convergence(self, caplog):
        # the minus connection at (2,9), K = 0.7, over 450 bonds (the core
        # is the window): both centerings converge, each to a saddle, so
        # none passes; the record is written with no offset, and the error
        # says so and carries the smaller of the two descents' residuals
        gf, _ = tw.standard_family(0.7)
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            with pytest.raises(NoConvergence,
                               match="^every kink centering converged to a saddle$") as err:
                tw.assemble_am_set(gf, 2, 9, "minus")
        *_, (_, half), (_, zero), (name, f) = records(caplog)
        assert name == "heteroclinic_minimizer" and half["sites"] == zero["sites"] == 449
        assert (f["window"], f["core"], f["offset"]) == (450, 450, None)
        assert (f["centerings"], f["saddles"]) == (2, 2)
        assert math.isnan(f["reach"]) and math.isnan(f["edge"])
        assert err.value.residual == min(half["residual"], zero["residual"]) <= tw.TOL

    @pytest.mark.parametrize("K, p, q", [(1.0, 1, 2), (0.95, 1, 3)])
    def test_hyperbolicity_record(self, K, p, q, caplog):
        # (1,3) at K = 0.95 has trace 2.99 but fails all three cone
        # conditions on the sampled grid
        gf, tm = tw.standard_family(K)
        orbit = tw.config_orbit(gf, tw.minimize_periodic(gf, p, q))
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            rep = tw.hyperbolicity_report(tm, orbit)
        ((name, f),) = records(caplog)
        assert name == "hyperbolicity_report" and f["q"] == q
        assert f["trace"] == rep.trace and f["cone_m"] == rep.cone_m
        assert {k: f[k] for k in rep.margins} == rep.margins
        assert (f["passed_invariance"], f["passed_forward"], f["passed_backward"]) == rep.passed
        assert rep.is_saddle == (q == 2)

    def test_no_record_when_debug_is_off(self, family, caplog):
        gf, tm = family
        with caplog.at_level(logging.INFO, logger="denshoe.twist"):
            left = tw.minimize_periodic(gf, 0, 1)
            tw.heteroclinic_minimizer(gf, left, tw.Configuration(left.x + 1, "periodic", 0, 1), 60)
            tw.hyperbolicity_report(tm, tw.config_orbit(gf, left))
        assert not caplog.records
