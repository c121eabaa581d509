"""Frenkel-Kontorova variational engine for exact symplectic twist maps.

The concrete family is the standard (Chirikov) one,

    h(x, x') = (x' - x)^2 / 2 + (K / 4 pi^2) cos(2 pi x),

with the momentum convention y = -d1 h(x, x'), y' = d2 h(x, x').  Its
annulus map has fixed points at (0, 0) (elliptic for 0 < K < 4) and
(1/2, 0) (a positive-eigenvalue saddle for every K > 0), so the
rotation-number-zero scenarios need no parameter hunting.  Orbits are
critical configurations of the action sum.  Their Hessians are
tridiagonal (cyclic for periodic configurations), since the action
couples only neighbouring sites; one LDL^T elimination solves them,
tests them for positive definiteness and runs the discrete Jacobi test.
Minimizers are found by damped Newton descent on the action, with
multi-start for periodic orbits and several kink centerings for
heteroclinic segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NoConvergence, NotSaddle, TailNotSettled
from .exact import convergents as cf_convergents

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# the standard family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingFunction:
    """Evaluators for h and its partial derivatives; twist: d12 = -1 < 0."""

    K: float

    def h(self, x, xp):
        return 0.5 * (xp - x) ** 2 + self.K / (4 * math.pi ** 2) * np.cos(TWO_PI * x)

    def d1(self, x, xp):
        return -(xp - x) - self.K / TWO_PI * np.sin(TWO_PI * x)

    def d2(self, x, xp):
        return xp - x

    def d11(self, x, xp):
        return 1.0 - self.K * np.cos(TWO_PI * x)

    def d12(self, x, xp):
        return -1.0 * np.ones_like(np.asarray(x, dtype=float))

    def d22(self, x, xp):
        return 1.0 * np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class TwistMapF:
    """Lift F of the standard map and its derivative.

    F(x, y) = (x + y - g(x), y - g(x)) with g(x) = (K / 2 pi) sin(2 pi x);
    F(x+1, y) = F(x, y) + (1, 0) and det DF = 1."""

    K: float

    def _g(self, x):
        return self.K / TWO_PI * np.sin(TWO_PI * x)

    def __call__(self, p):
        x, y = p
        gy = y - self._g(x)
        return np.array([x + gy, gy])

    def forward_xy(self, x, y):
        gy = y - self._g(x)
        return x + gy, gy

    def inverse(self, p):
        xp, yp = p
        x = xp - yp
        return np.array([x, yp + self._g(x)])

    def inverse_xy(self, xp, yp):
        x = xp - yp
        return x, yp + self._g(x)

    def jacobian(self, x, y=0.0):
        gp = self.K * np.cos(TWO_PI * x)
        return np.array([[1.0 - gp, 1.0], [-gp, 1.0]])


def standard_family(K: float) -> tuple[GeneratingFunction, TwistMapF]:
    if K < 0:
        raise ValueError("coupling K must be >= 0")
    return GeneratingFunction(K), TwistMapF(K)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@dataclass
class Configuration:
    """Finite piece of a cover configuration (x_i).

    kind 'periodic': q values with the constraint x_{i+q} = x_i + p held by
    representation.  kind 'segment': clamped endpoints, all values stored."""

    x: np.ndarray
    kind: str = "periodic"
    p: int = 0
    q: int = 1
    well_ordered: bool | None = None

    def extended(self, i: int) -> float:
        """x_i for any integer index (periodic kind only)."""
        if self.kind != "periodic":
            raise ValueError("extension defined for periodic configurations")
        k, r = divmod(i, self.q)
        return float(self.x[r]) + k * self.p


def action(gf: GeneratingFunction, cfg: Configuration) -> float:
    x = cfg.x
    if cfg.kind == "periodic":
        xp = np.concatenate([x[1:], [x[0] + cfg.p]])
        return float(np.sum(gf.h(x, xp)))
    return float(np.sum(gf.h(x[:-1], x[1:])))


def segment_action_excess(gf: GeneratingFunction, cfg: Configuration, baseline: float) -> float:
    """Action of a clamped segment with one baseline bond subtracted per
    term, so the value converges as the window grows."""
    return float(np.sum(gf.h(cfg.x[:-1], cfg.x[1:]) - baseline))


def _periodic_gradient(gf, x, p):
    xm = np.concatenate([[x[-1] - p], x[:-1]])
    xp = np.concatenate([x[1:], [x[0] + p]])
    return gf.d2(xm, x) + gf.d1(x, xp)


def _periodic_hessian(gf, x, p):
    """(diag, off) of the cyclic tridiagonal Hessian of the periodic action;
    off[i] couples site i with site i + 1 mod q."""
    xm = np.concatenate([[x[-1] - p], x[:-1]])
    xp = np.concatenate([x[1:], [x[0] + p]])
    return gf.d22(xm, x) + gf.d11(x, xp), gf.d12(x, xp)


def _segment_hessian(gf, x):
    """(diag, off) of the tridiagonal Hessian of a clamped segment's action
    in its interior sites x[1:-1]."""
    return gf.d22(x[:-2], x[1:-1]) + gf.d11(x[1:-1], x[2:]), gf.d12(x[1:-2], x[2:-1])


def criticality_residual(gf: GeneratingFunction, cfg: Configuration) -> float:
    if cfg.kind == "periodic":
        return float(np.max(np.abs(_periodic_gradient(gf, cfg.x, cfg.p))))
    x = cfg.x
    if len(x) < 3:
        return 0.0
    interior = gf.d2(x[:-2], x[1:-1]) + gf.d1(x[1:-1], x[2:])
    return float(np.max(np.abs(interior)))


def check_well_ordered(cfg: Configuration, b_extra: int = 2) -> bool:
    """Aubry non-crossing of integer translates of a periodic configuration."""
    q, p = cfg.q, cfg.p
    idx = np.arange(2 * q)
    ext = cfg.x[idx % q] + (idx // q) * p
    base = ext[:q]
    bs = np.arange(-abs(p) - b_extra, abs(p) + b_extra + 1)[:, None]
    for a in range(q):
        # One row per b.  The row of a = b = 0 is the configuration itself:
        # it is exactly 0, so it never crosses.
        d = ext[a:a + q] + bs - base
        if np.any(np.any(d > 1e-12, axis=1) & np.any(d < -1e-12, axis=1)):
            return False
    return True


def _ldl_pivots(diag, off) -> list[float]:
    """Pivots of the LDL^T factorization of the symmetric tridiagonal
    matrix with diagonal `diag` and off-diagonal `off`, up to and including
    the first nonpositive one.  By Sylvester's law of inertia the matrix is
    positive definite iff all len(diag) pivots come out positive."""
    piv = []
    for i, a in enumerate(diag):
        piv.append(a - off[i - 1] * off[i - 1] / piv[-1] if i else a)
        if piv[-1] <= 0.0:
            break
    return piv


def _substitute(piv, off, rhs) -> list[float]:
    """Solve L D L^T y = rhs, given the pivots D from _ldl_pivots."""
    y = list(rhs)
    for i in range(1, len(y)):
        y[i] -= off[i - 1] / piv[i - 1] * y[i - 1]
    y = [a / d for a, d in zip(y, piv)]
    for i in range(len(y) - 2, -1, -1):
        y[i] -= off[i] / piv[i] * y[i + 1]
    return y


def _positive_solve(diag, off, rhs, cyclic: bool):
    """Solution of H y = rhs for the symmetric tridiagonal H given by the
    arrays (diag, off), or None when H is not positive definite.  With
    cyclic, off[-1] couples the last site with the first.  The last site is
    then bordered off, H = [[T, u], [u^T, c]], and H is positive definite
    iff T is and the Schur complement c - u^T T^-1 u is positive; for q = 1
    and 2 the wrap-around bonds fall on c and on u."""
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
    piv = _ldl_pivots(diag, off)
    if piv and piv[-1] <= 0.0:
        return None
    y = _substitute(piv, off, rhs)
    if not cyclic:
        return np.array(y)
    z = _substitute(piv, off, u)
    schur = c - sum(a * b for a, b in zip(u, z))
    if schur <= 0.0:
        return None
    t = (r - sum(a * b for a, b in zip(u, y))) / schur
    return np.array([a - b * t for a, b in zip(y, z)] + [t])


def _newton_minimize(fun, grad, hess, x0, tol, max_iter, cyclic):
    """Damped Newton descent on the action `fun`.  Each step solves
    (H + tau I) s = -g, raising tau until H + tau I is positive definite
    and the step lowers the action (or, leaving it equal, lowers |g|^2);
    tau shrinks after each accepted step, so the iteration turns into
    full Newton near a minimizer.  Once the residual max|g| is within tol,
    each iteration tries one step only and the descent stops at the first
    one refused; this takes the residual to round-off, which keeps
    exponentially small heteroclinic tails clean.  Returns (x, residual)."""
    x = np.array(x0, dtype=float)
    f, g = fun(x), grad(x)
    tau = 0.0
    for _ in range(max_iter):
        diag, off = hess(x)
        gg = float(np.dot(g, g))
        for _ in range(1 if np.max(np.abs(g)) <= tol else 40):
            step = _positive_solve(diag + tau, off, -g, cyclic)
            if step is not None:
                x_new = x + step
                f_new, g_new = fun(x_new), grad(x_new)
                if f_new < f or (f_new == f and float(np.dot(g_new, g_new)) < gg):
                    break
            tau = max(10.0 * tau, 1e-8)
        else:
            break
        x, f, g = x_new, f_new, g_new
        tau *= 0.25
    return x, float(np.max(np.abs(g)))


def minimize_periodic(
    gf: GeneratingFunction,
    p: int,
    q: int,
    *,
    starts: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> Configuration:
    """Action-minimizing critical (p,q)-configuration, multi-start;
    NoConvergence past the iteration cap reports the best residual."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.gcd(abs(p), q) != 1:
        raise ValueError("p/q must be in lowest terms")
    rng = np.random.default_rng(seed)
    ramps = np.linspace(0.0, 1.0, max(2, starts // 2), endpoint=False)
    base = np.arange(q) * (p / q)
    candidates = [s + base for s in ramps]
    for _ in range(starts - len(candidates)):
        candidates.append(rng.uniform(0, 1) + base + rng.normal(0, 0.05, size=q))

    fun = lambda x: float(np.sum(gf.h(x, np.concatenate([x[1:], [x[0] + p]]))))
    grad = lambda x: _periodic_gradient(gf, x, p)
    hess = lambda x: _periodic_hessian(gf, x, p)
    best = None
    best_res = math.inf
    confirmations = 0
    for x0 in candidates:
        x, res = _newton_minimize(fun, grad, hess, x0, tol, max_iter, cyclic=True)
        best_res = min(best_res, res)
        if res > tol:
            continue
        cfg = Configuration(x - math.floor(x[0]), "periodic", p, q)
        if not check_well_ordered(cfg):
            continue
        a = action(gf, cfg)
        if best is None or a < best[0] - 1e-12:
            best = (a, cfg)
            confirmations = 0
        elif a < best[0] + 1e-12:
            confirmations += 1
            if confirmations >= 4:
                break  # the same minimum keeps reappearing
    if best is None:
        raise NoConvergence(f"no well-ordered critical ({p},{q}) configuration found",
                            residual=best_res)
    cfg = best[1]
    cfg.well_ordered = True
    return cfg


def heteroclinic_minimizer(
    gf: GeneratingFunction,
    left: Configuration,
    right: Configuration,
    window: int,
    *,
    tol: float = 1e-10,
    tail_tol: float = 1e-6,
    steepness: float = 0.8,
) -> Configuration:
    """Clamped-segment action minimizer running from the left periodic
    orbit to the right one over `window` bonds."""
    if window < 50 * left.q:
        raise ValueError("window must be at least 50 q")
    L = window
    idx = np.arange(-L // 2, L - L // 2 + 1)
    base_l = np.array([left.extended(i) for i in idx], dtype=float)
    base_r = np.array([right.extended(i) for i in idx], dtype=float)
    lo_clamp, hi_clamp = base_l[0], base_r[-1]

    def clamped(xi):
        return np.concatenate([[lo_clamp], xi, [hi_clamp]])

    def fun(xi):
        x = clamped(xi)
        return float(np.sum(gf.h(x[:-1], x[1:])))

    def grad(xi):
        x = clamped(xi)
        return gf.d2(x[:-2], x[1:-1]) + gf.d1(x[1:-1], x[2:])

    def hess(xi):
        return _segment_hessian(gf, clamped(xi))

    # Both kink centerings are critical (site-centered is the
    # Peierls-Nabarro saddle); keep the one with the smaller action.
    best = None
    for offset in (0.5, 0.0, 0.25):
        blend = 1.0 / (1.0 + np.exp(-steepness * (idx - idx.mean() - offset)))
        x0 = base_l + (base_r - base_l) * blend
        xi, res = _newton_minimize(fun, grad, hess, x0[1:-1], tol, 400, cyclic=False)
        if res > tol:
            continue
        w = fun(xi)
        diag, off = hess(xi)
        if _ldl_pivots((diag + 1e-10).tolist(), off.tolist())[-1] <= 0.0:
            continue  # lowest eigenvalue below -1e-10: a saddle, not a minimizer
        if best is None or w < best[0] - 1e-14:
            best = (w, clamped(xi), res)
    if best is None:
        raise NoConvergence("heteroclinic segment did not converge",
                            residual=math.inf)
    x = best[1]
    # the first and last q+1 sites must sit on the orbits they connect
    m = left.q + 1
    edge = max(np.max(np.abs(x[:m] - base_l[:m])), np.max(np.abs(x[-m:] - base_r[-m:])))
    if edge > tail_tol:
        raise TailNotSettled(f"window edge residual {edge:.2e} exceeds {tail_tol:.0e}")
    return Configuration(x, "segment", right.p - left.p, left.q)


def is_monotone(cfg: Configuration, tol: float = 1e-9) -> bool:
    """Monotonicity of a segment up to clamp artifacts: the hard endpoint
    clamp produces reflected-tail dips below 1e-10 for windows >= 50 q,
    which the tolerance absorbs."""
    d = np.diff(cfg.x)
    return bool(np.all(d > -tol)) if d[len(d) // 2] > 0 else bool(np.all(d < tol))


# ---------------------------------------------------------------------------
# orbits from configurations
# ---------------------------------------------------------------------------

def config_orbit(gf: GeneratingFunction, cfg: Configuration) -> np.ndarray:
    """Cover orbit points (x_i, y_i) with y_i = -d1 h(x_i, x_{i+1})."""
    if cfg.kind == "periodic":
        x = cfg.x
        xp = np.concatenate([x[1:], [x[0] + cfg.p]])
    else:
        x, xp = cfg.x[:-1], cfg.x[1:]
    y = -gf.d1(x, xp)
    return np.column_stack([x, y])


def is_orbit(tm: TwistMapF, pts: np.ndarray, tol: float = 1e-8, wrap: int = 0) -> bool:
    """Do the points form an F-orbit (up to the final wrap by `wrap`)?"""
    for i in range(len(pts) - 1):
        img = tm(pts[i])
        if not np.allclose(img, pts[i + 1], atol=tol):
            return False
    if wrap:
        img = tm(pts[-1])
        target = pts[0] + np.array([wrap, 0.0])
        return bool(np.allclose(img, target, atol=tol))
    return True


# ---------------------------------------------------------------------------
# hyperbolicity
# ---------------------------------------------------------------------------

@dataclass
class HyperbolicityReport:
    trace: float
    lam: float          # expanding eigenvalue > 1
    mu: float           # contracting eigenvalue in (0, 1)
    frames: np.ndarray  # (q, 2, 2): columns [stable, unstable] per orbit point
    cone_mu: float      # verified growth constant > 1
    cone_m: int         # iterate count realizing the growth
    radius: float
    margins: dict
    passed: tuple[bool, bool, bool]

    @property
    def is_saddle(self) -> bool:
        return all(self.passed)


def _orbit_frames(tm: TwistMapF, orbit: np.ndarray) -> np.ndarray:
    """Per-point [stable, unstable] eigenbasis of the cycled Jacobian product."""
    q = len(orbit)
    frames = np.empty((q, 2, 2))
    for j in range(q):
        M = np.eye(2)
        for i in range(q):
            x, y = orbit[(j + i) % q]
            M = tm.jacobian(x, y) @ M
        evals, evecs = np.linalg.eig(M)
        evals = np.real(evals)
        evecs = np.real(evecs)
        order = np.argsort(evals)  # [mu, lam]
        vs = evecs[:, order[0]] / np.linalg.norm(evecs[:, order[0]])
        vu = evecs[:, order[1]] / np.linalg.norm(evecs[:, order[1]])
        frames[j] = np.column_stack([vs, vu])
    return frames


def hyperbolicity_report(
    tm: TwistMapF,
    orbit: np.ndarray,
    radius: float = 0.02,
    *,
    grid: int = 5,
    rays: int = 9,
    m_cap: int = 20,
) -> HyperbolicityReport:
    """Saddle eigen-data plus sampled cone-condition checks on a square
    neighborhood of each orbit point.  The cone field is the eigenframe of
    the cycled Jacobian, extended constantly near each point; condition
    margins are the worst values seen on the grid."""
    orbit = np.atleast_2d(np.asarray(orbit, dtype=float))
    q = len(orbit)
    M = np.eye(2)
    for x, y in orbit:
        M = tm.jacobian(x, y) @ M
    tr = float(np.trace(M))
    if tr <= 2.0:
        raise NotSaddle(f"trace of DF^q is {tr:.6f} <= 2 (not a positive saddle)")
    disc = math.sqrt(tr * tr - 4.0)
    lam = (tr + disc) / 2.0
    mu = (tr - disc) / 2.0

    frames = _orbit_frames(tm, orbit)
    inv_frames = np.array([np.linalg.inv(f) for f in frames])
    offsets = np.linspace(-radius, radius, grid)
    ts = np.linspace(-1.0, 1.0, rays)

    # (1) cone invariance with a strict factor
    worst_ratio = 0.0
    for j in range(q):
        B_from = frames[j]
        B_to_inv = inv_frames[(j + 1) % q]
        for dx in offsets:
            for dy in offsets:
                x, y = orbit[j] + (dx, dy)
                A = B_to_inv @ tm.jacobian(x, y) @ B_from
                for t in (-1.0, 1.0):  # extreme cone rays (s, u) = (t, 1)
                    w = A @ np.array([t, 1.0])
                    worst_ratio = max(worst_ratio, abs(w[0]) / abs(w[1]))
    invariance_ok = worst_ratio < 1.0

    # (2)/(3) growth of cone vectors under Df^m and of dual vectors under
    # Df^-m; each sample carries its point and Jacobian product from m - 1
    # to m in both directions
    cones = [[(frames[j] @ np.array([t, 1.0]),     # unstable cone
               frames[j] @ np.array([1.0, t]))     # dual (stable) cone
              for t in ts] for j in range(q)]
    samples = [[j, p, np.eye(2), p, np.eye(2)]
               for j in range(q) for dx in offsets for dy in offsets
               for p in [orbit[j] + (dx, dy)]]
    cone_m = 0
    g_fwd = g_bwd = 0.0
    for m in range(1, m_cap + 1):
        g_fwd = g_bwd = math.inf
        for s in samples:
            j, pf, Af, pb, Ab = s
            x, y = pf
            Af = tm.jacobian(x, y) @ Af
            pf = tm(pf)
            pb = tm.inverse(pb)
            x, y = pb
            Ab = np.linalg.inv(tm.jacobian(x, y)) @ Ab
            s[1:] = pf, Af, pb, Ab
            for vu, vs in cones[j]:
                g_fwd = min(g_fwd, np.linalg.norm(Af @ vu) / np.linalg.norm(vu))
                g_bwd = min(g_bwd, np.linalg.norm(Ab @ vs) / np.linalg.norm(vs))
        if min(g_fwd, g_bwd) > 1.0:
            cone_m = m
            break
    growth_ok = cone_m > 0
    cone_mu = min(g_fwd, g_bwd) if growth_ok else 0.0

    return HyperbolicityReport(
        trace=tr, lam=lam, mu=mu, frames=frames,
        cone_mu=cone_mu, cone_m=cone_m, radius=radius,
        margins={
            "cone_invariance_ratio": worst_ratio,
            "growth_forward": g_fwd,
            "growth_backward": g_bwd,
        },
        passed=(invariance_ok, growth_ok and g_fwd > 1.0, growth_ok and g_bwd > 1.0),
    )


def no_conjugate_points_check(gf: GeneratingFunction, xs) -> tuple[bool, int | None]:
    """Discrete Jacobi test along a configuration segment: the solution of
    the linearized criticality recursion with xi_0 = 0, xi_1 = 1 must not
    vanish (or cross zero) again inside the segment."""
    x = np.asarray(xs, dtype=float)
    if len(x) < 3:
        raise ValueError("segment must have length >= 3")
    # xi_{i+1} has the sign of the i-th leading minor of the Hessian (the
    # bonds have d12 < 0), so xi first fails to be positive where the
    # LDL^T factorization meets its first nonpositive pivot
    diag, off = _segment_hessian(gf, x)
    piv = _ldl_pivots(diag.tolist(), off.tolist())
    if piv[-1] <= 0.0:
        return False, len(piv) + 1
    return True, None


# ---------------------------------------------------------------------------
# Aubry-Mather assemblies
# ---------------------------------------------------------------------------

@dataclass
class AubryMatherApprox:
    points: np.ndarray          # (m, 2) annulus points, x reduced mod 1
    rotation: Fraction
    roles: tuple[str, ...]
    lipschitz: float
    hetero_count_bound: float
    drift: list = field(default_factory=list)  # Hausdorff drift per refinement

    def verify_partial_graph(self, tol: float = 1e-12) -> bool:
        # near-saddle orbit points cluster like mu^(q/2), so the workable
        # tolerance is close to round-off
        xs = self.points[:, 0]
        order = np.argsort(xs)
        gaps = np.diff(xs[order])
        return bool(np.all(gaps > tol))


def _circle_dist(a, b):
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def _lipschitz_constant(points: np.ndarray) -> float:
    m = len(points)
    if m < 2:
        return 0.0
    worst = 0.0
    for i in range(m):
        dx = _circle_dist(points[:, 0], points[i, 0])
        dy = np.abs(points[:, 1] - points[i, 1])
        mask = dx > 1e-12
        if mask.any():
            worst = max(worst, float(np.max(dy[mask] / dx[mask])))
    return worst


def hausdorff_points(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between annulus point sets (circle metric in x)."""
    dx = _circle_dist(a[:, 0:1], b[:, 0].reshape(1, -1))
    dy = a[:, 1:2] - b[:, 1].reshape(1, -1)
    D = np.hypot(dx, dy)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


def assemble_am_set(
    gf: GeneratingFunction,
    p: int,
    q: int,
    branch: str = "plus",
    *,
    window: int | None = None,
    seed: int = 0,
) -> AubryMatherApprox:
    """Maximal Aubry-Mather set at rotation number p/q, desk approximation:
    the minimizing periodic orbit plus a sampled minimizing connection to
    its advanced (plus) or retarded (minus) neighbor translate."""
    if branch not in ("plus", "minus"):
        raise ValueError("branch must be 'plus' or 'minus'")
    tm = TwistMapF(gf.K)
    per = minimize_periodic(gf, p, q, seed=seed)
    orbit = config_orbit(gf, per)
    hyperbolicity_report(tm, orbit)  # raises NotSaddle when inapplicable

    window = window or max(50 * q, 60)
    shift = 1 if branch == "plus" else -1
    target = Configuration(per.x + shift, "periodic", p, q)
    # plus: advancing connection per -> per+1; minus: retreating per -> per-1
    seg = heteroclinic_minimizer(gf, per, target, window)
    seg_orbit = config_orbit(gf, seg)

    pts = [np.column_stack([orbit[:, 0] % 1.0, orbit[:, 1]])]
    roles = ["periodic"] * len(orbit)
    interior = seg_orbit[1:-1]
    keep = []
    for x, y in interior:
        xm = x % 1.0
        if _circle_dist(np.array([xm]), orbit[:, 0] % 1.0).min() > 1e-7:
            keep.append((xm, y))
    if keep:
        pts.append(np.array(keep))
        roles += [f"heteroclinic-{branch}"] * len(keep)
    points = np.vstack(pts)

    lip = _lipschitz_constant(points)
    sep = np.inf
    xs = np.sort(points[:, 0])
    if len(xs) > 1:
        sep = float(np.min(np.diff(xs)))
    return AubryMatherApprox(
        points=points,
        rotation=Fraction(p, q),
        roles=tuple(roles),
        lipschitz=lip,
        hetero_count_bound=(lip + 1.0) / sep if sep > 0 else math.inf,
    )


def irrational_am_set(
    gf: GeneratingFunction,
    omega,
    depth: int,
    seed: int = 0,
    q_cap: int = 200,
) -> AubryMatherApprox:
    """Periodic approximation of the maximal Aubry-Mather set at an
    irrational rotation number: minimizing orbits of the continued-fraction
    convergents, with the Hausdorff drift between successive stages.
    Convergents with denominator above q_cap are dropped (their orbits
    cluster below float resolution near the saddle)."""
    if depth < 3:
        raise ValueError("need at least 3 convergents")
    convs = cf_convergents(omega, depth)
    convs = [(p, q) for p, q in convs
             if 1 <= q <= q_cap and math.gcd(abs(p), q) == 1]
    if not convs:
        raise NoConvergence("no convergent below the denominator cap")
    prev_pts = None
    drift = []
    result = None
    for p, q in convs:
        cfg = minimize_periodic(gf, p, q, seed=seed)
        orbit = config_orbit(gf, cfg)
        pts = np.column_stack([orbit[:, 0] % 1.0, orbit[:, 1]])
        if prev_pts is not None:
            drift.append(hausdorff_points(pts, prev_pts))
        prev_pts = pts
        result = AubryMatherApprox(
            points=pts,
            rotation=Fraction(p, q),
            roles=tuple(["periodic"] * len(pts)),
            lipschitz=_lipschitz_constant(pts),
            hetero_count_bound=math.inf,
        )
    result.drift = drift
    return result
