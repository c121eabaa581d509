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

Action, gradient and Hessian all read one bond layout, the padded array:
the n unknown sites plus one neighbour on each side.  For a periodic
(p,q)-configuration the neighbours are x_{-1} = x_{q-1} - p and
x_q = x_0 + p; for a clamped segment they are its two clamped ends, so
a segment configuration stores its padded array as it is.  The Hessian's
off[i] couples site i with site i + 1; off[-1] is a periodic
configuration's wrap-around bond and is never read for a segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidArgument, NoConvergence, NotSaddle, TailNotSettled
from .exact import convergents as cf_convergents

TWO_PI = 2.0 * math.pi

TOL = 1e-10              # Newton residual max|grad| that counts as converged
STARTS, SEED = 20, 0     # periodic multi-start: starts, seed of the random ones
TAIL_TOL = 1e-6          # largest drift of a segment's ends from its two orbits
STEEPNESS = 0.8          # slope of the sigmoid blend that starts a kink
GRID, RAYS, M_CAP = 5, 9, 20  # cone samples per box side, rays per cone, iterate cap
Q_CAP = 200              # largest convergent denominator in irrational_am_set


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

    def inverse(self, p):
        xp, yp = p
        x = xp - yp
        return np.array([x, yp + self._g(x)])

    def jacobian(self, x, y=0.0):
        """DF at (x, y); for an array of x, one 2x2 matrix per entry."""
        gp = self.K * np.cos(TWO_PI * x)
        jac = np.ones(np.shape(gp) + (2, 2))
        jac[..., 0, 0] = 1.0 - gp
        jac[..., 1, 0] = -gp
        return jac


def standard_family(K: float) -> tuple[GeneratingFunction, TwistMapF]:
    if K < 0:
        raise InvalidArgument("coupling K must be >= 0")
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

    def extended(self, i: int | np.ndarray) -> float | np.ndarray:
        """x_i for an integer index or an array of them (periodic kind only)."""
        if self.kind != "periodic":
            raise InvalidArgument("extension defined for periodic configurations")
        k, r = np.divmod(i, self.q)
        return self.x[r] + k * self.p

    def padded(self) -> np.ndarray:
        """The padded array (see the module docstring)."""
        if self.kind == "periodic":
            return _pad(self.x, self.p)
        return self.x


def _pad(x, p):
    """Padded array of the q sites of a periodic (p,q)-configuration."""
    return np.concatenate([[x[-1] - p], x, [x[0] + p]])


def _bonds(e, cyclic):
    """(left ends, right ends) of the bonds of the padded array e.  With
    cyclic, the bond (x_{-1}, x_0) repeats the wrap-around bond
    (x_{q-1}, x_q) and is left out."""
    return e[cyclic:-1], e[cyclic + 1:]


def action(gf: GeneratingFunction, cfg: Configuration) -> float:
    return float(np.sum(gf.h(*_bonds(cfg.padded(), cfg.kind == "periodic"))))


def segment_action_excess(gf: GeneratingFunction, cfg: Configuration, baseline: float) -> float:
    """Action of a clamped segment with one baseline bond subtracted per
    term, so the value converges as the window grows."""
    return float(np.sum(gf.h(cfg.x[:-1], cfg.x[1:]) - baseline))


def _gradient(gf, e):
    """Gradient of the action in the unknown sites of the padded array e."""
    return gf.d2(e[:-2], e[1:-1]) + gf.d1(e[1:-1], e[2:])


def _hessian(gf, e):
    """(diag, off) of the tridiagonal Hessian in the unknown sites of the
    padded array e; off[i] couples site i with site i + 1."""
    return gf.d22(e[:-2], e[1:-1]) + gf.d11(e[1:-1], e[2:]), gf.d12(e[1:-1], e[2:])


def criticality_residual(gf: GeneratingFunction, cfg: Configuration) -> float:
    return float(np.max(np.abs(_gradient(gf, cfg.padded())), initial=0.0))


def check_well_ordered(cfg: Configuration, b_extra: int = 2) -> bool:
    """Aubry non-crossing of integer translates of a periodic configuration."""
    q, p = cfg.q, cfg.p
    ext = cfg.extended(np.arange(2 * q))
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


def _newton_minimize(gf, pad, x0, max_iter, cyclic):
    """Damped Newton descent on the action of the padded array pad(x),
    over the unknown sites x.  Each step solves (H + tau I) s = -g,
    raising tau until H + tau I is positive definite and the step lowers
    the action (or, leaving it equal, lowers |g|^2); tau shrinks after each
    accepted step, so the iteration turns into full Newton near a
    minimizer.  Once the residual max|g| is within TOL, each iteration
    tries one step only and the descent stops at the first one refused;
    this takes the residual to round-off, which keeps exponentially small
    heteroclinic tails clean.  Returns the padded array of the last
    accepted point, its action and its residual."""
    def evaluate(x):
        e = pad(x)
        return e, float(np.sum(gf.h(*_bonds(e, cyclic)))), _gradient(gf, e)

    e, f, g = evaluate(np.array(x0, dtype=float))
    tau = 0.0
    for _ in range(max_iter):
        diag, off = _hessian(gf, e)
        gg = float(np.dot(g, g))
        for _ in range(1 if np.max(np.abs(g)) <= TOL else 40):
            step = _positive_solve(diag + tau, off, -g, cyclic)
            if step is not None:
                e_new, f_new, g_new = evaluate(e[1:-1] + step)
                if f_new < f or (f_new == f and float(np.dot(g_new, g_new)) < gg):
                    break
            tau = max(10.0 * tau, 1e-8)
        else:
            break
        e, f, g = e_new, f_new, g_new
        tau *= 0.25
    return e, f, float(np.max(np.abs(g)))


def minimize_periodic(
    gf: GeneratingFunction,
    p: int,
    q: int,
    *,
    max_iter: int = 500,
) -> Configuration:
    """Action-minimizing critical (p,q)-configuration from STARTS starts
    (half of them shifted ramps, the rest random with seed SEED), each
    descended until its residual is within TOL; NoConvergence past the
    iteration cap reports the best residual."""
    if q < 1:
        raise InvalidArgument("q must be >= 1")
    if abs(p) >= 2 ** 53:
        raise InvalidArgument("|p| must be below 2^53, where floats hold every integer")
    if math.gcd(abs(p), q) != 1:
        raise InvalidArgument("p/q must be in lowest terms")
    rng = np.random.default_rng(SEED)
    ramps = np.linspace(0.0, 1.0, max(2, STARTS // 2), endpoint=False)
    base = np.arange(q) * (p / q)
    candidates = [s + base for s in ramps]
    for _ in range(STARTS - len(candidates)):
        candidates.append(rng.uniform(0, 1) + base + rng.normal(0, 0.05, size=q))

    best = None
    best_res = math.inf
    confirmations = 0
    for x0 in candidates:
        e, _, res = _newton_minimize(gf, lambda x: _pad(x, p), x0, max_iter, cyclic=True)
        best_res = min(best_res, res)
        if res > TOL:
            continue
        x = e[1:-1]
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
) -> Configuration:
    """Clamped-segment action minimizer running from the left periodic
    orbit to the right one over `window` bonds.  Each kink centering
    starts from a sigmoid blend of slope STEEPNESS and must reach a
    residual within TOL; TailNotSettled when the segment's ends stray
    more than TAIL_TOL from the orbits they connect."""
    if window < 50 * left.q:
        raise InvalidArgument("window must be at least 50 q")
    L = window
    idx = np.arange(-L // 2, L - L // 2 + 1)
    base_l, base_r = left.extended(idx), right.extended(idx)

    def clamped(xi):
        return np.concatenate([[base_l[0]], xi, [base_r[-1]]])

    # Both kink centerings are critical (site-centered is the
    # Peierls-Nabarro saddle); keep the one with the smaller action.
    best = None
    for offset in (0.5, 0.0, 0.25):
        blend = 1.0 / (1.0 + np.exp(-STEEPNESS * (idx - idx.mean() - offset)))
        x0 = base_l + (base_r - base_l) * blend
        x, w, res = _newton_minimize(gf, clamped, x0[1:-1], 400, cyclic=False)
        if res > TOL:
            continue
        diag, off = _hessian(gf, x)
        if _ldl_pivots((diag + 1e-10).tolist(), off.tolist())[-1] <= 0.0:
            continue  # lowest eigenvalue below -1e-10: a saddle, not a minimizer
        if best is None or w < best[0] - 1e-14:
            best = (w, x, res)
    if best is None:
        raise NoConvergence("heteroclinic segment did not converge",
                            residual=math.inf)
    x = best[1]
    # the first and last q+1 sites must sit on the orbits they connect
    m = left.q + 1
    edge = max(np.max(np.abs(x[:m] - base_l[:m])), np.max(np.abs(x[-m:] - base_r[-m:])))
    if edge > TAIL_TOL:
        raise TailNotSettled(f"window edge residual {edge:.2e} exceeds {TAIL_TOL:.0e}")
    return Configuration(x, "segment", right.p - left.p, left.q)


def is_monotone(cfg: Configuration) -> bool:
    """Monotonicity of a segment up to clamp artifacts: the hard endpoint
    clamp produces reflected-tail dips below 1e-10 for windows >= 50 q,
    which the tolerance absorbs."""
    tol = 1e-9
    d = np.diff(cfg.x)
    return bool(np.all(d > -tol)) if d[len(d) // 2] > 0 else bool(np.all(d < tol))


# ---------------------------------------------------------------------------
# orbits from configurations
# ---------------------------------------------------------------------------

def config_orbit(gf: GeneratingFunction, cfg: Configuration) -> np.ndarray:
    """Cover orbit points (x_i, y_i) with y_i = -d1 h(x_i, x_{i+1})."""
    x, xp = _bonds(cfg.padded(), cfg.kind == "periodic")
    return np.column_stack([x, -gf.d1(x, xp)])


def is_orbit(tm: TwistMapF, pts: np.ndarray, wrap: int = 0) -> bool:
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
) -> HyperbolicityReport:
    """Saddle eigen-data plus sampled cone-condition checks on a square
    neighborhood of each orbit point, a GRID x GRID grid with RAYS rays per
    cone and cone growth tried up to M_CAP iterates.  The cone field is the
    eigenframe of the cycled Jacobian, extended constantly near each point;
    condition margins are the worst values seen on the grid."""
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
    # the GRID x GRID samples around each orbit point, as columns (x, y);
    # owner[s] is the orbit index of sample s
    offsets = np.linspace(-radius, radius, GRID)
    grid = np.stack(np.meshgrid(offsets, offsets, indexing="ij"), -1).reshape(-1, 2)
    pts = (orbit[:, None, :] + grid).reshape(-1, 2).T
    owner = np.repeat(np.arange(q), GRID * GRID)

    # (1) cone invariance with a strict factor, on the extreme cone rays
    # (s, u) = (+-1, 1)
    to_inv = np.linalg.inv(frames)[(owner + 1) % q]
    w = to_inv @ tm.jacobian(pts[0]) @ frames[owner] @ np.array([[-1.0, 1.0], [1.0, 1.0]])
    worst_ratio = float(np.max(np.abs(w[:, 0]) / np.abs(w[:, 1])))
    invariance_ok = worst_ratio < 1.0

    # (2)/(3) growth of the cone rays (t, 1) under Df^m and of the dual rays
    # (1, t) under Df^-m; every sample carries its point and its Jacobian
    # product from m - 1 to m in both directions, and each iterate norms
    # all rays of all samples at once
    rays = np.stack([np.linspace(-1.0, 1.0, RAYS), np.ones(RAYS)])
    cones = np.stack([frames @ rays, frames @ rays[::-1]])[:, owner]   # (2, S, 2, RAYS)
    cone_norms = np.linalg.norm(cones, axis=2)
    pf = pb = pts
    Af = Ab = np.eye(2)
    cone_m = 0
    g_fwd = g_bwd = 0.0
    for m in range(1, M_CAP + 1):
        Af = tm.jacobian(pf[0]) @ Af
        pf = tm(pf)
        pb = tm.inverse(pb)
        Ab = np.linalg.inv(tm.jacobian(pb[0])) @ Ab
        grow = np.linalg.norm(np.stack([Af, Ab]) @ cones, axis=2) / cone_norms
        g_fwd, g_bwd = grow.min(axis=(1, 2)).tolist()
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
        raise InvalidArgument("segment must have length >= 3")
    # xi_{i+1} has the sign of the i-th leading minor of the Hessian (the
    # bonds have d12 < 0), so xi first fails to be positive where the
    # LDL^T factorization meets its first nonpositive pivot
    diag, off = _hessian(gf, x)
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

    def verify_partial_graph(self) -> bool:
        # near-saddle orbit points cluster like mu^(q/2), so the workable
        # tolerance is close to round-off
        xs = self.points[:, 0]
        order = np.argsort(xs)
        gaps = np.diff(xs[order])
        return bool(np.all(gaps > 1e-12))


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
) -> AubryMatherApprox:
    """Maximal Aubry-Mather set at rotation number p/q, desk approximation:
    the minimizing periodic orbit plus a sampled minimizing connection to
    its advanced (plus) or retarded (minus) neighbor translate."""
    if branch not in ("plus", "minus"):
        raise InvalidArgument("branch must be 'plus' or 'minus'")
    tm = TwistMapF(gf.K)
    per = minimize_periodic(gf, p, q)
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
) -> AubryMatherApprox:
    """Periodic approximation of the maximal Aubry-Mather set at an
    irrational rotation number: minimizing orbits of the continued-fraction
    convergents, with the Hausdorff drift between successive stages.
    Convergents with denominator above Q_CAP are dropped (their orbits
    cluster below float resolution near the saddle)."""
    if depth < 3:
        raise InvalidArgument("need at least 3 convergents")
    convs = cf_convergents(omega, depth)
    convs = [(p, q) for p, q in convs
             if 1 <= q <= Q_CAP and math.gcd(abs(p), q) == 1]
    if not convs:
        raise NoConvergence("no convergent below the denominator cap")
    prev_pts = None
    drift = []
    result = None
    for p, q in convs:
        cfg = minimize_periodic(gf, p, q)
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
