"""Frenkel-Kontorova variational engine for exact symplectic twist maps.

The concrete family is the standard (Chirikov) one,

    h(x, x') = (x' - x)^2 / 2 + (K / 4 pi^2) cos(2 pi x),

with the momentum convention y = -d1 h(x, x'), y' = d2 h(x, x').  Its
annulus map has fixed points at (0, 0) (elliptic for 0 < K < 4) and
(1/2, 0) (a positive-eigenvalue saddle for every K > 0), so the
rotation-number-zero scenarios need no parameter hunting.  Orbits are
critical configurations of the action sum.  Their Hessians are
tridiagonal (cyclic for periodic configurations), with diagonal
2 - K cos(2 pi x_i) and -1 off it; `_evaluate` writes the action, the
gradient and that diagonal out once, for every reader.  One LDL^T
factorization, `_ldl`, serves every use of the Hessian: a single pass
keeps the pivots d_i and the multipliers l_i = -1 / d_i and stops at the
first nonpositive pivot.  That pivot refuses a damped Newton step and
fails the saddle test; otherwise both substitutions read the stored
multipliers, so a solve divides by each pivot once.  Minimizers are
found by damped Newton descent on the action from symmetric starts (the
potential is even): two ramps for periodic orbits and two kink
centerings for heteroclinic segments, the first that passes returned, a
kink once its last Newton step has settled.  A kink is descended on a
central core sized from the saddle multiplier of its orbits, so that its
tails have decayed below float64 rounding at the clamps, and judged once
on the full window, padded with the orbit values (see
`heteroclinic_minimizer`).  Each descent computes cos 2 pi x and
sin 2 pi x once per trial point, with a bound on the rounding of the
action sum; a step whose action change lies within that bound is judged
by the residual instead (see `_newton_minimize`).

Action, gradient and Hessian all read one bond layout, the padded array:
the n unknown sites plus one neighbour on each side.  For a periodic
(p,q)-configuration the neighbours are x_{-1} = x_{q-1} - p and
x_q = x_0 + p, and the wrap-around bond couples its last site with its
first; for a clamped segment they are its two clamped ends, so a segment
configuration stores its padded array as it is.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidArgument, NoConvergence, NotSaddle, TailNotSettled
from .exact import convergents as cf_convergents

TWO_PI = 2.0 * math.pi

TOL = 1e-10              # Newton residual max|grad| that counts as converged
NEGATIVE_CURVATURE = 1e-8  # Hessian eigenvalue at or below minus this: not a minimizer
SADDLE_CURVATURE = 1e-10  # segment Hessian eigenvalue at or below minus this: a saddle
B_EXTRA = 2              # well-ordering: translates by |b| <= |p| + B_EXTRA
TAIL_TOL = 1e-6          # largest drift of a segment's ends from its two orbits
STEEPNESS = 0.8          # slope of the sigmoid blend that starts a kink
GRID, RAYS, M_CAP = 5, 9, 20  # cone samples per box side, rays per cone, iterate cap
BOX = 0.02               # half-side of the sampled box around each orbit point
Q_CAP = 200              # largest convergent denominator in irrational_am_set
WINDOW_CAP = 2 ** 20     # largest window of heteroclinic_minimizer, in bonds

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# the standard family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingFunction:
    """h of the module docstring at coupling K (see `_evaluate`); twist: d12 h = -1 < 0."""

    K: float


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

    def jacobian(self, x):
        """DF at (x, y), which depends on x alone; for an array of x, one
        2x2 matrix per entry."""
        gp = self.K * np.cos(TWO_PI * x)
        jac = np.ones(np.shape(gp) + (2, 2))
        jac[..., 0, 0] = 1.0 - gp
        jac[..., 1, 0] = -gp
        return jac


def standard_family(K: float) -> tuple[GeneratingFunction, TwistMapF]:
    if not math.isfinite(K):
        raise InvalidArgument(f"coupling K must be finite, got {K!r}")
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


def _evaluate(gf, e, cyclic):
    """Action, gradient and Hessian diagonal in the unknown sites of the
    padded array e (with cyclic, of a periodic configuration), from one
    cos pass over the bonds' left ends and one sin pass over the unknown
    sites; then a bound on the rounding error of the action's pairwise sum
    over its n bond terms h_i, ceil(log2 n) 2^-53 sum |h_i|.  Each bond
    (x, x') adds d2 h = x' - x to the gradient in x',
    d1 h = -(x' - x) - (K / 2 pi) sin 2 pi x to that in x, and
    d22 h + d11 h = 1 + (1 - K cos 2 pi x) to the diagonal."""
    t = TWO_PI * e[:-1]
    cos, sin = np.cos(t), np.sin(t[1:])
    x, xp = _bonds(e, cyclic)
    h = 0.5 * (xp - x) ** 2 + gf.K / (4 * math.pi ** 2) * cos[cyclic:]
    g = (e[1:-1] - e[:-2]) + (-(e[2:] - e[1:-1]) - gf.K / TWO_PI * sin)
    noise = (h.size - 1).bit_length() * 2.0 ** -53 * float(np.sum(np.abs(h)))
    return float(np.sum(h)), g, 1.0 + (1.0 - gf.K * cos[1:]), noise


def action(gf: GeneratingFunction, cfg: Configuration) -> float:
    return _evaluate(gf, cfg.padded(), cfg.kind == "periodic")[0]


def criticality_residual(gf: GeneratingFunction, cfg: Configuration) -> float:
    g = _evaluate(gf, cfg.padded(), cfg.kind == "periodic")[1]
    return float(np.max(np.abs(g), initial=0.0))


def check_well_ordered(cfg: Configuration) -> bool:
    """Aubry non-crossing of integer translates of a periodic configuration.

    The translate (a, b), 0 <= a < q and |b| <= |p| + B_EXTRA, crosses the
    configuration when x_{i+a} + b - x_i exceeds 1e-12 at some i and falls
    below -1e-12 at another.  Row a of the (q, q) table x_{i+a} - x_i holds
    the differences of every b at once, so one row max and one row min per
    shift a decide all of them, in O(q^2) time whatever p is.
    With hi and lo the row's max and min, hi + b > 1e-12 holds from the
    smallest such b on and lo + b < -1e-12 up to the largest such b, so
    the row crosses for some b in range iff the second holds at the first
    b in range where the first does.  The row a = 0 is exactly 0, so the
    configuration itself never crosses.  The rows come in blocks of
    max(1, 2^20 // q) shifts, so a table holds about 2^20 entries at any
    q (one block for q <= 1024), and the first block with a crossing ends
    the scan.

    b is added after the reduction, (x_{i+a} - x_i) + b, where a translate
    loop forms (x_{i+a} + b) - x_i.  For b = 0 the two are equal; otherwise
    they differ by a few ulps of |x| + |b|, about 1e-14 for the sites and
    shifts met here.  So the verdict can change only for a translate whose
    largest or smallest difference lies within that distance of +-1e-12:
    one that touches the configuration at the margin, where rounding
    decides either way."""
    q, p = cfg.q, cfg.p
    ext = cfg.extended(np.arange(2 * q))
    top = float(abs(p) + B_EXTRA)
    rows = max(1, 2 ** 20 // q)
    for a in range(0, q, rows):
        d = ext[np.add.outer(np.arange(a, min(a + rows, q)), np.arange(q))] - ext[:q]
        hi, lo = d.max(axis=1), d.min(axis=1)
        # the smallest integer b with hi + b > 1e-12: the ceiling of 1e-12 - hi,
        # or one more where hi + b lands on 1e-12 or rounds to it
        b = np.ceil(1e-12 - hi)
        b = np.where(hi + b > 1e-12, b, b + 1.0)
        b = np.maximum(b, -top)
        if np.any((b <= top) & (lo + b < -1e-12)):
            return False
    return True


def _ldl(diag) -> tuple[list[float], list[float]]:
    """Pivots d_i and multipliers l_i = -1 / d_i of the LDL^T
    factorization of the symmetric tridiagonal matrix with diagonal `diag`
    (a list, len(diag) >= 1) and every off-diagonal entry -1, up to and
    including the first nonpositive pivot.  By Sylvester's law of inertia
    the matrix is positive definite iff all len(diag) pivots come out
    positive."""
    d = diag[0]
    piv, mult = [d], []
    if d <= 0.0:
        return piv, mult
    for a in diag[1:]:
        mult.append(-1.0 / d)
        d = a - 1.0 / d
        piv.append(d)
        if d <= 0.0:
            break
    return piv, mult


def _substitute(piv, mult, rhs) -> list[float]:
    """Solve L D L^T x = rhs, given the factors from _ldl."""
    rs = iter(rhs)
    y = next(rs)
    ys = [y]
    for r, l in zip(rs, mult):      # L y = rhs, top down
        y = r - l * y
        ys.append(y)
    ys, ds = reversed(ys), reversed(piv)
    x = next(ys) / next(ds)
    xs = [x]
    for a, d, l in zip(ys, ds, reversed(mult)):     # L^T x = D^-1 y, bottom up
        x = a / d - l * x
        xs.append(x)
    xs.reverse()
    return xs


def _factor(diag, cyclic: bool):
    """(piv, mult, border), or None when the symmetric tridiagonal H with
    the list diag on its diagonal and -1 off it is not positive definite.
    With cyclic, a -1 also couples the last site with the first,
    H = [[T, u], [u^T, c]], (piv, mult) are the `_ldl` factors of T, and H
    is positive definite iff T is and s = c - u^T T^-1 u > 0; border is
    (u, T^-1 u, s).  Else they factor H and border is None, as for q = 1,
    where H is the number diag[0] - 2.  For q = 2 both wrap-around bonds
    fall on u."""
    if cyclic and len(diag) == 1:
        diag, cyclic = [diag[0] - 2.0], False
    if cyclic:
        c, diag = diag[-1], diag[:-1]
        u = [0.0] * len(diag)
        u[0] -= 1.0
        u[-1] -= 1.0
    piv, mult = _ldl(diag)
    if piv[-1] <= 0.0:
        return None
    if not cyclic:
        return piv, mult, None
    z = _substitute(piv, mult, u)
    schur = c - sum(a * b for a, b in zip(u, z))
    return None if schur <= 0.0 else (piv, mult, (u, z, schur))


def _positive_solve(diag, rhs, cyclic: bool):
    """H^-1 rhs as an array (rhs a list, H as in `_factor`); None if H is not positive definite."""
    factors = _factor(diag, cyclic)
    if factors is None:
        return None
    piv, mult, border = factors
    y = _substitute(piv, mult, rhs)     # reads rhs[:len(piv)]
    if border is None:
        return np.array(y)
    u, z, schur = border
    t = (rhs[-1] - sum(a * b for a, b in zip(u, y))) / schur
    return np.array([a - b * t for a, b in zip(y, z)] + [t])


def _newton_minimize(gf, pad, x0, max_iter, cyclic):
    """Damped Newton descent on the action of the padded array pad(x),
    over the unknown sites x.  Each step solves (H + tau I) s = -g,
    raising tau until H + tau I is positive definite and the step is
    accepted; tau shrinks after each accepted step, so the iteration turns
    into full Newton near a minimizer.  A step is accepted when it lowers
    the action by more than the rounding bounds of the two action sums
    (see `_evaluate`) together.  A change within those bounds is rounding
    noise, and the step is accepted only if it lowers |g|^2 (the
    approximate-Wolfe idea of Hager & Zhang, SIAM J. Optim. 16, 2005).
    Near a minimizer a step changes the action by about |g|^2, far below
    the rounding of the sum, so there the residual decides.  Once the
    residual max|g| is within TOL, each iteration tries one step only and
    the descent stops at the first one refused; this takes the residual
    to round-off, which keeps exponentially small heteroclinic tails
    clean.  Returns the padded array of the last point, its action, its
    residual, the descent steps accepted, the factorizations refused and
    the reach max|s| of the last step s solved for (inf if none).  A DEBUG
    record also gives the steps rejected as uphill and the largest tau."""
    def evaluate(x):
        e = pad(x)
        return (e, *_evaluate(gf, e, cyclic))

    e, f, g, diag, noise = evaluate(np.array(x0, dtype=float))
    tau, max_tau, reach = 0.0, 0.0, math.inf
    steps = refused = uphill = 0
    for _ in range(max_iter):
        rhs = (-g).tolist()
        gg = float(np.dot(g, g))
        for _ in range(1 if np.max(np.abs(g)) <= TOL else 40):
            max_tau = max(max_tau, tau)
            step = _positive_solve((diag + tau).tolist(), rhs, cyclic)
            if step is None:
                refused += 1
            else:
                reach = float(np.max(np.abs(step)))
                e_new, f_new, g_new, diag_new, noise_new = evaluate(e[1:-1] + step)
                rise, band = f_new - f, noise + noise_new
                if rise < -band or (rise <= band and float(np.dot(g_new, g_new)) < gg):
                    break
                uphill += 1
            tau = max(10.0 * tau, 1e-8)
        else:
            break
        e, f, g, diag, noise = e_new, f_new, g_new, diag_new, noise_new
        steps += 1
        tau *= 0.25
    res = float(np.max(np.abs(g)))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("newton sites=%(sites)d cyclic=%(cyclic)d steps=%(steps)d "
                   "refused=%(refused)d uphill=%(uphill)d max_tau=%(max_tau).3e "
                   "residual=%(residual).3e reach=%(reach).3e",
                   {"sites": len(g), "cyclic": cyclic, "steps": steps, "refused": refused,
                    "uphill": uphill, "max_tau": max_tau, "residual": res, "reach": reach})
    return e, f, res, steps, refused, reach


def _clearly_indefinite(gf, e, shift, cyclic) -> bool:
    """Whether the Hessian H at the padded array e has an eigenvalue at or
    below -shift, i.e. H + shift I is refused too; with cyclic, H is that
    of a periodic configuration."""
    return _factor((_evaluate(gf, e, cyclic)[2] + shift).tolist(), cyclic) is None


def minimize_periodic(gf: GeneratingFunction, p: int, q: int) -> Configuration:
    """Action-minimizing critical (p,q)-configuration.  The potential of
    `standard_family`, the only family, is even with its maximum at the
    integers, and a descent from a symmetric start stays symmetric: the
    ramp x_i = i p/q + 1/(2q), clear of the maximum, reaches the symmetric
    minimizer and x_i = i p/q the minimax (Greene, J. Math. Phys. 20,
    1979).  They get one 500-iteration `_newton_minimize` descent each, in
    that order, and the first result within TOL, with no Hessian
    eigenvalue at or below -NEGATIVE_CURVATURE (a singular one, as at
    K = 0, passes) and well ordered is returned; at K = 7 the (13,28)
    descent from the first is not.  Else NoConvergence with the best
    residual.  A DEBUG record gives the starts descended and the offset
    returned (None when there is none)."""
    if q < 1:
        raise InvalidArgument("q must be >= 1")
    if abs(p) >= 2 ** 53:
        raise InvalidArgument("|p| must be below 2^53, where floats hold every integer")
    if math.gcd(abs(p), q) != 1:
        raise InvalidArgument("p/q must be in lowest terms")
    base = np.arange(q) * (p / q)
    best_res = math.inf
    for starts, c in enumerate((0.5 / q, 0.0), 1):
        e, _, res, *_ = _newton_minimize(gf, lambda x: _pad(x, p), base + c, 500, cyclic=True)
        best_res = min(best_res, res)
        if res > TOL or _clearly_indefinite(gf, e, NEGATIVE_CURVATURE, cyclic=True):
            continue
        cfg = Configuration(e[1:-1] - math.floor(e[1]), "periodic", p, q)
        if check_well_ordered(cfg):
            break
    else:
        c = None    # no start passed
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("minimize_periodic p=%(p)d q=%(q)d starts=%(starts)d offset=%(offset)s",
                   {"p": p, "q": q, "starts": starts, "offset": c})
    if c is None:
        raise NoConvergence(f"no well-ordered critical ({p},{q}) configuration found",
                            residual=best_res)
    cfg.well_ordered = True
    return cfg


def _neighbour(per: Configuration, s: int) -> np.ndarray:
    """The sites of the translate x_{i+a} + b of the periodic (p,q)-
    configuration per with a p + b q = s, 0 <= a < q; p/q in lowest terms."""
    p, q, x = per.p, per.q, per.x
    a = s * pow(p, -1, q) % q
    return np.concatenate([x[a:], x[:a] + p]) + (s - a * p) // q


def _approach_rate(tr: float, q: int) -> float:
    """ln lam / q, the rate per site at which a minimal heteroclinic
    approaches a (p,q) orbit whose DF^q has trace tr = lam + 1/lam
    (Aubry & Le Daeron, Physica D 8, 1983); 0 when tr <= 2, where the
    orbit is not a saddle and the approach is not geometric, and inf when
    DF^q left the float range (tr inf or nan)."""
    if not math.isfinite(tr):
        return math.inf
    return math.acosh(tr / 2.0) / q if tr > 2.0 else 0.0


def _core_bonds(rate: float, q: int, n: int) -> int:
    """Bonds C of the central core that a kink over n bonds descends:
    ceil(2 ln(2^53) / rate), so that an approach at `rate` per site
    decays by 2^53, the float64 rounding unit, from the middle to either
    clamp; at least 50 q and at most n, and rounded up to n's parity, so
    that the core sits centred in the window.  A rate of 0 gives n."""
    span = 2.0 * 53.0 * math.log(2.0)
    c = n if rate * n <= span else max(50 * q, math.ceil(span / rate))
    return min(n, c + (n - c) % 2)


def heteroclinic_minimizer(
    gf: GeneratingFunction,
    left: Configuration,
    right: Configuration,
    window: int,
) -> Configuration:
    """Clamped-segment action minimizer running from the left periodic
    orbit to the right one over `window` bonds; TailNotSettled when its
    ends stray more than TAIL_TOL from the orbits they connect.  Each kink
    centering starts from a sigmoid blend of slope STEEPNESS centred on
    the bond (0,1) and then on site 0 (offsets 0.5 and 0); the sites run
    from -(L//2) to L - L//2, so that bond is the middle one of an odd
    window and that site the middle one of an even window.  The potential
    is even, so a descent from a symmetric start stays symmetric up to the
    clamped ends: for (0,1) the bond-centred start reaches the minimizer
    and the site-centred one the Peierls-Nabarro saddle.

    A centering passes when its residual is within TOL and its Hessian has
    no eigenvalue at or below -SADDLE_CURVATURE; it has settled when its
    reach, the largest entry of its last Newton step, is within TAIL_TOL
    too.  The first settled one is returned, else the passing one with the
    shortest reach, the nearest to its critical point.  A descent can stop
    within TOL on the soft mode that moves the kink: at (7,10), K = 0.8,
    window 500, its eigenvalue is 1.1e-7, and offset 0.5 stops with reach
    2.5e-5 while offset 0 settles.  In `scripts/kink_survey.py`, 657 of the
    709 calls with a passing centering descend one only; in 5 of the 612
    returns none settles.  At K = 1, 2, 3, p/q = 1/2, 1/3, 2/5, the kinks of
    `assemble_am_set` have the least action of 16 q offsets within 1e-12.

    A minimal heteroclinic approaches its two orbits geometrically away
    from the kink (Aubry & Le Daeron, Physica D 8, 1983; Bangert, Dynamics
    Reported 1, 1988), by lam^(1/q) per site, where lam + 1/lam is the
    trace of DF^q along the left orbit: 2 + K for (0,1), so lam is about
    2.26 at K = 0.7.  So each centering descends only a central core of C
    bonds, clamped to the same orbit values, where C is the width over
    which that approach decays by 2^53, the float64 rounding unit, from
    the middle to either clamp (`_core_bonds`): C = ceil(2 ln(2^53) q /
    ln lam), at least 50 q and at most the window, rounded up to the
    window's parity so that the core stays centred.  For (0,1) that is 91,
    79 and 71 bonds at K = 0.7, 0.95 and 1.2 before the rounding.  A trace
    of at most 2 (K = 0, no saddle) makes C the window, and one whose DF^q
    overflows gives 50 q.  The core, padded with the orbit values, is then
    judged once on the full window, with the core's reach: a kink too wide
    for its core leaves it above TOL at the clamps, and since the core's
    Hessian is a principal submatrix of the window's, Cauchy interlacing
    makes every core saddle a saddle of the window.

    The right endpoint must be a neighbouring translate of the left periodic
    configuration, x_{i+a} + b with a p + b q = +-1 within 1e-12 (see
    `assemble_am_set`; a farther translate is a chain of kinks), and the
    window an integer from 50 q to WINDOW_CAP, else InvalidArgument.  A
    DEBUG record gives the core size C, the approach rate ln lam / q per
    site, the offset returned, the centerings descended, how many ended on
    a saddle, the reach returned and the edge residual.  It is written
    also when no centering passes, with offset None and reach and edge
    nan, before NoConvergence, which carries the smallest full-window
    residual any centering reached; its message says so when every
    centering converged, each to a saddle."""
    p, q = left.p, left.q
    if not (left.kind == right.kind == "periodic" and (p, q) == (right.p, right.q) and q >= 1
            and math.gcd(abs(p), q) == 1 and np.shape(left.x) == np.shape(right.x) == (q,)
            and any(np.abs(right.x - _neighbour(left, s)).max() <= 1e-12 for s in (1, -1))):
        raise InvalidArgument("the endpoints must be a periodic (p,q)-configuration and its "
                              "neighbouring translate x_{i+a} + b, a p + b q = +-1")
    if not isinstance(window, numbers.Integral) or not 50 * q <= window <= WINDOW_CAP:
        raise InvalidArgument(f"window must be an integer from 50 q to WINDOW_CAP = "
                              f"{WINDOW_CAP} bonds, got {window!r}")
    L = window
    idx = np.arange(-(L // 2), L - L // 2 + 1)
    base_l, base_r = left.extended(idx), right.extended(idx)
    n = len(idx) - 1            # bonds of the padded array
    rate = _approach_rate(_monodromy(TwistMapF(gf.K), left.x)[0], q)
    C = _core_bonds(rate, q, n)
    a, b = (n - C) // 2, (n + C) // 2       # first and last sites of the core's padded array

    def core(xi):
        return np.concatenate([[base_l[a]], xi, [base_r[b]]])

    best = None     # (reach, sites, offset) of the passing centering with the shortest reach
    best_res = math.inf
    saddles = 0
    for centerings, offset in enumerate((0.5, 0.0), 1):
        with np.errstate(over="ignore"):   # from 1780 bonds on; 1 / (1 + inf) = 0 is the limit
            blend = 1.0 / (1.0 + np.exp(-STEEPNESS * (idx - offset)))
        x = base_l + (base_r - base_l) * blend
        e, *_, reach = _newton_minimize(gf, core, x[a + 1:b], 400, cyclic=False)
        x = np.concatenate([base_l[:a], e, base_r[b + 1:]])
        res = criticality_residual(gf, Configuration(x, "segment"))
        best_res = min(best_res, res)
        if res > TOL:
            continue
        if _clearly_indefinite(gf, x, SADDLE_CURVATURE, cyclic=False):
            saddles += 1
            continue
        if best is None or reach < best[0]:
            best = (reach, x, offset)
        if reach <= TAIL_TOL:
            break       # settled
    reach, x, offset = best or (math.nan, None, None)
    m = q + 1       # the first and last q+1 sites, against the orbits they connect
    tail = math.nan if x is None else max(np.max(np.abs(x[:m] - base_l[:m])),
                                          np.max(np.abs(x[-m:] - base_r[-m:])))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("heteroclinic_minimizer window=%(window)d core=%(core)d rate=%(rate).3e "
                   "offset=%(offset)s centerings=%(centerings)d saddles=%(saddles)d "
                   "reach=%(reach).3e edge=%(edge).3e",
                   {"window": window, "core": C, "rate": rate, "offset": offset,
                    "centerings": centerings, "saddles": saddles, "reach": reach,
                    "edge": tail})
    if best is None:
        raise NoConvergence("every kink centering converged to a saddle" if saddles == centerings
                            else "heteroclinic segment did not converge", residual=best_res)
    if tail > TAIL_TOL:
        raise TailNotSettled(f"window edge residual {tail:.2e} exceeds {TAIL_TOL:.0e}")
    return Configuration(x, "segment", right.p - p, q)


# ---------------------------------------------------------------------------
# orbits from configurations
# ---------------------------------------------------------------------------

def config_orbit(gf: GeneratingFunction, cfg: Configuration) -> np.ndarray:
    """Cover orbit points (x_i, y_i) with y_i = -d1 h(x_i, x_{i+1}),
    that is (x_{i+1} - x_i) + g(x_i) with g as in `TwistMapF`."""
    x, xp = _bonds(cfg.padded(), cfg.kind == "periodic")
    return np.column_stack([x, (xp - x) + TwistMapF(gf.K)._g(x)])


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
    margins: dict
    passed: tuple[bool, bool, bool]

    @property
    def is_saddle(self) -> bool:
        return all(self.passed)


def _orbit_frames(tm: TwistMapF, orbit: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Per-point [stable, unstable] unit eigenvectors of the cycled Jacobian
    product, up to sign: those of M = DF^q at the first point, the unstable
    one carried forward by DF, the stable one backward by DF^-1."""
    q = len(orbit)
    evals, evecs = np.linalg.eig(M)
    vs, vu = np.real(evecs[:, np.argsort(np.real(evals))]).T    # [mu, lam]
    jac = tm.jacobian(orbit[:, 0])
    inv = np.linalg.inv(jac)
    frames = np.empty((q, 2, 2))
    for j in range(q):
        frames[j, :, 1] = vu = vu / np.linalg.norm(vu)
        vu = jac[j] @ vu
    for j in range(q, 0, -1):
        frames[j % q, :, 0] = vs = vs / np.linalg.norm(vs)
        vs = inv[j - 1] @ vs
    return frames


def _monodromy(tm: TwistMapF, xs) -> tuple[float, np.ndarray]:
    """Trace of M = DF^q along the orbit through the sites xs (DF depends
    on x alone), and M; entries that leave the float range are inf or nan,
    and so may the trace be."""
    M = np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in xs:
            M = tm.jacobian(x) @ M
        return float(np.trace(M)), M


def _saddle_trace(tm: TwistMapF, orbit: np.ndarray) -> tuple[float, np.ndarray]:
    """Trace of M = DF^q along the finite (q, 2) orbit, and M; NotSaddle
    unless it is > 2, InvalidArgument when M leaves the float range."""
    if not np.all(np.isfinite(orbit)):
        raise InvalidArgument("orbit points must be finite")
    tr, M = _monodromy(tm, orbit[:, 0])
    if not np.all(np.isfinite(M)):
        raise InvalidArgument(f"DF^q along the {len(orbit)}-point orbit overflows")
    if not tr > 2.0:
        raise NotSaddle(f"trace of DF^q is {tr:.6f} <= 2 (not a positive saddle)")
    return tr, M


def hyperbolicity_report(tm: TwistMapF, orbit: np.ndarray) -> HyperbolicityReport:
    """Saddle eigen-data plus sampled cone-condition checks on the square
    of half-side BOX around each orbit point, a GRID x GRID grid with RAYS
    rays per cone and cone growth tried up to M_CAP iterates.  The cone
    field is the eigenframe of the cycled Jacobian, extended constantly
    near each point; condition margins are the worst values seen on the
    grid.  A DEBUG record on this module's logger gives q, the trace,
    cone_m, the three margins and which of the three conditions passed."""
    orbit = np.atleast_2d(np.asarray(orbit, dtype=float))
    q = len(orbit)
    tr, M = _saddle_trace(tm, orbit)
    # tr^2 - 4 as a product, so that no square overflows; mu = 1 / lam
    # (det M = 1), where tr - disc would cancel
    disc = math.sqrt(tr - 2.0) * math.sqrt(tr + 2.0)
    lam = tr / 2.0 + disc / 2.0
    mu = 1.0 / lam

    frames = _orbit_frames(tm, orbit, M)
    # the GRID x GRID samples around each orbit point, as columns (x, y);
    # owner[s] is the orbit index of sample s
    offsets = np.linspace(-BOX, BOX, GRID)
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
    passed = (invariance_ok, growth_ok and g_fwd > 1.0, growth_ok and g_bwd > 1.0)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("hyperbolicity_report q=%(q)d trace=%(trace).6e cone_m=%(cone_m)d "
                   "cone_invariance_ratio=%(cone_invariance_ratio).3e "
                   "growth_forward=%(growth_forward).3e growth_backward=%(growth_backward).3e "
                   "passed=%(passed_invariance)d,%(passed_forward)d,%(passed_backward)d",
                   {"q": q, "trace": tr, "cone_m": cone_m, "cone_invariance_ratio": worst_ratio,
                    "growth_forward": g_fwd, "growth_backward": g_bwd,
                    "passed_invariance": passed[0], "passed_forward": passed[1],
                    "passed_backward": passed[2]})

    return HyperbolicityReport(
        trace=tr, lam=lam, mu=mu, frames=frames,
        cone_mu=cone_mu, cone_m=cone_m,
        margins={
            "cone_invariance_ratio": worst_ratio,
            "growth_forward": g_fwd,
            "growth_backward": g_bwd,
        },
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Aubry-Mather assemblies
# ---------------------------------------------------------------------------

@dataclass
class AubryMatherApprox:
    points: np.ndarray          # (m, 2) annulus points, x reduced mod 1
    rotation: Fraction
    roles: tuple[str, ...]
    lipschitz: float
    drift: list = field(default_factory=list)  # Hausdorff drift per refinement


def _circle_dist(a, b):
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def _lipschitz_constant(points: np.ndarray) -> float:
    """Largest |dy| / dx over the pairs of points more than 1e-12 apart in
    the circle metric of x; 0 when there is no such pair.  The rows of
    the m x m table of pairs come in blocks of max(1, 2^20 // m) points,
    so a block holds about 2^20 pairs at any m."""
    x, y = points[:, 0], points[:, 1]
    rows = max(1, 2 ** 20 // max(len(x), 1))
    worst = 0.0
    for a in range(0, len(x), rows):
        dx = _circle_dist(x, x[a:a + rows, None])
        dy = np.abs(y - y[a:a + rows, None])
        worst = max(worst, float(np.max(np.divide(dy, dx, out=np.zeros_like(dy),
                                                  where=dx > 1e-12), initial=0.0)))
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
) -> AubryMatherApprox:
    """Maximal Aubry-Mather set at rotation number p/q, desk approximation:
    the minimizing periodic orbit plus a sampled minimizing connection,
    over max(50 q, 60) bonds, to its advanced (plus) or retarded (minus)
    neighbor translate.  That is x_{i+a} + b with a p + b q = 1 (plus) or
    -1 (minus), which lies 1/q above or below the orbit: no other
    translate lies between the two, so the connection is one kink.  The
    translate by 1 would be a chain of q kinks, which crosses its own
    translates for q >= 2.

    The window is fixed, and at K <= 0.7 the kink's tails often do not
    settle within it: at K = 0.5 and 0.7, 18 of the 28 calls over p/q =
    0/1, 1/2, 1/3, 2/5, 3/8, 2/7, 1/4 and both branches raise
    TailNotSettled."""
    if branch not in ("plus", "minus"):
        raise InvalidArgument("branch must be 'plus' or 'minus'")
    tm = TwistMapF(gf.K)
    per = minimize_periodic(gf, p, q)
    orbit = config_orbit(gf, per)
    _saddle_trace(tm, orbit)  # raises NotSaddle (or InvalidArgument) when inapplicable

    target = Configuration(_neighbour(per, 1 if branch == "plus" else -1), "periodic", p, q)
    seg = heteroclinic_minimizer(gf, per, target, max(50 * q, 60))

    # the segment's interior points farther than 1e-7 from the orbit
    per_pts = np.column_stack([orbit[:, 0] % 1.0, orbit[:, 1]])
    interior = config_orbit(gf, seg)[1:-1]
    interior[:, 0] %= 1.0
    new = interior[_circle_dist(interior[:, :1], per_pts[:, 0]).min(axis=1) > 1e-7]
    points = np.vstack([per_pts, new])
    return AubryMatherApprox(
        points=points,
        rotation=Fraction(p, q),
        roles=("periodic",) * len(per_pts) + (f"heteroclinic-{branch}",) * len(new),
        lipschitz=_lipschitz_constant(points),
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
    pts = None
    drift = []
    for p, q in convs:
        orbit = config_orbit(gf, minimize_periodic(gf, p, q))
        prev_pts, pts = pts, np.column_stack([orbit[:, 0] % 1.0, orbit[:, 1]])
        if prev_pts is not None:
            drift.append(hausdorff_points(pts, prev_pts))
    return AubryMatherApprox(
        points=pts,
        rotation=Fraction(p, q),
        roles=("periodic",) * len(pts),
        lipschitz=_lipschitz_constant(pts),
        drift=drift,
    )
