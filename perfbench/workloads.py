"""The three workloads: how each makes its tasks, runs them and checks them.

A workload hands out rounds.  A round is a fixed list of task slots; the
seed and the round number choose the inputs inside each slot, so every
round costs about the same and every run attempts whole rounds.  ``run``
makes only calls into denshoe (this is the timed part); ``check``
compares the outputs with ``oracles`` (untimed) and returns the list of
problems found, empty when the task is correct.  The layer modules are
always called through their module attribute, so the tracer sees them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

import oracles as O
from oracles import Quad

from denshoe import circle as C
from denshoe import exact as E
from denshoe import symbolic as S
from denshoe import twist as T
from denshoe import wdsfamily as W

FIELDS = (2, 3, 5, 7, 11, 13)


def quadreal(q: Quad):
    return E.QuadReal(Fraction(q.a, q.c), Fraction(q.b, q.c), q.d)


def angle_pool(d: int, lo: float = 0.12, hi: float = 0.45) -> list[Quad]:
    """Angles min({m sqrt d}, 1 - {m sqrt d}) in [lo, hi], m = 1..120, whose
    first ten partial quotients after the first are at most 6.  A large
    partial quotient puts the angle close to a rational of small
    denominator, and then estimate_rotation_interval takes 10 to 50 times
    longer, which would make a slot's cost depend on the seed."""
    out = []
    for m in range(1, 121):
        f = math.isqrt(m * m * d)
        x = Quad(-f, m, 1, d)
        if float(x) > 0.5:
            x = Quad(1 + f, -m, 1, d)
        terms = O.partial_quotients(x)
        next(terms)
        if lo <= float(x) <= hi and max(next(terms) for _ in range(10)) <= 6:
            out.append(x)
    return out


def contains(q: Quad, lo: Fraction, hi: Fraction) -> bool:
    return O.quad_cmp_fraction(q, lo) >= 0 and O.quad_cmp_fraction(q, hi) <= 0


def word(symbols) -> str:
    return "".join(map(str, symbols))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, r) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def round(self, r: int) -> list[tuple]:
        raise NotImplementedError

    def warmup(self) -> list[tuple]:
        raise NotImplementedError

    def check_round(self, tasks, outs) -> dict[int, list[str]]:
        """Problems that involve several tasks of one round, by task index."""
        return {}


# ---------------------------------------------------------------------------
# coding: exact and float Sturmian windows, rotation recovery, Denjoy itinerary
# ---------------------------------------------------------------------------

class Coding(Workload):
    """One task per field and round.  Half the float windows start on the
    alpha-orbit, so that one of their points sits on an arc end and the
    mpmath escalation runs.  Five tasks of a round code radius 1800 and
    one, on a field that turns with the round, radius 3000 (2000 on
    average): the long task, 1.6 times the cost of a short one, puts the
    90th percentile inside a block of like tasks instead of in the tail
    of the short ones."""

    name = "coding"
    RADII = (1800, 3000)
    FACTORS = 41
    CUTOFF = 2000

    def __init__(self, seed):
        super().__init__(seed)
        self.pools = {d: angle_pool(d) for d in FIELDS}

    def _task(self, rng, d, on_orbit, radius):
        alpha = rng.choice(self.pools[d])
        theta = Quad(rng.randrange(1, 4099), 0, 4099, d)
        af = float(alpha)
        if on_orbit:
            tf = (rng.randrange(-radius, radius + 1) * af) % 1.0
        else:
            tf = float(theta)
        return ("coding", alpha, theta, tf, radius)

    def round(self, r):
        rng = self.rng(r)
        return [self._task(rng, d, (i + r) % 2 == 0, self.RADII[i == r % len(FIELDS)])
                for i, d in enumerate(FIELDS)]

    def warmup(self):
        return [self._task(self.rng("warmup"), 5, True, self.RADII[0])]

    def run(self, task):
        _, alpha, theta, tf, radius = task
        a, t = quadreal(alpha), quadreal(theta)
        win = S.sturmian_window(a, t, radius)
        fwin = S.sturmian_window(float(alpha), tf, radius)
        fam = S.factor_family(win, self.FACTORS)
        iv = S.estimate_rotation_interval(win)
        h = C.denjoy_build(a, self.CUTOFF)
        it = C.itinerary(h, C.coding_intervals(h), h.position_of_angle(float(theta)), radius)
        return win, fwin, fam, iv, it

    def check(self, task, out):
        _, alpha, theta, tf, r = task
        win, fwin, fam, iv, it = out
        bad = []
        ref = O.coding(alpha, theta, -r, r)
        if win.symbols != ref:
            bad.append("exact window differs from the integer coding")
        if fwin.symbols != O.float_coding(float(alpha), tf, -r, r):
            bad.append("float window differs from the coding of its binary rationals")
        if it.symbols != ref:
            bad.append("Denjoy itinerary differs from the coding window")
        if not contains(alpha, iv.lo, iv.hi):
            bad.append(f"Farey interval [{iv.lo}, {iv.hi}] misses alpha")
        if iv.lo != iv.hi and abs(iv.lo.numerator * iv.hi.denominator
                                  - iv.hi.numerator * iv.lo.denominator) != 1:
            bad.append("interval ends are not Farey neighbours")
        w = word(ref)
        for n, fs in fam.items():
            if len(fs.words) != n + 1:
                bad.append(f"complexity {len(fs.words)} at length {n}")
                break
            ones = [u.count("1") for u in fs.words]
            if max(ones) - min(ones) > 1:
                bad.append(f"balance defect at length {n}")
                break
        if fam[self.FACTORS].words != O.factor_words(w, self.FACTORS):
            bad.append("longest factor set differs from the window's")
        return bad


# ---------------------------------------------------------------------------
# wds_family: continuity-probe rows and equivalence tests
# ---------------------------------------------------------------------------

class WdsFamily(Workload):
    """Rows come in groups that share alpha0, the depth and the sign of the
    perturbation 10^-k, so agreement and bound can be checked for
    monotonicity within a group.  Three rows at depth 8 put the 90th
    percentile inside the depth-8 rows, and the middle of the round is
    depth 6.  One equivalence test at depth 20..24 closes each round; it
    costs about what a depth-7 row costs, away from both percentiles."""

    name = "wds_family"
    RADIUS = 300
    GROUPS = ((4, 3), (5, 3), (6, 3), (7, 2), (8, 3))   # (depth, rows)
    PROPERTY_DEPTH = 5   # self-distance, symmetry and reversal checked up to here
    BRUTE_DEPTH = 4      # one row per round this deep is checked pairwise

    def __init__(self, seed):
        super().__init__(seed)
        self.pool = [q for d in FIELDS for q in angle_pool(d)]

    def round(self, r):
        rng = self.rng(r)
        tasks = []
        for g, (depth, rows) in enumerate(self.GROUPS):
            a0 = rng.choice(self.pool)
            sign = rng.choice((1, -1))
            for k in sorted(rng.sample(range(3, 8), rows)):
                tasks.append(("row", g, depth, a0, sign, k))
        a0 = rng.choice(self.pool)
        tasks.append(("equivalence", rng.randrange(20, 25), a0, rng.randrange(8, 13),
                      (r + self.seed) % 2 == 1))
        return tasks

    def warmup(self):
        rng = self.rng("warmup")
        return [("row", 0, 4, rng.choice(self.pool), 1, 4),
                ("equivalence", 12, rng.choice(self.pool), 10, True)]

    def run(self, task):
        if task[0] == "equivalence":
            _, depth, a0, k, flip = task
            w0 = W.build_wds(quadreal(a0), depth)
            w1 = W.build_wds(quadreal(a0) + Fraction(1, 10 ** k), depth)
            if flip:
                w1 = W.reversed_wds(w1)
            return W.equivalence_test(w0, w1)
        _, _, depth, a0, sign, k = task
        x0 = quadreal(a0)
        x1 = x0 + Fraction(sign, 10 ** k)
        w0, w1 = W.build_wds(x0, depth), W.build_wds(x1, depth)
        g0, g1 = W.cylinder_order(w0), W.cylinder_order(w1)
        bound = W.graph_hausdorff(g0, g1)
        c0, c1 = W.rotation_class(w0), W.rotation_class(w1)
        win0 = S.sturmian_window(x0, 0, self.RADIUS)
        win1 = S.sturmian_window(x1, 0, self.RADIUS)
        agree = S.agreement_radius(win0, win1)
        return w0, w1, g0, g1, bound, c0, c1, win0, win1, agree

    def check(self, task, out):
        if task[0] == "equivalence":
            _, depth, a0, k, flip = task
            o0 = O.cylinder_words(a0, depth)
            o1 = O.cylinder_words(O.quad_add_fraction(a0, Fraction(1, 10 ** k)), depth)
            if flip:
                o1 = o1[::-1]
            if set(o0) != set(o1):
                want = W.Equivalence.NOT_EQUIVALENT
            elif any(o1[i:] + o1[:i] == o0 for i in range(len(o1))):
                want = W.Equivalence.EQUAL_ORDER
            else:
                want = W.Equivalence.REVERSED_ORDER
            return [] if out == want else [f"equivalence {out} where {want} holds"]
        _, _, depth, a0, sign, k = task
        a1 = O.quad_add_fraction(a0, Fraction(sign, 10 ** k))
        w0, w1, g0, g1, bound, c0, c1, win0, win1, agree = out
        bad = []
        words = []
        for a, w, g in ((a0, w0, g0), (a1, w1, g1)):
            ref = O.cylinder_words(a, depth)
            words.append(ref)
            if len(g.cylinders) != 2 * depth + 2 or g.cylinders != ref:
                bad.append("cylinders differ from the oracle's circular order")
            if any(len(w.factors(n)) != n + 1 for n in range(1, 2 * depth + 2)):
                bad.append("factor family is not Sturmian")
            if w.factors(2 * depth + 1).words != set(ref):
                bad.append("top factor set differs from the arc words")
        if bound != O.bucketed_graph_hausdorff(*words):
            bad.append(f"graph_hausdorff {bound} differs from the bucketed oracle")
        if depth <= self.PROPERTY_DEPTH:
            if W.graph_hausdorff(g0, g0) != 0:
                bad.append("graph_hausdorff is not 0 on itself")
            if W.graph_hausdorff(g1, g0) != bound:
                bad.append("graph_hausdorff is not symmetric")
            rev = W.CircularOrderGraph(depth, g1.cylinders[::-1], g1.arc_lefts[::-1])
            if W.graph_hausdorff(g0, rev) != bound:
                bad.append("graph_hausdorff changes under reversal")
        for a, c in ((a0, c0), (a1, c1)):
            if not contains(a, c.lo, c.hi):
                bad.append("rotation class misses alpha")
        r = self.RADIUS
        zero = Quad(0, 0, 1, a0.d)
        ref0, ref1 = O.coding(a0, zero, -r, r), O.coding(a1, zero, -r, r)
        if win0.symbols != ref0 or win1.symbols != ref1:
            bad.append("window differs from the integer coding")
        ag = O.agreement(word(ref0), word(ref1))
        if agree != (None if ag == r + 1 else ag):
            bad.append(f"agreement radius {agree}, oracle {ag}")
        return bad

    def check_round(self, tasks, outs):
        bad = {}
        rows = [i for i, t in enumerate(tasks) if t[0] == "row"]
        brute = next((i for i in rows if tasks[i][2] <= self.BRUTE_DEPTH), None)
        if brute is not None:
            g0, g1, bound = outs[brute][2], outs[brute][3], outs[brute][4]
            if bound != O.brute_graph_hausdorff(g0.cylinders, g1.cylinders):
                bad[brute] = ["graph_hausdorff differs from brute force"]
        for g in {tasks[i][1] for i in rows}:
            grp = sorted((i for i in rows if tasks[i][1] == g), key=lambda i: -tasks[i][5])
            for i, j in zip(grp, grp[1:]):     # j is the farther perturbation
                ai = outs[i][9] if outs[i][9] is not None else math.inf
                aj = outs[j][9] if outs[j][9] is not None else math.inf
                if aj > ai or outs[j][4] < outs[i][4]:
                    bad.setdefault(j, []).append("agreement or bound not monotone")
        return bad


# ---------------------------------------------------------------------------
# am_orbits: Frenkel-Kontorova orbits of the standard map
# ---------------------------------------------------------------------------

GOLDEN = Quad(-1, 1, 2, 5)          # (sqrt5 - 1)/2
GOLDEN_SQUARE = Quad(3, -1, 2, 5)   # (3 - sqrt5)/2


class AmOrbits(Workload):
    """Per round: minimize_periodic on every convergent with q <= 89 of
    both golden angles, heteroclinic (0,1) connections over windows of
    200..1000 at several couplings, the hyperbolicity of the (0,1), (1,2)
    and (1,3) orbits, one irrational Aubry-Mather set, and the (0,1)
    assembly at eight couplings.  Couplings are drawn close to the
    slot's value, so the seed changes the orbits but not the cost of a
    slot.  Eight w=200 connections sit in the middle of the round's cost
    order and eight w=1000 ones make its top 16%, so the median and the
    90th percentile each fall inside a block of like tasks.  The w=1000
    couplings stay below 1: near K = 1.02 the cost of that solve drops by
    a fifth."""

    name = "am_orbits"
    HETERO = tuple((200, k) for k in (0.7, 0.75, 0.8, 0.9, 1.0, 1.1, 1.15, 1.2)) + (
        (400, 1.2), (600, 1.0), (800, 0.8)) + tuple(
        (1000, k) for k in (0.7, 0.74, 0.78, 0.82, 0.86, 0.9, 0.94, 0.98))
    ASSEMBLE = (0.7, 0.8, 0.9, 0.95, 1.0, 1.1, 1.2, 1.3)
    HYPER = ((0, 1), (1, 2), (1, 3))
    JITTER = 0.02
    DEPTH = 8            # convergents in the irrational set

    def _K(self, rng, base=0.95):
        return base + rng.uniform(-self.JITTER, self.JITTER)

    def round(self, r):
        rng = self.rng(r)
        tasks = []
        for omega in (GOLDEN, GOLDEN_SQUARE):
            for p, q in O.convergents(omega, 89):
                if (p, q) != (1, 1):
                    tasks.append(("periodic", p, q, self._K(rng), omega))
        for w, k in self.HETERO:
            tasks.append(("hetero", w, self._K(rng, k)))
        for p, q in self.HYPER:
            tasks.append(("hyper", p, q, self._K(rng)))
        omega = GOLDEN if (r + self.seed) % 2 else GOLDEN_SQUARE
        tasks.append(("irrational", omega, self._K(rng)))
        for k in self.ASSEMBLE:
            tasks.append(("assemble", self._K(rng, k)))
        return tasks

    def warmup(self):
        rng = self.rng("warmup")
        return [("periodic", 0, 1, self._K(rng), GOLDEN),
                ("hetero", 200, self._K(rng)),
                ("hyper", 0, 1, self._K(rng)),
                ("irrational", GOLDEN_SQUARE, self._K(rng)),
                ("assemble", self._K(rng))]

    def run(self, task):
        kind = task[0]
        if kind == "periodic":
            _, p, q, K, _ = task
            gf, _ = T.standard_family(K)
            return T.minimize_periodic(gf, p, q)
        if kind == "hetero":
            _, w, K = task
            gf, _ = T.standard_family(K)
            per = T.minimize_periodic(gf, 0, 1)
            target = T.Configuration(per.x + 1, "periodic", 0, 1)
            return per, T.heteroclinic_minimizer(gf, per, target, w)
        if kind == "hyper":
            _, p, q, K = task
            gf, tm = T.standard_family(K)
            cfg = T.minimize_periodic(gf, p, q)
            orbit = T.config_orbit(gf, cfg)
            return cfg, orbit, T.hyperbolicity_report(tm, orbit)
        if kind == "irrational":
            _, omega, K = task
            gf, _ = T.standard_family(K)
            return T.irrational_am_set(gf, quadreal(omega), self.DEPTH)
        _, K = task
        gf, _ = T.standard_family(K)
        return T.assemble_am_set(gf, 0, 1)

    @staticmethod
    def _periodic_problems(cfg, p, q, K):
        bad = []
        x = np.asarray(cfg.x, dtype=float)
        if len(x) != q or cfg.p != p or cfg.q != q:
            return [f"configuration is not of type ({p},{q})"]
        if np.max(np.abs(O.periodic_gradient(x, p, K))) > 1e-9:
            bad.append("action gradient above 1e-9")
        if O.orbit_defect(O.orbit_points(x, p, K), K) > 1e-9:
            bad.append("points are not an orbit of the standard map")
        if O.translates_cross(x, p):
            bad.append("translates cross")
        if q <= 2 and O.periodic_action(x, p, K) > O.grid_min_action(p, q, K) + 1e-12:
            bad.append("action above the grid minimum")
        return bad

    def check(self, task, out):
        kind = task[0]
        if kind == "periodic":
            _, p, q, K, omega = task
            bad = self._periodic_problems(out, p, q, K)
            if not contains(omega, Fraction(p, q) - Fraction(1, q * q),
                            Fraction(p, q) + Fraction(1, q * q)):
                bad.append("|p/q - omega| > 1/q^2")
            return bad
        if kind == "hetero":
            _, w, K = task
            per, seg = out
            bad = self._periodic_problems(per, 0, 1, K)
            x = np.asarray(seg.x, dtype=float)
            if len(x) != w + 1:
                bad.append("segment length differs from the window")
            if np.any(np.diff(x) < -1e-9):
                bad.append("heteroclinic segment is not monotone")
            if np.max(np.abs(O.segment_gradient(x, K))) > 1e-9:
                bad.append("segment gradient above 1e-9")
            if abs(x[0] - per.x[0]) > 1e-12 or abs(x[-1] - per.x[0] - 1) > 1e-12:
                bad.append("segment is not clamped to the periodic orbit and its translate")
            if abs(x[1] - x[0]) > 1e-6 or abs(x[-1] - x[-2]) > 1e-6:
                bad.append("segment tails have not settled on the periodic orbit")
            if not O.no_conjugate_points(x, K):
                bad.append("conjugate point on the segment")
            return bad
        if kind == "hyper":
            _, p, q, K = task
            cfg, orbit, rep = out
            bad = self._periodic_problems(cfg, p, q, K)
            pts = O.orbit_points(cfg.x, p, K)[:-1]
            if np.max(np.abs(np.asarray(orbit) - pts)) > 1e-12:
                bad.append("config_orbit differs from the closed-form momenta")
            tr = float(np.trace(O.monodromy(pts[:, 0], K)))
            if abs(rep.trace - tr) > 1e-9 * max(1.0, abs(tr)):
                bad.append(f"trace {rep.trace} against {tr}")
            if abs(rep.lam * rep.mu - 1.0) > 1e-9 or abs(rep.lam + rep.mu - tr) > 1e-9 * abs(tr):
                bad.append("eigenvalues do not multiply to 1 or sum to the trace")
            if q == 1 and abs(rep.trace - (2.0 + K)) > 1e-9:
                bad.append("trace of the (0,1) saddle is not 2 + K")
            return bad
        if kind == "irrational":
            _, omega, K = task
            rot = out.rotation
            bad = []
            if not contains(omega, rot - Fraction(1, rot.denominator ** 2),
                            rot + Fraction(1, rot.denominator ** 2)):
                bad.append("|p/q - omega| > 1/q^2")
            if not _closed_under_map(out.points, K):
                bad.append("points are not an orbit of the standard map")
            if len(out.drift) != self.DEPTH - 1:   # the first 8 convergents have q <= 34
                bad.append("drift list does not match the convergents")
            return bad
        _, K = task
        pts = out.points
        bad = []
        if out.rotation != 0:
            bad.append("rotation of the (0,1) set is not 0")
        if abs(pts[0, 0] - 0.5) > 1e-9 or abs(pts[0, 1]) > 1e-9:
            bad.append("periodic point is not the saddle (1/2, 0)")
        if not _closed_under_map(pts, K, saddle_tol=1e-6):
            bad.append("heteroclinic points are not an orbit of the standard map")
        return bad


def _closed_under_map(pts, K, tol=1e-8, saddle_tol=None) -> bool:
    """Every point maps (x mod 1) onto a point of the set, or, with
    saddle_tol, to within saddle_tol of the saddle (1/2, 0), where the
    assembled connection leaves the sampled window."""
    fx, fy = O.standard_map(pts[:, 0], pts[:, 1], K)
    fx = fx % 1.0
    for x, y in zip(fx, fy):
        dx = np.abs(pts[:, 0] - x)
        dx = np.minimum(dx, 1.0 - dx)
        if np.min(np.maximum(dx, np.abs(pts[:, 1] - y))) <= tol:
            continue
        if saddle_tol is not None and abs(x - 0.5) <= saddle_tol and abs(y) <= saddle_tol:
            continue
        return False
    return True


WORKLOADS = {w.name: w for w in (Coding, WdsFamily, AmOrbits)}
