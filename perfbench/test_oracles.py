"""The benchmark's own checks: each oracle accepts what denshoe returns
today and rejects a corrupted copy.

    python3 -m pytest perfbench -q
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles as O  # noqa: E402
import workloads as WL  # noqa: E402
from oracles import Quad  # noqa: E402

from denshoe import symbolic as S  # noqa: E402
from denshoe import twist as T  # noqa: E402
from denshoe import wdsfamily as W  # noqa: E402

SQRT2_PART = Quad(-1, 1, 1, 2)          # sqrt2 - 1
ALPHA_STAR = Quad(3, -1, 2, 5)          # (3 - sqrt5)/2


def flip(window, k):
    s = list(window.symbols)
    s[k + window.radius] ^= 1
    return S.CentralWindow(window.radius, tuple(s))


# --- integer arithmetic ------------------------------------------------------

def test_floor_and_sign_against_floats():
    import math
    for a, b, c, d in [(3, -1, 2, 5), (-7, 3, 4, 13), (10 ** 9, -447213595, 1, 5)]:
        x = (a + b * math.sqrt(d)) / c
        assert O._floor(a, b, c, d) == math.floor(x)
        assert O._sign(a, b, d) == (1 if a + b * math.sqrt(d) > 0 else -1)


def test_convergents():
    assert O.convergents(Quad(-1, 1, 2, 5), 89)[-1] == (55, 89)
    assert O.convergents(SQRT2_PART, 100) == [(0, 1), (1, 2), (2, 5), (5, 12), (12, 29), (29, 70)]


# --- codings -----------------------------------------------------------------

@pytest.mark.parametrize("alpha", [ALPHA_STAR, SQRT2_PART, Quad(-3, 1, 1, 13)])
def test_exact_coding_matches_and_rejects_a_flip(alpha):
    theta = Quad(17, 0, 4099, alpha.d)
    win = S.sturmian_window(WL.quadreal(alpha), Fraction(17, 4099), 300)
    assert win.symbols == O.coding(alpha, theta, -300, 300)
    assert flip(win, 123).symbols != O.coding(alpha, theta, -300, 300)


def test_float_coding_on_the_orbit():
    af = float(ALPHA_STAR)
    tf = (57 * af) % 1.0                    # the point k = -57 lies on an arc end
    win = S.sturmian_window(af, tf, 200)
    assert win.symbols == O.float_coding(af, tf, -200, 200)
    assert flip(win, -57).symbols != O.float_coding(af, tf, -200, 200)


def test_coding_task_check():
    wl = WL.Coding(0)
    task = wl.round(0)[0]
    out = wl.run(task)
    assert wl.check(task, out) == []
    win, fwin, fam, iv, it = out
    assert wl.check(task, (flip(win, 5), fwin, fam, iv, it))
    assert wl.check(task, (win, flip(fwin, -5), fam, iv, it))
    assert wl.check(task, (win, fwin, fam, iv, flip(it, 0)))
    assert wl.check(task, (win, fwin, fam, S.FareyInterval(Fraction(1, 2), Fraction(1, 1)), it))


# --- circular orders and the triple Hausdorff distance -----------------------

def swap(graph, i, j):
    c = list(graph.cylinders)
    c[i], c[j] = c[j], c[i]
    return replace(graph, cylinders=tuple(c))


@pytest.mark.parametrize("depth", [3, 5, 8])
def test_cylinder_order_matches_and_rejects_a_swap(depth):
    g = W.cylinder_order(W.build_wds(WL.quadreal(ALPHA_STAR), depth))
    assert g.cylinders == O.cylinder_words(ALPHA_STAR, depth)
    assert swap(g, 1, 4).cylinders != O.cylinder_words(ALPHA_STAR, depth)


PAIRS = [(ALPHA_STAR, Fraction(1, 10 ** 3)), (ALPHA_STAR, Fraction(-1, 10 ** 2)),
         (SQRT2_PART, Fraction(1, 10 ** 4)), (SQRT2_PART, Fraction(1, 20))]


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("alpha,delta", PAIRS)
def test_graph_hausdorff_brute_force(alpha, delta, depth):
    w1 = O.cylinder_words(alpha, depth)
    w2 = O.cylinder_words(O.quad_add_fraction(alpha, delta), depth)
    value = O.brute_graph_hausdorff(w1, w2)
    assert O.bucketed_graph_hausdorff(w1, w2) == value
    assert O.bucketed_graph_hausdorff(w1, w2[::-1]) == value
    g1 = W.cylinder_order(W.build_wds(WL.quadreal(alpha), depth))
    g2 = W.cylinder_order(W.build_wds(WL.quadreal(alpha) + delta, depth))
    assert W.graph_hausdorff(g1, g2) == value
    assert O.brute_graph_hausdorff(w1, w1) == 0


def test_bucketed_oracle_sees_a_swap():
    # swapping two cylinders of an order breaks its triple set, so a graph
    # no longer has distance 0 to itself in the swapped order
    w = O.cylinder_words(ALPHA_STAR, 4)
    s = list(w)
    s[0], s[3] = s[3], s[0]
    assert O.brute_graph_hausdorff(w, s) > 0
    assert O.bucketed_graph_hausdorff(w, s) == O.brute_graph_hausdorff(w, s)


def test_wds_task_check():
    wl = WL.WdsFamily(0)
    tasks = wl.round(0)
    task = tasks[0]
    assert task[0] == "row" and task[2] == 4
    out = wl.run(task)
    assert wl.check(task, out) == []
    bad = list(out)
    bad[2] = swap(out[2], 2, 5)
    assert wl.check(task, tuple(bad))
    bad = list(out)
    bad[4] = Fraction(1, 2) if out[4] != Fraction(1, 2) else Fraction(1, 3)
    assert wl.check(task, tuple(bad))
    eq = tasks[-1]
    assert eq[0] == "equivalence"
    got = wl.run(eq)
    assert wl.check(eq, got) == []
    other = next(e for e in W.Equivalence if e != got)
    assert wl.check(eq, other)


# --- the standard map --------------------------------------------------------

@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (2, 5), (5, 13)])
def test_periodic_orbit_and_a_moved_point(p, q):
    K = 0.95
    gf, _ = T.standard_family(K)
    cfg = T.minimize_periodic(gf, p, q)
    assert WL.AmOrbits._periodic_problems(cfg, p, q, K) == []
    moved = T.Configuration(cfg.x.copy(), "periodic", p, q)
    moved.x[0] += 1e-6
    assert WL.AmOrbits._periodic_problems(moved, p, q, K)


def test_grid_minimum_and_crossing():
    K = 1.0
    gf, _ = T.standard_family(K)
    cfg = T.minimize_periodic(gf, 1, 2)
    assert O.periodic_action(cfg.x, 1, K) <= O.grid_min_action(1, 2, K) + 1e-12
    assert O.translates_cross(np.array([0.0, 0.9, 0.2]), 1)


def test_heteroclinic_and_hyperbolicity_checks():
    wl = WL.AmOrbits(0)
    het = ("hetero", 200, 1.0)
    per, seg = wl.run(het)
    assert wl.check(het, (per, seg)) == []
    x = seg.x.copy()
    x[len(x) // 2] += 1e-6
    assert wl.check(het, (per, T.Configuration(x, "segment", 1, 1)))
    assert O.no_conjugate_points(seg.x, 1.0)

    hyp = ("hyper", 1, 3, 1.0)
    cfg, orbit, rep = wl.run(hyp)
    assert wl.check(hyp, (cfg, orbit, rep)) == []
    assert wl.check(hyp, (cfg, orbit, replace(rep, trace=rep.trace + 1e-6)))


@pytest.mark.parametrize("kind", ["irrational", "assemble"])
def test_am_set_checks(kind):
    wl = WL.AmOrbits(0)
    task = next(t for t in wl.round(0) if t[0] == kind)
    out = wl.run(task)
    assert wl.check(task, out) == []
    pts = out.points.copy()
    pts[len(pts) // 2, 0] += 1e-6
    assert wl.check(task, replace(out, points=pts))
