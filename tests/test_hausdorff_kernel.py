"""Property tests for the level-class `wdsfamily.graph_hausdorff`.

The oracle is the implementation it replaced, copied here unchanged: a
T x T agreement tensor for each triple coordinate, with the directed
values read off as max-min over every pair of triples.  It needs O(T^2)
memory, so it runs only to depth 8.
"""

import logging
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denshoe import wdsfamily as wf
from denshoe.errors import DepthMismatch
from denshoe.exact import ALPHA_STAR, QuadReal

FIELDS = (2, 3, 5, 7, 11, 13)
PROPERTY = settings(max_examples=25, deadline=None)


def loop_index_triples(g):
    m = len(g.cylinders)
    out = []
    for i in range(m):
        for db in range(1, m):
            for dc in range(db + 1, m):
                out.append((i, (i + db) % m, (i + dc) % m))
    return np.array(out, dtype=np.int64)


def _directed_value(agr, t1, t2):
    a = np.minimum.reduce([
        agr[np.ix_(t1[:, 0], t2[:, 0])],
        agr[np.ix_(t1[:, 1], t2[:, 1])],
        agr[np.ix_(t1[:, 2], t2[:, 2])],
    ])
    return int(a.max(axis=1).min())


def first_disagreement(u, v, n):
    """Least k in 0..n where the central words u and v of radius n differ
    at n + k or n - k, or n + 1 when they agree everywhere."""
    for k in range(n + 1):
        if u[n + k] != v[n + k] or u[n - k] != v[n - k]:
            return k
    return n + 1


def pairwise_levels(g1, g2):
    """Matched level of the direct and of the reversed orientation of g2."""
    n = g1.depth
    agr = np.empty((len(g1), len(g2)), dtype=np.int64)
    for i, u in enumerate(g1.cylinders):
        for j, v in enumerate(g2.cylinders):
            agr[i, j] = first_disagreement(u, v, n)
    t1 = loop_index_triples(g1)
    t2 = loop_index_triples(g2)
    return [min(_directed_value(agr, t1, t2v), _directed_value(agr.T, t2v, t1))
            for t2v in (t2, t2[:, ::-1])]


def pairwise_hausdorff(g1, g2):
    if g1.depth != g2.depth:
        raise DepthMismatch(f"depths {g1.depth} != {g2.depth}")
    n = g1.depth
    best = Fraction(1)
    for h in pairwise_levels(g1, g2):
        best = min(best, Fraction(0) if h >= n + 1 else Fraction(1, h + 1))
    return best


@st.composite
def angles(draw, d=None):
    """An irrational angle {b sqrt(d)} folded into (0, 1/2)."""
    d = draw(st.sampled_from(FIELDS)) if d is None else d
    a = QuadReal(0, draw(st.integers(1, 60)), d).frac()
    return a if a < Fraction(1, 2) else 1 - a


@st.composite
def angle_pairs(draw):
    """A second angle close to the first (distances between 0 and 1), in
    the same field but unrelated, or in another field."""
    a = draw(angles())
    kind = draw(st.sampled_from(("near", "same field", "other field")))
    if kind == "near":
        step = Fraction(draw(st.sampled_from((1, -1))), 10 ** draw(st.integers(1, 9)))
        b = a + step if Fraction(0) < a + step < Fraction(1, 2) else a - step
    elif kind == "same field":
        b = draw(angles(a.d))
    else:
        b = draw(angles(draw(st.sampled_from([d for d in FIELDS if d != a.d]))))
    return a, b


def graph(alpha, depth, orientation=1):
    w = wf.build_wds(alpha, depth)
    return wf.cylinder_order(w if orientation > 0 else wf.reversed_wds(w))


@PROPERTY
@given(angle_pairs(), st.integers(1, 8))
def test_level_classes_match_pairwise_tensor(pair, depth):
    g1, g2 = graph(pair[0], depth), graph(pair[1], depth)
    assert np.array_equal(g1.index_triples(), loop_index_triples(g1))
    want = pairwise_hausdorff(g1, g2)
    assert wf.graph_hausdorff(g1, g2) == want
    assert wf.graph_hausdorff(g2, g1) == pairwise_hausdorff(g2, g1)
    assert wf.graph_hausdorff(g1, graph(pair[1], depth, -1)) == want


@settings(PROPERTY, max_examples=15)
@given(angles(), st.integers(1, 8))
def test_self_and_reversed_distance_is_zero(alpha, depth):
    g = graph(alpha, depth)
    assert wf.graph_hausdorff(g, g) == pairwise_hausdorff(g, g) == 0
    gr = graph(alpha, depth, -1)
    assert wf.graph_hausdorff(g, gr) == pairwise_hausdorff(g, gr) == 0


def block_set_hausdorff(g1, g2):
    """The level-class argument written with Python sets of block triples,
    bisecting one level at a time; a check of the array encoding at depths
    the pairwise oracle cannot reach."""
    n = g1.depth
    t1 = [tuple(t) for t in loop_index_triples(g1).tolist()]
    t2 = [tuple(t) for t in loop_index_triples(g2).tolist()]
    best = Fraction(1)
    for t2v in (t2, [t[::-1] for t in t2]):
        lo, hi = 0, n + 1
        while lo < hi:
            h = (lo + hi + 1) // 2
            c1 = [w[n - h + 1:n + h] for w in g1.cylinders]
            c2 = [w[n - h + 1:n + h] for w in g2.cylinders]
            if ({(c1[i], c1[j], c1[k]) for i, j, k in t1}
                    == {(c2[i], c2[j], c2[k]) for i, j, k in t2v}):
                lo = h
            else:
                hi = h - 1
        best = min(best, Fraction(0) if lo >= n + 1 else Fraction(1, lo + 1))
    return best


@pytest.mark.parametrize("step", [Fraction(1, 10 ** 3), Fraction(-1, 10 ** 2), Fraction(1, 10)])
def test_depth_20_in_bounded_memory(step):
    g1 = graph(ALPHA_STAR, 20)
    g2 = graph(ALPHA_STAR + step, 20)
    tracemalloc.start()
    try:
        value = wf.graph_hausdorff(g1, g2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g1.index_triples()) == 42 * 41 * 40 // 2
    assert peak < 32 * 2 ** 20
    assert 0 < value == block_set_hausdorff(g1, g2)
    assert wf.graph_hausdorff(g2, g1) == value
    assert wf.graph_hausdorff(g1, g1) == 0


def test_debug_record_reports_levels(caplog):
    g = graph(ALPHA_STAR, 6)
    g2 = graph(ALPHA_STAR + Fraction(1, 10 ** 2), 6, -1)
    with caplog.at_level(logging.DEBUG, logger="denshoe.wdsfamily"):
        value = wf.graph_hausdorff(g, g2)
    (record,) = caplog.records
    fields = record.args
    assert record.msg.split()[0] == "graph_hausdorff"
    assert (fields["depth"], fields["triples1"], fields["triples2"]) == (6, 1092, 1092)
    probes = fields["probes"]
    direct, reverse = pairwise_levels(g, g2)
    assert 1 <= len(probes) <= 3                     # bisection of 0..7
    for h, d, r in probes:
        assert (d, r) == (int(h <= direct), int(h <= reverse)), h
    assert fields["matched"] == max(direct, reverse)
    assert value == Fraction(1, max(direct, reverse) + 1)


def test_no_record_when_debug_is_off(caplog):
    g = graph(ALPHA_STAR, 4)
    with caplog.at_level(logging.INFO, logger="denshoe.wdsfamily"):
        wf.graph_hausdorff(g, g)
    assert not caplog.records
