"""Tests for the symbolic weak-Denjoy-subsystem family."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from denshoe import symbolic as sy
from denshoe import wdsfamily as wf
from denshoe.errors import DepthMismatch, RationalAlpha
from denshoe.exact import ALPHA_STAR, QuadReal

ALPHA_B = QuadReal(0, Fraction(3, 10), 2).frac()  # 3*sqrt(2)/10 ~ 0.4243


@pytest.fixture(scope="module")
def wds6():
    return wf.build_wds(ALPHA_STAR, 6)


@pytest.fixture(scope="module")
def graph6(wds6):
    return wf.cylinder_order(wds6)


class TestBuild:
    def test_factor_counts(self, wds6):
        for n in range(1, 14):
            assert len(wds6.factors(n)) == n + 1

    def test_depth2_factors(self):
        w = wf.build_wds(ALPHA_STAR, 2)
        assert w.factors(2).words == {"01", "10", "11"}

    def test_subfactor_closure(self, wds6):
        for n in range(2, 14):
            for u in wds6.factors(n).words:
                assert u[:-1] in wds6.factors(n - 1).words
                assert u[1:] in wds6.factors(n - 1).words

    def test_shift_extension(self, wds6):
        # every factor extends left and right inside the family
        for n in range(1, 13):
            for u in wds6.factors(n).words:
                assert any(v[1:] == u for v in wds6.factors(n + 1).words)
                assert any(v[:-1] == u for v in wds6.factors(n + 1).words)

    def test_rational_rejected(self):
        with pytest.raises(RationalAlpha):
            wf.build_wds(Fraction(1, 3), 4)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            wf.build_wds(QuadReal(0, Fraction(1, 2), 2).frac(), 4)  # ~0.707


class TestCylinderOrder:
    def test_count_is_2n_plus_2(self, graph6):
        assert len(graph6) == 2 * 6 + 2 == 14

    def test_theta_zero_arc_first(self, wds6, graph6):
        assert graph6.arc_lefts[0] == QuadReal(0)
        assert graph6.cylinders[0] == wds6.window.segment(-6, 6)

    def test_arcs_partition_circle(self, graph6):
        lefts = graph6.arc_lefts
        total = QuadReal(0)
        for a, b in zip(lefts, lefts[1:]):
            assert (b - a).sign() > 0
            total = total + (b - a)
        total = total + (QuadReal(1) - lefts[-1]) + lefts[0]
        assert total == 1

    def test_rotation_equivariance(self, wds6, graph6):
        # the shift acts on cylinders as adding alpha acts on arcs
        alpha = wds6.alpha
        n = wds6.depth
        lefts = list(graph6.arc_lefts)
        for i, w in enumerate(graph6.cylinders):
            target = (lefts[i] + alpha).frac()
            j = max(k for k, p in enumerate(lefts) if (target - p).sign() >= 0)
            shifted = graph6.cylinders[j]
            # sigma(word) agrees with the target arc's word on [-n, n-1]
            assert w[1:] == shifted[:-1] or w[1:] == shifted[: 2 * n]

    def test_circular_order_axioms_exhaustive_depth_le_4(self):
        for depth in (2, 3, 4):
            g = wf.cylinder_order(wf.build_wds(ALPHA_STAR, depth))
            cyl = g.cylinders
            for x, y, z in itertools.permutations(cyl, 3):
                fwd = g.in_order(x, y, z)
                bwd = g.in_order(z, y, x)
                assert fwd or bwd                      # totality
                if fwd and bwd:                        # antisymmetry on distinct
                    assert x == y or y == z
                if fwd:
                    assert g.in_order(y, z, x)         # cyclicity
            for x, y, z, t in itertools.permutations(cyl[:7], 4):
                if g.in_order(x, y, z) and g.in_order(x, z, t):
                    assert g.in_order(x, y, t)         # transitivity

    def test_degenerate_triples(self, graph6):
        a, b = graph6.cylinders[0], graph6.cylinders[5]
        assert graph6.in_order(a, b, a)
        assert graph6.in_order(a, a, b)
        assert graph6.in_order(a, b, b)


class TestGraphHausdorff:
    def test_self_distance_zero(self, graph6):
        assert wf.graph_hausdorff(graph6, graph6) == 0

    def test_reversal_branch(self, wds6, graph6):
        gr = wf.cylinder_order(wf.reversed_wds(wds6))
        assert wf.graph_hausdorff(graph6, gr) == 0

    def test_close_generators_small_distance(self, graph6):
        g2 = wf.cylinder_order(wf.build_wds(ALPHA_STAR + Fraction(1, 10 ** 9), 6))
        assert wf.graph_hausdorff(graph6, g2) <= Fraction(1, 8)

    def test_distant_generators_large_distance(self, graph6):
        g2 = wf.cylinder_order(wf.build_wds(ALPHA_B, 6))
        assert wf.graph_hausdorff(graph6, g2) > Fraction(1, 8)

    def test_depth_mismatch(self, graph6):
        g2 = wf.cylinder_order(wf.build_wds(ALPHA_STAR, 5))
        with pytest.raises(DepthMismatch):
            wf.graph_hausdorff(graph6, g2)


class TestRotationClass:
    def test_contains_generator(self, wds6):
        rc = wf.rotation_class(wds6)
        assert (ALPHA_STAR - rc.lo).sign() >= 0
        assert (QuadReal(rc.hi) - ALPHA_STAR).sign() >= 0

    def test_fold_symmetry(self):
        lo, hi = Fraction(3, 10), Fraction(31, 100)
        a = wf.fold_interval(lo, hi)
        b = wf.fold_interval(1 - hi, 1 - lo)
        assert a == b

    def test_width_at_radius_1000(self):
        w = replace(wf.build_wds(ALPHA_STAR, 4), window=sy.sturmian_window(ALPHA_STAR, 0, 1000))
        rc = wf.rotation_class(w)
        assert rc.width <= Fraction(2, 1000)

    def test_invariant_under_reversal(self, wds6):
        assert wf.rotation_class(wds6) == wf.rotation_class(wf.reversed_wds(wds6))


class TestEquivalence:
    def test_equal(self, wds6):
        assert wf.equivalence_test(wds6, wds6) is wf.Equivalence.EQUAL_ORDER

    def test_reversed(self, wds6):
        assert wf.equivalence_test(wds6, wf.reversed_wds(wds6)) is wf.Equivalence.REVERSED_ORDER

    def test_not_equivalent(self, wds6):
        other = wf.build_wds(ALPHA_B, 6)
        assert wf.equivalence_test(wds6, other) is wf.Equivalence.NOT_EQUIVALENT

    def test_trichotomy_exclusive(self, wds6):
        # EqualOrder and ReversedOrder cannot hold at once at this depth:
        # the comparison short-circuits, so check the cyclic lists directly
        g = wf.cylinder_order(wds6)
        assert not wf._cyclic_equal(g.cylinders, g.cylinders[::-1])


def swap_pairs(words, radius):
    """Every pair of the central words that differ by exactly one adjacent
    '10' <-> '01' swap, as (upper, lower, j): upper reads '10' at window
    indices j, j + 1 and lower '01'.  Compares every pair, O(m^2 L)."""
    ws = sorted(words)
    pairs = []
    for i, u in enumerate(ws):
        for v in ws[i + 1:]:
            diffs = [p for p in range(len(u)) if u[p] != v[p]]
            if len(diffs) != 2 or diffs[1] != diffs[0] + 1:
                continue
            p = diffs[0]
            if {u[p:p + 2], v[p:p + 2]} != {"10", "01"}:
                continue
            upper, lower = (u, v) if u[p:p + 2] == "10" else (v, u)
            pairs.append((upper, lower, p - radius))
    return pairs


def gap_orbits(pairs, radius):
    """Number of classes of the pairs under the shift: a pair whose swap
    lies s further right is in the orbit of a representative when both of
    its words equal the representative's shifted by s, on the indices both
    hold."""
    def aligned(p, rep):
        (u, lw, j), (u0, lw0, j0) = p, rep
        s = j - j0
        return all(u[k + radius] == u0[k - s + radius] and lw[k + radius] == lw0[k - s + radius]
                   for k in range(max(-radius, s - radius), min(radius, radius + s) + 1))

    reps = []
    for p in pairs:
        if not any(aligned(p, rep) for rep in reps):
            reps.append(p)
    return len(reps)


class TestGapPairs:
    """The gap pairs are the neighbours of the cylinder order across its
    2n inner cuts (see the module docstring); `swap_pairs`, which compares
    every pair of words, is the oracle."""

    def test_exactly_one_orbit(self):
        w = wf.build_wds(ALPHA_STAR, 30)
        pairs = swap_pairs(wf.cylinder_order(w).cylinders, 30)
        assert len(pairs) == 2 * 30
        assert gap_orbits(pairs, 30) == 1

    def test_swap_symbols_at_zero(self):
        # the first arc starts at the cut 0; the last one ends there
        c = wf.cylinder_order(wf.build_wds(ALPHA_STAR, 12)).cylinders
        assert c[-1][12:14] == "10" and c[0][12:14] == "01"
        assert c[-1][:12] == c[0][:12] and c[-1][14:] == c[0][14:]

    def test_matches_denjoy_itineraries(self):
        # the itineraries of the gap's ends are neighbouring cylinders, the
        # left end's first in the circular order, reading '10' at index 0
        from denshoe import circle as ci

        h = ci.denjoy_build(ALPHA_STAR, 2000)
        cod = ci.coding_intervals(h)
        a0, b0 = h.gap_zero
        n = 12
        ia = ci.itinerary(h, cod, a0, n).word()
        ib = ci.itinerary(h, cod, b0, n).word()
        g = wf.cylinder_order(wf.build_wds(ALPHA_STAR, n))
        assert (g.position(ib) - g.position(ia)) % len(g) == 1
        assert ia[n:n + 2] == "10"

    def test_full_shift_many_orbits(self):
        # the orbit count can exceed 1: the full shift has many gap orbits
        words = {"".join(c) for c in itertools.product("01", repeat=7)}
        assert gap_orbits(swap_pairs(words, 3), 3) > 1

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
    def test_gap_pairs_are_neighbours_across_inner_cuts(self, d):
        for m in (1, 2, 3, 5, 7):
            a = QuadReal(0, m, d).frac()
            a = a if a < Fraction(1, 2) else 1 - a
            for n in (4, 10, 20):
                for orientation in (1, -1):
                    w = wf.build_wds(a, n)
                    g = wf.cylinder_order(w if orientation > 0 else wf.reversed_wds(w))
                    pairs = swap_pairs(g.cylinders, n)
                    assert len(pairs) == 2 * n and gap_orbits(pairs, n) == 1
                    for upper, lower, _ in pairs:
                        assert (g.position(lower) - g.position(upper) - orientation) % len(g) == 0


class TestContinuity:
    def test_probe_monotone(self):
        perts = [ALPHA_STAR + Fraction(1, 10 ** d) for d in (2, 4, 6)]
        rep = wf.continuity_probe(ALPHA_STAR, 200, perts, depth=6)
        assert rep.monotone
        assert rep.rows[2].agreement_radius >= rep.rows[1].agreement_radius

    def test_identical_angle_sentinel(self):
        rep = wf.continuity_probe(ALPHA_STAR, 50, [ALPHA_STAR], depth=4)
        row = rep.rows[0]
        assert row.agreement_radius == 50 and row.hausdorff_bound == 0

    def test_shared_convergents_full_agreement(self):
        # perturbation below the continued-fraction scale of the window
        n = 100
        pert = ALPHA_STAR + Fraction(1, 10 ** 9)
        rep = wf.continuity_probe(ALPHA_STAR, n, [pert], depth=4)
        assert rep.rows[0].agreement_radius == n

    def test_perturbation_in_another_field(self):
        other = QuadReal(-1, 1, 2)   # sqrt(2) - 1, field of ALPHA_STAR is sqrt(5)
        rep = wf.continuity_probe(ALPHA_STAR, 50, [other], depth=4)
        (row,) = rep.rows
        assert row.alpha_prime == other and 0 < row.hausdorff_bound < 1
        assert row.agreement_radius == sy.agreement_radius(
            sy.sturmian_window(ALPHA_STAR, 0, 50), sy.sturmian_window(other, 0, 50)) - 1

    def test_classes_overlap_for_close_angles(self):
        pert = ALPHA_STAR + Fraction(1, 10 ** 9)
        rep = wf.continuity_probe(ALPHA_STAR, 400, [pert], depth=4)
        row = rep.rows[0]
        assert row.class0.overlaps(row.class1)
