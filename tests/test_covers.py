import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimspect import (
    CoverSet,
    DepthLimitError,
    PointCloud,
    RestrictedCover,
    ScaleRange,
    ScaleRangeTooDeepError,
    ValidationError,
    carpet_points,
    cover_cost,
    fp_points,
    fp_witness_cover,
    geometric_menu,
    optimal_cover_1d,
    optimal_cover_dyadic,
    refine_cover,
)
from dimspect.core import MAX_DEPTH
from dimspect.covers import _bbox_tree, _DyadicTree, _IntervalDP, cover_cost_function
from conftest import point_clouds
from oracles import (
    ScalarIntervalDP,
    brute_force_menu_cost,
    recursive_dyadic_cover,
    serial_interval_table,
    unique_dyadic_tree,
)


def interval(center: float, diameter: float) -> CoverSet:
    return CoverSet(center=(center,), side=diameter)


class TestGeometricMenu:
    def test_endpoints_exact(self):
        menu = geometric_menu(1e-4, 1e-2, 16)
        assert menu[0] == 1e-4 and menu[-1] == 1e-2
        assert len(menu) == 16
        ratios = [b / a for a, b in zip(menu, menu[1:])]
        assert max(ratios) / min(ratios) < 1.0 + 1e-9

    def test_degenerate_band(self):
        assert geometric_menu(0.01, 0.01, 16) == (0.01,)


class TestOptimalCover1d:
    def test_single_point_smallest_set(self):
        pc = PointCloud.from_points([(0.3,)])
        rng = ScaleRange(0.01, 0.5)
        cov = optimal_cover_1d(pc, rng, 0.5)
        assert len(cov.sets) == 1
        assert cov.sets[0].diameter == rng.lo
        assert cov.cost == pytest.approx(rng.lo**0.5, abs=0)

    def test_two_distant_points(self):
        pc = PointCloud.from_points([(0.1,), (0.9,)])
        rng = ScaleRange(0.5, 0.5)  # hi = 0.5 < distance 0.8
        cov = optimal_cover_1d(pc, rng, 0.5)
        assert len(cov.sets) == 2
        assert cov.diameters() == (rng.lo, rng.lo)

    def test_matches_brute_force_random(self):
        rnd = random.Random(12345)
        for _ in range(60):
            pc = PointCloud.from_points(
                [(round(rnd.uniform(0, 1), 6),) for _ in range(rnd.randint(1, 8))]
            )
            rng = ScaleRange(rnd.uniform(0.05, 0.5), rnd.uniform(0.3, 1.0))
            s = rnd.uniform(0.05, 1.0)
            size = rnd.randint(2, 4)
            cov = optimal_cover_1d(pc, rng, s, scale_menu_size=size)
            menu = geometric_menu(rng.lo, rng.hi, size)
            expected = brute_force_menu_cost([p[0] for p in pc.points], menu, s)
            assert cov.cost == expected

    def test_memoized_recursion_agrees_on_40_points(self):
        # independent top-down recursion over the same menu
        pts = fp_points(1.0, 0.05)
        xs = [p[0] for p in pts.points][:40]
        rng = ScaleRange(0.05, 0.5)
        s = 1.0 / 3.0
        menu = geometric_menu(rng.lo, rng.hi, 8)
        from bisect import bisect_right
        from functools import lru_cache

        @lru_cache(maxsize=None)
        def best(i: int) -> float:
            if i >= len(xs):
                return 0.0
            return min(
                d**s + best(bisect_right(xs, xs[i] + d)) for d in menu
            )

        cov = optimal_cover_1d(
            PointCloud.from_points([(x,) for x in xs]), rng, s, scale_menu_size=8
        )
        assert cov.cost == pytest.approx(best(0), rel=1e-12)

    def test_coverage_and_admissibility(self):
        rnd = random.Random(9)
        for _ in range(20):
            pc = PointCloud.from_points(
                [(rnd.uniform(0, 1),) for _ in range(rnd.randint(1, 60))]
            )
            rng = ScaleRange(rnd.uniform(0.01, 0.3), rnd.uniform(0.3, 1.0))
            cov = optimal_cover_1d(pc, rng, rnd.uniform(0.1, 1.0))
            assert cov.covers(pc)
            for c in cov.sets:
                assert rng.lo * (1 - 1e-12) <= c.diameter <= rng.hi * (1 + 1e-12)

    def test_cost_monotone_in_s(self):
        pts = fp_points(1.0, 0.01)
        rng = ScaleRange(0.02, 0.5)
        costs = [optimal_cover_1d(pts, rng, s).cost for s in (0.1, 0.3, 0.5, 0.8, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_cost_monotone_in_theta(self):
        # widening the band (smaller theta) never increases the optimum
        pts = fp_points(1.0, 0.01)
        for s in (0.3, 0.6):
            costs = [
                optimal_cover_1d(pts, ScaleRange(0.02, th), s).cost
                for th in (1.0, 0.8, 0.6, 0.4, 0.25)
            ]
            assert all(a >= b * (1 - 1e-9) for a, b in zip(costs, costs[1:]))

    def test_cost_tie_goes_to_larger_set(self):
        # at s = 1 a cover of cost 1.5 starts with one interval of 0.5 or
        # with one of 0.25; the walk takes the larger, giving five sets
        # where the fewest sets would be four
        xs = [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16]
        pc = PointCloud.from_points([(x / 8.0,) for x in xs])
        cov = optimal_cover_1d(pc, ScaleRange(0.5, 0.5), 1.0, scale_menu_size=2)
        assert cov.cost == 1.5
        assert [(c.center[0], c.diameter) for c in cov.sets] == [
            (0.25, 0.5), (0.75, 0.25), (1.125, 0.25), (1.5, 0.25), (2.0, 0.25)
        ]

    def test_theta_zero_rejected(self):
        pc = PointCloud.from_points([(0.5,)])
        with pytest.raises(ValidationError):
            optimal_cover_1d(pc, ScaleRange(0.01, 0.0), 0.5)

    def test_menu_quantization_factor(self):
        # a coarse menu costs at most (hi/lo)**(s/(size-1)) over a fine one
        pts = fp_points(1.0, 0.02)
        rng = ScaleRange(0.02, 0.5)
        for s in (0.3, 0.6):
            coarse = optimal_cover_1d(pts, rng, s, scale_menu_size=8).cost
            fine = optimal_cover_1d(pts, rng, s, scale_menu_size=64).cost
            factor = (rng.hi / rng.lo) ** (s / 7.0)
            assert fine <= coarse * (1 + 1e-9)
            assert coarse <= factor * fine * (1 + 1e-9)


class TestOptimalCoverDyadic:
    def test_single_point_deepest_level(self):
        pc = PointCloud.from_points([(0.3, 0.6)])
        rng = ScaleRange(0.5, 0.5)
        cov = optimal_cover_dyadic(pc, rng, 1.0)
        assert len(cov.sets) == 1
        # deepest level whose diameter stays >= lo
        lo = rng.lo
        diam = cov.sets[0].diameter
        assert lo <= diam <= rng.hi
        assert diam / 2.0 < lo

    def test_corner_tie_prefers_single_cube(self):
        corners = PointCloud.from_points(
            [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
        )
        rng = ScaleRange(0.72, 0.3)  # both the top cube and its children admissible
        cov = optimal_cover_dyadic(corners, rng, 2.0)
        assert len(cov.sets) == 1  # exact cost tie, fewer sets win
        below = optimal_cover_dyadic(corners, rng, 1.5)
        assert len(below.sets) == 1  # single cube strictly cheaper below s=2

    def test_narrow_band_snaps_to_one_level(self):
        corners = PointCloud.from_points(
            [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        )
        cov = optimal_cover_dyadic(corners, ScaleRange(0.9, 1.0), 0.5)
        assert len(cov.sets) == 4
        assert cov.effective_lo == cov.sets[0].diameter < cov.range.lo

    def test_coverage_2d(self, worked_carpet):
        from dimspect import carpet_points

        cloud = carpet_points(worked_carpet, 4)
        rng = ScaleRange(0.1, 0.5)
        cov = optimal_cover_dyadic(cloud, rng, 1.0)
        assert cov.covers(cloud)

    def test_depth_limit(self):
        pc = PointCloud.from_points([(0.0,), (3.0,)])
        with pytest.raises(DepthLimitError):
            optimal_cover_dyadic(pc, ScaleRange(1.5e-12, 1.0), 0.5)

    def test_depth_limit_past_the_float_range(self):
        # extent / diameter overflows a float; the level count must not
        pc = PointCloud.from_points([(0.0,), (1e300,)])
        with pytest.raises(DepthLimitError):
            optimal_cover_dyadic(pc, ScaleRange(1e-12, 1.0), 0.5)

    def test_within_provable_factor_of_menu(self):
        # grid alignment costs at most one level: factor 2**(1+s)
        pts = fp_points(1.0, 0.05)
        rng = ScaleRange(0.05, 0.5)
        for s in (0.3, 0.5, 0.8):
            dy = optimal_cover_dyadic(pts, rng, s).cost
            me = optimal_cover_1d(pts, rng, s).cost
            assert me <= dy * (1 + 1e-9)
            assert dy <= 2 ** (1 + s) * me


class TestDyadicTreeMatchesRecursion:
    @settings(max_examples=150, deadline=None)
    @given(
        cloud=point_clouds(),
        delta=st.floats(1e-3, 0.9),
        theta=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
        u=st.floats(0.0, 1.0),
    )
    def test_cost_and_cover_equal_oracle(self, cloud, delta, theta, u):
        try:
            rng = ScaleRange(delta, theta)
        except ScaleRangeTooDeepError:
            assume(False)
        s = u * cloud.dimension_n
        reference = recursive_dyadic_cover(cloud, rng, s)
        cover = optimal_cover_dyadic(cloud, rng, s)
        assert cover.sets == reference.sets
        assert cover.cost == reference.cost
        if cloud.dimension_n > 1 or theta == 0.0:
            assert cover_cost_function(cloud, rng).costs([s]) == [reference.cost]
        assert cover.covers(cloud)
        for c in cover.sets:
            assert cover.effective_lo <= c.diameter <= rng.hi * (1 + 1e-12)


class TestDerivedDiameters:
    """A set's diameter is side * sqrt(n), computed, not passed in."""

    @settings(max_examples=150, deadline=None)
    @given(
        cloud=point_clouds(),
        delta=st.floats(1e-3, 0.9),
        theta=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
        u=st.floats(0.0, 1.0),
    )
    def test_level_and_menu_diameters_bit_for_bit(self, cloud, delta, theta, u):
        try:
            rng = ScaleRange(delta, theta)
        except ScaleRangeTooDeepError:
            assume(False)
        s = u * cloud.dimension_n
        tree = _bbox_tree(cloud, rng)
        level_of = {tree.scale * 2.0**-level: level for level in range(tree.top, tree.bottom + 1)}
        cover = optimal_cover_dyadic(cloud, rng, s)
        assert all(c.diameter == tree.diameter(level_of[c.side]) for c in cover.sets)
        assert cover.cost == cover_cost(cover.diameters(), s)
        if cloud.dimension_n == 1 and theta > 0.0:
            cover = optimal_cover_1d(cloud, rng, u)
            assert set(cover.diameters()) <= set(geometric_menu(rng.lo, rng.hi, 16))
            assert cover.cost == cover_cost(cover.diameters(), u)


def bbox_anchor(cloud: PointCloud):
    """The anchor of optimal_cover_dyadic: the lower bbox corner and the widest extent."""
    mins, maxs = cloud.bbox
    return mins, max(hi - lo for lo, hi in zip(mins, maxs)) or 1.0


@st.composite
def anchored_clouds(draw):
    """A cloud with chains of near-twins, anchored at its bbox or the unit box.

    Each twin moves one coordinate of an earlier point by 2**-k, k in
    10..45, so cells keep splitting down to MAX_DEPTH, where the sort keys
    of R^2 and R^3 span two int64 words, and a point's twins on two axes
    at two depths sort differently depth-first than lexicographically.
    """
    unit_box = draw(st.booleans())
    cloud = draw(point_clouds(unit_box=unit_box))
    n, pts = cloud.dimension_n, list(cloud.points)
    for _ in range(draw(st.integers(0, 12))):
        p = draw(st.sampled_from(pts))
        axis, step = draw(st.integers(0, n - 1)), 2.0 ** -draw(st.integers(10, 45))
        x = p[axis] + step if p[axis] + step <= 1.0 else p[axis] - step
        pts.append(p[:axis] + (x,) + p[axis + 1 :])
    cloud = PointCloud.from_points(pts, dimension_n=n)
    if unit_box:
        return cloud, (0.0,) * n, 1.0
    return cloud, *bbox_anchor(cloud)


def assert_tree_equals_reference(cloud, origin, scale, top, bottom):
    tree = _DyadicTree(cloud, origin, scale, top, bottom)
    cells, parents, first_point = unique_dyadic_tree(cloud, origin, scale, top, bottom)
    assert len(tree.cells) == len(cells) and len(tree.parents) == len(parents)
    assert all(np.array_equal(a, b) for a, b in zip(tree.cells, cells))
    assert all(np.array_equal(a, b) for a, b in zip(tree.parents, parents))
    assert np.array_equal(tree.first_point, first_point)


class TestDyadicTreeMatchesUniqueBuild:
    @settings(max_examples=300, deadline=None)
    @given(anchored=anchored_clouds(), data=st.data())
    def test_cells_parents_first_point_equal_reference(self, anchored, data):
        bottom = data.draw(st.integers(0, MAX_DEPTH))
        top = data.draw(st.integers(0, bottom))
        assert_tree_equals_reference(*anchored, top, bottom)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "top, bottom", [(0, MAX_DEPTH), (5, MAX_DEPTH), (0, 63 // 2 + 1), (3, 63 // 3 + 4)]
    )
    def test_keys_spanning_two_words(self, n, top, bottom):
        # bottom - top > 63 // n: the child bits fill more than one word.
        # Each point p has a twin one bottom cell up on the last axis and
        # one inside p's bottom cell on the first axis.  Lexicographically
        # the last-axis twin sorts between p and the first-axis twin, but
        # depth-first after both, and only the last word, which holds the
        # bottom level, tells it from their cell.
        rnd = random.Random(n * 100 + bottom)
        pts = []
        for _ in range(30):
            p = tuple(0.1 + 0.8 * rnd.random() for _ in range(n))
            pts += [p, p[:-1] + (p[-1] + 2.0**-bottom,), (p[0] + 2.0 ** -(bottom + 3),) + p[1:]]
        cloud = PointCloud.from_points(pts, dimension_n=n)
        assert_tree_equals_reference(cloud, *bbox_anchor(cloud), top, bottom)
        assert_tree_equals_reference(cloud, (0.0,) * n, 1.0, top, bottom)

    @settings(max_examples=150, deadline=None)
    @given(anchored=anchored_clouds(), data=st.data())
    def test_cost_equals_fsum_over_chosen_cells(self, anchored, data):
        cloud = anchored[0]
        bottom = data.draw(st.integers(0, MAX_DEPTH))
        tree = _DyadicTree(cloud, *anchored[1:], data.draw(st.integers(0, bottom)), bottom)
        n = cloud.dimension_n
        for s in (0.0, float(n), data.draw(st.floats(0.0, n))):
            powers, rows = tree.chosen(s)
            assert tree.cost(s) == math.fsum(np.repeat(powers, [len(r) for r in rows]))


@st.composite
def dp_cells(draw, max_points: int = 30):
    """A 1-D cloud, a band with theta > 0, its menu size and menu, and a batch of s.

    Half the cells are exactly dyadic: most of max_points slots of a
    1/16 grid, the band [2**-b, 2**-a] and the menu of every power of two
    in it.  There covers with different set counts often tie exactly at
    s = 1: in about 7% of such cells, taking the larger set and taking
    fewer sets give different covers.  The batch holds 0 and 1 and
    arbitrary or 1/64-grid values in [0, 1].
    """
    if draw(st.booleans()):
        slots = st.lists(st.sampled_from("xxxxx-"), min_size=max_points, max_size=max_points)
        ks = [k for k, c in enumerate(draw(slots)) if c == "x"] or [0]
        cloud = PointCloud.from_points([(k / 16.0,) for k in ks])
        a = draw(st.integers(1, 2))
        b = draw(st.integers(a + 1, a + 2))
        rng, size = ScaleRange(2.0**-a, a / b), b - a + 1
        menu = geometric_menu(rng.lo, rng.hi, size)
        assume(rng.lo == 2.0**-b and all(math.frexp(d)[0] == 0.5 for d in menu))
    else:
        cloud = draw(point_clouds(max_points=max_points, dimension=1))
        try:
            rng = ScaleRange(draw(st.floats(1e-3, 0.9)), draw(st.floats(0.05, 1.0)))
        except ScaleRangeTooDeepError:
            assume(False)
        size = draw(st.integers(2, 16))
        menu = geometric_menu(rng.lo, rng.hi, size)
    extra = st.one_of(st.floats(0.0, 1.0), st.integers(0, 64).map(lambda k: k / 64.0))
    ss = [0.0, 1.0] + draw(st.lists(extra, max_size=15))
    return cloud, rng, size, menu, draw(st.permutations(ss))


class TestIntervalDPMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(cell=dp_cells())
    def test_batched_cost_and_cover_equal_scalar_dp(self, cell):
        cloud, rng, size, menu, ss = cell
        xs = cloud.array[:, 0]
        oracle = ScalarIntervalDP(xs.tolist(), menu)
        assert _IntervalDP(xs, menu).costs(ss) == [oracle.cost(s) for s in ss]
        for s in {1.0, *ss[:3]}:
            cover = optimal_cover_1d(cloud, rng, s, scale_menu_size=size)
            picks = oracle.cover(s)
            assert [c.diameter for c in cover.sets] == [d for _, d in picks]
            assert [c.center for c in cover.sets] == [(x + d / 2.0,) for x, d in picks]

    @settings(max_examples=100, deadline=None)
    @given(cell=dp_cells(max_points=10))
    def test_batched_cost_equals_brute_force(self, cell):
        cloud, _, _, menu, ss = cell
        xs = cloud.array[:, 0]
        for s, got in zip(ss, _IntervalDP(xs, menu).costs(ss)):
            expected = brute_force_menu_cost(xs.tolist(), menu, s)
            assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    @settings(max_examples=100, deadline=None)
    @given(cell=dp_cells())
    def test_cost_strictly_decreasing_in_s(self, cell):
        # all diameters are below 1; s values closer than 1e-6 may round
        # to equal powers, so only well-separated pairs are compared
        cloud, _, _, menu, ss = cell
        ss = sorted(set(ss))
        costs = _IntervalDP(cloud.array[:, 0], menu).costs(ss)
        for (s, a), (t, b) in zip(zip(ss, costs), zip(ss[1:], costs[1:])):
            if t - s > 1e-6:
                assert a > b


@st.composite
def fp_dp_cells(draw):
    """xs, the default menu and a batch of s: a dense fp cloud in a coarser band.

    Bands of theta < 1 hold runs of many states; in 4 of the 12 such
    cells, the greedy runs would pass max_run states without the cap.
    theta = 1 gives a one-entry menu, where every run is a single state.
    """
    p, delta = draw(st.sampled_from([(0.5, 1e-3), (1.0, 1e-4)]))
    xs = fp_points(p, delta, theta_min=0.5).array[:, 0]
    rng = ScaleRange(draw(st.sampled_from([0.1, 0.03, 0.01])), draw(st.sampled_from([0.5, 0.75, 1.0])))
    ss = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=_IntervalDP.batch_size))
    return xs, geometric_menu(rng.lo, rng.hi, 16), ss


class TestIntervalDPRuns:
    @settings(max_examples=60, deadline=None)
    @given(cell=st.one_of(fp_dp_cells(), dp_cells().map(lambda c: (c[0].array[:, 0], c[3], c[4]))))
    def test_table_equals_serial_pass_bit_for_bit(self, cell):
        xs, menu, ss = cell
        dp = _IntervalDP(xs, menu)
        expected = serial_interval_table(dp, ss)
        assert np.array_equal(dp.table(ss).view(np.int64), expected.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(cell=fp_dp_cells())
    def test_runs_tile_the_states_from_the_right(self, cell):
        xs, menu, _ = cell
        dp = _IntervalDP(xs, menu)
        top = len(dp.jump)
        for a, b in dp.blocks:  # right to left and disjoint; the states between are one-state runs
            assert a + 2 <= b <= top and b - a <= _IntervalDP.max_run
            assert dp.jump[a:b].min() >= b  # a run reads only finished costs
            top = a
        assert (dp.jump[:, 0] > np.arange(len(dp.jump))).all()  # so does a one-state run

    def test_fp_cells_hold_capped_and_single_state_runs(self):
        xs = fp_points(0.5, 1e-3, theta_min=0.5).array[:, 0]
        lengths = {}
        for theta in (0.5, 1.0):
            rng = ScaleRange(0.03, theta)
            dp = _IntervalDP(xs, geometric_menu(rng.lo, rng.hi, 16))
            lengths[theta] = {b - a for a, b in dp.blocks}
        assert max(lengths[0.5]) == _IntervalDP.max_run and not lengths[1.0]


class TestRefineCover:
    def test_identity_when_already_inside(self):
        delta = 0.01
        inner = RestrictedCover(
            [interval(0.2, delta**0.5 / 2)], ScaleRange(delta**0.25, 0.25), 0.3
        )
        refined = refine_cover(inner, 0.5, delta**0.5)
        assert refined.sets == inner.sets

    def test_split_piece_count_within_bound(self):
        # one interval of length delta**theta split at phi: at most
        # 4 * delta**(theta-phi) pieces (here 12); direct construction uses 4
        delta, theta, phi = 0.01, 0.25, 0.5
        cover = RestrictedCover(
            [interval(0.5, delta**theta)], ScaleRange(delta**theta, theta), 0.3
        )
        refined = refine_cover(cover, phi, delta**phi)
        assert len(refined.sets) <= int(4 * delta ** (theta - phi))
        assert len(refined.sets) == 4
        assert all(c.diameter == pytest.approx(delta**phi) for c in refined.sets)

    def test_pieces_tile_the_original(self):
        delta = 0.01
        cover = RestrictedCover(
            [interval(0.5, delta**0.25)], ScaleRange(delta**0.25, 0.25), 0.3
        )
        refined = refine_cover(cover, 0.5, delta**0.5)
        original = cover.sets[0]
        left = original.center[0] - original.side / 2
        right = original.center[0] + original.side / 2
        for x in [left + k * (right - left) / 200 for k in range(201)]:
            assert any(c.contains((x,), tol=1e-9) for c in refined.sets)

    def test_cost_inequality_random(self):
        rnd = random.Random(7)
        for _ in range(50):
            theta = rnd.uniform(0.1, 0.6)
            phi = rnd.uniform(theta + 0.05, 0.9)
            delta = rnd.uniform(0.001, 0.2)
            s = rnd.uniform(0.1, 0.9)
            band_hi = delta**theta
            sets = []
            for _ in range(rnd.randint(1, 6)):
                diam = math.exp(rnd.uniform(math.log(delta), math.log(band_hi)))
                sets.append(interval(rnd.random(), diam))
            old = RestrictedCover(sets, ScaleRange(band_hi, theta), s)
            new = refine_cover(old, phi, delta**phi)
            n = 1
            t = (n * phi + theta * (s - n)) / phi + 1e-12
            assert cover_cost(new.diameters(), t) <= (1 + 4) * cover_cost(
                old.diameters(), s
            ) * (1 + 1e-9)

    @pytest.mark.parametrize(
        "delta, theta, phi, s",
        [
            (0.01, 0.25, 0.5, 0.0),
            (0.02, 0.3, 0.7, 0.0),
            (1e-3, 0.25, 1 / 3, 0.0),
            (0.05, 0.5, 0.75, 0.2),
        ],
    )
    def test_cubes_in_the_plane(self, worked_carpet, delta, theta, phi, s):
        # a piece's side is new_hi / sqrt(2), so its diameter may miss new_hi by an ulp
        cloud = carpet_points(worked_carpet, 4)
        cover = optimal_cover_dyadic(cloud, ScaleRange(delta**theta, theta), s)
        refined = refine_cover(cover, phi, delta**phi)
        new_hi = refined.range.hi
        pieces = [c for c in refined.sets if c not in cover.sets]
        assert pieces and refined.covers(cloud)
        assert all(abs(c.diameter - new_hi) <= math.ulp(new_hi) for c in pieces)
        lo = refined.effective_lo
        assert all(lo * (1 - 1e-12) <= d <= new_hi * (1 + 1e-12) for d in refined.diameters())

    def test_phi_must_exceed_theta(self):
        cover = RestrictedCover(
            [interval(0.5, 0.05)], ScaleRange(0.1, 0.5), 0.3
        )
        with pytest.raises(ValidationError):
            refine_cover(cover, 0.5, 0.01)


class TestFpWitnessCover:
    def test_interval_count_matches_formula(self):
        p, delta, theta, s = 1.0, 1e-4, 0.5, 1.0 / 3.0
        cov = fp_witness_cover(p, delta, theta, s)
        m_count = math.ceil(delta ** (-(s + theta * (1 - s)) / (p + 1)))
        tail = math.ceil(m_count ** (-p) / delta**theta)
        assert len(cov.sets) == m_count + tail

    def test_covers_matching_truncation(self):
        cov = fp_witness_cover(1.0, 1e-4, 0.5, 1.0 / 3.0)
        assert cov.covers(fp_points(1.0, 1e-4))

    def test_cost_bounded_at_critical_exponent(self):
        costs = [
            fp_witness_cover(1.0, 10.0**-j, 0.5, 1.0 / 3.0).cost for j in range(2, 7)
        ]
        assert max(costs) <= 2.3  # proof bound: 2 + vanishing terms

    def test_cost_vanishes_above_critical(self):
        s = 1.0 / 3.0 + 0.05
        costs = [fp_witness_cover(1.0, 10.0**-j, 0.5, s).cost for j in range(2, 7)]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert costs[-1] < costs[0] / 1.3

    def test_cost_diverges_below_critical(self):
        s = 1.0 / 3.0 - 0.05
        costs = [fp_witness_cover(1.0, 10.0**-j, 0.5, s).cost for j in range(2, 7)]
        assert costs[-1] > costs[0]
        assert costs[-1] > 3.0

    def test_band_is_delta_to_delta_theta(self):
        cov = fp_witness_cover(2.0, 1e-3, 0.5, 0.2)
        assert cov.effective_lo == 1e-3 and cov.range.hi == 1e-3**0.5


class TestRestrictedCoverValidation:
    def test_out_of_band_diameter_rejected(self):
        with pytest.raises(ValidationError):
            RestrictedCover([interval(0.5, 0.2)], ScaleRange(0.1, 0.5), 0.5)
