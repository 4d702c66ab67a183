import itertools
import math
import random
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dimspect import (
    AtomicMeasure,
    DepthLimitError,
    PointCloud,
    RangeTooNarrowError,
    ScaleRange,
    ScaleRangeTooDeepError,
    ValidationError,
    build_frostman_measure,
    carpet_points,
    check_mdp,
    fp_points,
    fp_witness_measure,
    optimal_cover_dyadic,
    separated_witness_measure,
)
from dimspect import frostman
from dimspect.covers import _bbox_levels, _cascade_tree, _DyadicTree, _level_sum, _rescale
from dimspect.frostman import MAX_BALL_SAMPLES, _ball_masses, _cap_runs
from conftest import point_clouds, random_carpet
from oracles import (
    cascade_level_masses,
    full_scan_ball_mass,
    loop_cap_cascade,
    loop_separated_points,
    split_cap_runs,
)


def witness_delta(p: float, theta: float, atoms: int = 50) -> float:
    """delta making the witness atom count an exact integer (no ceiling slack)."""
    s = theta / (p + theta)
    return atoms ** (-(p + 1.0) / (s + theta * (1.0 - s)))


class TestBuilder:
    def test_single_point_unit_atom(self):
        pc = PointCloud.from_points([(0.3,)])
        res = build_frostman_measure(pc, s=0.5, delta=0.05, theta=0.5)
        assert len(res.measure.atoms) == 1
        assert res.measure.total == pytest.approx(1.0, abs=1e-12)

    def test_probability_measure(self):
        pts = fp_points(1.0, 0.01)
        res = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5, seed=0)
        assert res.measure.total == pytest.approx(1.0, abs=1e-9)

    def test_cascade_caps_hold_exhaustively(self):
        pts = fp_points(1.0, 0.01)
        res = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5)
        cascade, level_masses = res.cascade, cascade_level_masses(pts, res)
        for level in range(cascade.stop_level, cascade.base_level + 1):
            cap = cascade.cap(level)
            for mass in level_masses[level].values():
                assert mass <= cap * (1 + 1e-12)

    def test_some_ancestor_attains_cap(self):
        pts = fp_points(1.0, 0.01)
        res = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5)
        cascade, level_masses = res.cascade, cascade_level_masses(pts, res)
        base = cascade.base_level
        for idx in level_masses[base]:
            attained = False
            for level in range(cascade.stop_level, cascade.base_level + 1):
                ancestor = tuple(c >> (base - level) for c in idx)
                mass = level_masses[level][ancestor]
                if abs(mass - cascade.cap(level)) <= 1e-12 * cascade.cap(level):
                    attained = True
                    break
            assert attained, f"no capped ancestor above cube {idx}"

    def test_uniform_midpoints_small_constant(self):
        m = 6
        pc = PointCloud.from_points([((k + 0.5) / 2**m,) for k in range(2**m)])
        res = build_frostman_measure(pc, s=1.0, delta=0.25, theta=0.5, seed=0)
        assert res.constant <= 4.0 * 2.0**1.0

    def test_ball_bound_on_random_queries(self):
        import random

        pts = fp_points(1.0, 0.01)
        res = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5, seed=0)
        rnd = random.Random(99)  # fresh queries, not the builder's probes
        atoms = res.measure.atoms
        lo, hi = res.range.lo, res.range.hi
        for _ in range(200):
            x = atoms[rnd.randrange(len(atoms))][0][0] + rnd.uniform(-1e-3, 1e-3)
            r = math.exp(rnd.uniform(math.log(lo), math.log(hi)))
            mass = math.fsum(m for (px,), m in atoms if abs(px - x) <= r)
            assert mass <= res.constant * r**0.3 * (1 + 1e-9)

    def test_depth_limit_on_a_huge_cloud(self):
        # base cubes of side >= 1e-12 in a bounding cube of side 1e300
        pc = PointCloud.from_points([(0.0,), (1e300,)])
        with pytest.raises(DepthLimitError):
            build_frostman_measure(pc, s=0.5, delta=0.001, theta=0.25)

    def test_range_too_narrow(self):
        pts = fp_points(1.0, 0.01)
        with pytest.raises(RangeTooNarrowError):
            build_frostman_measure(pts, s=0.3, delta=0.01, theta=1.0)

    def test_rejects_theta_zero_and_bad_s(self):
        pts = fp_points(1.0, 0.01)
        with pytest.raises(ValidationError):
            build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.0)
        with pytest.raises(ValidationError):
            build_frostman_measure(pts, s=0.0, delta=0.01, theta=0.5)

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_s(self, s):
        # an infinite s used to zero every mass and divide by zero
        with pytest.raises(ValidationError):
            build_frostman_measure(fp_points(1.0, 0.01), s=s, delta=0.01, theta=0.5)

    def test_refuses_s_whose_smallest_power_is_subnormal(self):
        # lo = 0.01**2 = 1e-4: lo**76 is normal, lo**77 = 1.0e-308 is not, and
        # at s = 78 (lo**s = 1e-312) the worst ratio used to overflow to inf
        pts = PointCloud.from_points([(0.1,), (0.2,), (0.7,)])
        result = build_frostman_measure(pts, s=76.0, delta=0.01, theta=0.5)
        assert math.isfinite(result.constant)
        for s in (77.0, 78.0):
            with pytest.raises(ValidationError, match=r"s=7\d\.0 .*m=13 .*lo=0\.0001"):
                build_frostman_measure(pts, s=s, delta=0.01, theta=0.5)

    def test_rejects_negative_ball_samples(self):
        pts = fp_points(1.0, 0.01)
        with pytest.raises(ValidationError):
            build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5, ball_samples=-5)
        # 0 still probes the band edges
        result = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5, ball_samples=0)
        assert result.worst_ratio > 0.0

    def test_rejects_oversized_ball_samples(self):
        # refused before a probe is drawn, by the builder and the check alike
        pts = fp_points(1.0, 0.01)
        mu = AtomicMeasure.from_atoms([((0.25,), 0.5), ((0.75,), 0.5)])
        for samples in (MAX_BALL_SAMPLES + 1, 10**12):
            with pytest.raises(ValidationError, match="ball_samples"):
                build_frostman_measure(pts, 0.3, 0.01, 0.5, ball_samples=samples)
            with pytest.raises(ValidationError, match="ball_samples"):
                check_mdp([(1e-3, mu)], 0.5, 0.5, 1.0, 100.0, ball_samples=samples)

    def test_deterministic(self):
        pts = fp_points(1.0, 0.01)
        a = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5, seed=0)
        b = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5, seed=0)
        assert a.measure.atoms == b.measure.atoms and a.constant == b.constant


def _cascade_scale(cloud: PointCloud) -> float:
    """Side of a level-0 cube: 1 on the unit box, else the bounding cube's."""
    mins, maxs = cloud.bbox
    return 1.0 if min(mins) >= 0.0 and max(maxs) <= 1.0 else cloud.side


class TestCascadeLevels:
    """Base and stop levels are measured in the tree's own units."""

    @settings(max_examples=150, deadline=None)
    @given(
        cloud=point_clouds(max_points=20),
        delta=st.floats(0.01, 0.5),
        theta=st.floats(0.2, 1.0),
    )
    def test_stop_diameter_and_base_side_fit_the_band(self, cloud, delta, theta):
        try:
            res = build_frostman_measure(cloud, 1.0, delta, theta, ball_samples=0)
        except (RangeTooNarrowError, ScaleRangeTooDeepError):
            assume(False)
        cascade, lo = res.cascade, res.range.lo
        scale, root = _cascade_scale(cloud), math.sqrt(cloud.dimension_n)
        base, stop = cascade.base_level, cascade.stop_level
        assert stop <= base
        assert scale * root * 2.0**-stop <= delta * (1 + 1e-12)
        assert stop == 0 or scale * root * 2.0 ** -(stop - 1) > delta
        assert scale * 2.0**-base >= lo * (1 - 1e-9)
        assert scale * 2.0 ** -(base + 1) < lo

    @pytest.mark.parametrize(
        "points, levels",
        [([(0.25,), (0.75,)], (4, 8)), ([(2.0,), (4.0,)], (5, 9))],
        ids=["unit-box", "side-2"],
    )
    def test_exact_ties_at_both_band_ends(self, points, levels):
        # delta = 2**-4 and lo = delta**2 = 2**-8: in R^1 a cube's diameter is
        # its side, so both ends of the band are met exactly
        res = build_frostman_measure(PointCloud.from_points(points), 1.0, 0.0625, 0.5)
        assert res.range.lo == 2.0**-8
        assert (res.cascade.stop_level, res.cascade.base_level) == levels


class TestCascadeMatchesLoops:
    @settings(max_examples=150, deadline=None)
    @given(
        cloud=point_clouds(max_points=60),
        u=st.floats(0.05, 1.0),
        delta=st.floats(0.01, 0.5),
        theta=st.floats(0.2, 1.0),
    )
    def test_atoms_and_norm_equal_reference(self, cloud, u, delta, theta):
        s = u * cloud.dimension_n
        try:
            res = build_frostman_measure(cloud, s, delta, theta, ball_samples=0)
        except (RangeTooNarrowError, ScaleRangeTooDeepError):
            assume(False)
        cascade = res.cascade
        origin, scale = _rescale(cloud)
        atoms, norm, _ = loop_cap_cascade(
            cloud, s, cascade.base_level, cascade.stop_level, origin, scale
        )
        assert res.measure.atoms == tuple(atoms)
        assert cascade.norm == norm


@st.composite
def carpet_and_fp_clouds(draw) -> PointCloud:
    """A random carpet at a depth of at most 3,000 points, or an fp cloud."""
    if draw(st.booleans()):
        spec = random_carpet(random.Random(draw(st.integers(0, 2**32))))
        deepest = max(1, int(math.log(3000) / math.log(len(spec.digits))))
        return carpet_points(spec, draw(st.integers(1, deepest)))
    return fp_points(draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.sampled_from([1e-2, 1e-3])))


class TestCascadeIsDyadicMinCut:
    """The cap cascade's total mass is the optimal dyadic cover's cost on the cascade's tree.

    Capping each cube's mass at 2**(-level * s) bottom-up is the same
    recursion as min(diam**s, sum of the children's costs), in units of
    (scale * sqrt(n))**s; only the floats round differently.  The caps
    round level * s before the power, which moves 2**(-level * s) by up to
    ulp(level * s) / 2 * ln 2 relative, about 16 ulps at base level 24
    and s = 1.7; the rest is bounded by 8 ulps.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        cloud=carpet_and_fp_clouds(),
        u=st.floats(0.05, 1.0),
        delta=st.floats(0.01, 0.5),
        theta=st.floats(0.2, 1.0),
    )
    def test_norm_is_min_cut_within_8_ulps(self, cloud, u, delta, theta):
        n = cloud.dimension_n
        s = u * n
        try:
            res = build_frostman_measure(cloud, s, delta, theta, ball_samples=0)
        except (RangeTooNarrowError, ScaleRangeTooDeepError):
            assume(False)
        origin, scale, top, bottom = _cascade_tree(cloud, res.range.lo, delta)
        assert (top, bottom) == (res.cascade.stop_level, res.cascade.base_level)
        tree = _DyadicTree(cloud, origin, scale, top, bottom)
        cut = _level_sum(*tree.counts(s))
        exponent = cut * math.ulp(bottom * s) / 2.0 * math.log(2.0)
        norm = res.cascade.norm * (scale * math.sqrt(n)) ** s
        assert abs(norm - cut) <= 8 * math.ulp(cut) + exponent

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(0.1, 0.9), delta=st.floats(0.01, 0.1), theta=st.floats(0.25, 1.0))
    @example(s=0.9, delta=0.01, theta=0.25)  # 8.0 ulps apart, and 8.5 ulps of exponent
    def test_norm_is_the_optimal_cover_cost_through_the_public_api(self, s, delta, theta):
        # fp_points(1, 1e-3) spans [0, 1]: the cascade's unit box is the cover's
        # bounding box, and in 1-D a cube's side is its diameter, so the two
        # trees are one, and the cascade's norm is the optimal cover's cost
        cloud = fp_points(1.0, 1e-3)
        try:
            rng = ScaleRange(delta, theta)
            res = build_frostman_measure(cloud, s, delta, theta, ball_samples=0)
        except (RangeTooNarrowError, ScaleRangeTooDeepError):
            assume(False)
        assert (res.cascade.stop_level, res.cascade.base_level) == _bbox_levels(cloud, rng)
        cost = optimal_cover_dyadic(cloud, rng, s).cost
        exponent = cost * math.ulp(res.cascade.base_level * s) / 2.0 * math.log(2.0)
        assert abs(res.cascade.norm - cost) <= 8 * math.ulp(cost) + exponent


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


@st.composite
def run_near_cap(draw, cap: float) -> list[float]:
    """Masses whose exact total sits within a few ulps of cap, or anywhere below it.

    equal: k copies of cap / k, nudged; big-and-tiny: about cap, then
    half-ulp terms that a float sum drops one by one but fsum adds up.
    """
    k = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["equal", "big-and-tiny", "random"]))
    if kind == "equal":
        return [_nudged(cap / k, draw(st.integers(-2, 2)))] * k
    if kind == "big-and-tiny":
        half_ulp = math.ulp(cap) / 2.0
        tiny = st.sampled_from([half_ulp / 2.0, half_ulp, 1.5 * half_ulp])
        big = _nudged(cap, draw(st.integers(-3, 1)))
        return [big] + [draw(tiny) for _ in range(k - 1)]
    return draw(st.lists(st.floats(cap * 1e-3, cap), min_size=k, max_size=k))


class TestCapRunsMatchLoop:
    """The reduceat pre-test sends every run whose fsum may exceed the cap to fsum."""

    @settings(max_examples=300, deadline=None)
    @given(
        cap=st.one_of(
            st.floats(1e-30, 1.0),
            st.integers(-60, 0).map(lambda e: 2.0**e),
            st.sampled_from([1e-310, 2.0**-1030]),  # subnormal: every run is summed
        ),
        data=st.data(),
    )
    def test_equal_to_fsum_per_run(self, cap, data):
        runs = data.draw(st.lists(run_near_cap(cap), min_size=1, max_size=8))
        masses = np.array([m for run in runs for m in run])
        begins = np.cumsum([0] + [len(run) for run in runs[:-1]])
        expected = split_cap_runs(masses, begins, cap)
        _cap_runs(masses, begins, cap)
        assert masses.tolist() == expected.tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        cap=st.one_of(st.floats(1e-30, 1.0), st.integers(-60, 0).map(lambda e: 2.0**e)),
        data=st.data(),
    )
    def test_uniform_and_mixed_runs_interleaved(self, cap, data):
        # long runs of equal masses about cap / k, runs of unequal masses
        # about cap, and runs far below it, in any order, the last run
        # often a suspect that ends at the last mass
        kinds = st.sampled_from(["uniform", "mixed", "below"])
        runs = []
        for kind in data.draw(st.lists(kinds, min_size=1, max_size=8)):
            if kind == "uniform":
                k = data.draw(st.integers(1, 4096))
                runs.append([_nudged(cap / k, data.draw(st.integers(-2, 2)))] * k)
            elif kind == "mixed":
                runs.append(data.draw(run_near_cap(cap).filter(lambda r: min(r) < max(r))))
            else:
                runs.append([cap * 1e-6] * data.draw(st.integers(1, 5)))
        masses = np.array([m for run in runs for m in run])
        begins = np.cumsum([0] + [len(run) for run in runs[:-1]])
        expected = split_cap_runs(masses, begins, cap)
        _cap_runs(masses, begins, cap)
        assert masses.tolist() == expected.tolist()

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 1000, 4095, 4096])
    @pytest.mark.parametrize("m", [2.0**-12, 0.1, 1.0 / 3.0, 1e-310])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_uniform_run_at_the_cap(self, k, m, ulps):
        # a cap equal to k * m leaves the run as it is (the test is total >
        # cap); one ulp below scales it, one ulp above does not; the run
        # ends at the last mass, after a run far below the cap, and no
        # uniform run is summed with fsum
        cap = _nudged(k * m, ulps)
        masses = np.array([m * 1e-6] * 3 + [m] * k)
        begins = np.array([0, 3])
        expected = split_cap_runs(masses, begins, cap)
        with mock.patch.object(frostman.math, "fsum", side_effect=AssertionError("fsum")):
            _cap_runs(masses, begins, cap)
        assert masses.tolist() == expected.tolist()
        if m >= sys.float_info.min:  # a subnormal m scaled by 1 - 1 ulp rounds back to m
            assert (masses[3:] != m).any() == (ulps < 0)

    @pytest.mark.parametrize("last", ["uniform", "mixed"])
    def test_suspect_runs_back_to_back_up_to_the_end(self, last):
        # every run a suspect, each begin another's end, the last ending at len(masses)
        cap = 0.75
        tail = [0.5, 0.5] if last == "uniform" else [0.5, 0.25 + 2**-30]
        runs = [[0.25, 0.5 + 2**-40], [0.5] * 3, [0.8], tail]
        masses = np.array([m for run in runs for m in run])
        begins = np.array([0, 2, 5, 6])
        expected = split_cap_runs(masses, begins, cap)
        _cap_runs(masses, begins, cap)
        assert masses.tolist() == expected.tolist()
        assert (masses[-2:] != tail).all()

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.one_of(
            st.floats(sys.float_info.min, 1.0),
            st.floats(5e-324, sys.float_info.min, exclude_max=True),  # subnormal
        ),
        k=st.integers(1, 10**6),
    )
    @example(m=0.1, k=10**6)
    @example(m=5e-324, k=3)
    def test_product_of_equal_masses_is_their_fsum(self, m, k):
        # both round the exact k * m correctly, so a uniform run's total is its fsum
        expected = math.fsum([m] * k)
        assert float(k) * m == expected
        assert (np.array([k]) * np.array([m]))[0] == expected


class TestCascadeNearTheCap:
    """Cube totals a few ulps from their cap: the float pre-test must defer to fsum."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 2),
        grid=st.integers(2, 5),
        nudge=st.integers(-3, 3),
        delta=st.floats(0.05, 0.7),
        theta=st.floats(0.2, 1.0),
        data=st.data(),
    )
    def test_atoms_and_norm_equal_reference(self, n, grid, nudge, delta, theta, data):
        # every cell of a 2**-grid lattice in the unit box, less a few: at
        # s = n a full cube's equal base masses sum to exactly its cap, and
        # s a few ulps off puts the total just above or below it
        cells = list(itertools.product(range(2**grid), repeat=n))
        removed = data.draw(st.sets(st.sampled_from(cells), max_size=3))
        cloud = PointCloud.from_points(
            [tuple(c / 2**grid for c in cell) for cell in cells if cell not in removed],
            dimension_n=n,
        )
        s = _nudged(float(n), nudge)
        try:
            res = build_frostman_measure(cloud, s, delta, theta, ball_samples=0)
        except (RangeTooNarrowError, ScaleRangeTooDeepError):
            assume(False)
        cascade = res.cascade
        origin, scale = _rescale(cloud)
        atoms, norm, _ = loop_cap_cascade(
            cloud, s, cascade.base_level, cascade.stop_level, origin, scale
        )
        assert res.measure.atoms == tuple(atoms)
        assert cascade.norm == norm


def ball_masses(atoms, probes) -> list[float]:
    """_ball_masses of the measure of atoms at (x, r) probes, as a centres and a radii array."""
    centres = np.array([x for x, _ in probes], dtype=float).reshape(len(probes), -1)
    radii = np.array([r for _, r in probes], dtype=float)
    return _ball_masses(AtomicMeasure.from_atoms(atoms), centres, radii)


class TestBallMassesMatchFullScan:
    """The windowed, pre-tested ball masses equal the full scan's with ==."""

    @settings(max_examples=200, deadline=None)
    @given(cloud=point_clouds(max_points=40), data=st.data())
    def test_equal_to_full_scan(self, cloud, data):
        pts = cloud.points
        masses = data.draw(
            st.lists(st.floats(1e-6, 1.0), min_size=len(pts), max_size=len(pts))
        )
        atoms = tuple(zip(pts, masses))
        coord = st.floats(-1.0, 6.0, allow_nan=False, allow_infinity=False)
        probes = []
        for _ in range(data.draw(st.integers(1, 10))):
            x = data.draw(
                st.one_of(st.sampled_from(pts), st.tuples(*[coord] * cloud.dimension_n))
            )
            kind = data.draw(st.sampled_from(["log-uniform", "distance", "axis"]))
            if kind == "log-uniform":
                r = math.exp(data.draw(st.floats(math.log(1e-4), math.log(10.0))))
            else:
                # an atom exactly on the sphere, or on a face of the box
                p = data.draw(st.sampled_from(pts))
                diffs = [a - b for a, b in zip(p, x)]
                if kind == "distance":
                    r = math.sqrt(math.fsum(d**2 for d in diffs))
                else:
                    r = abs(data.draw(st.sampled_from(diffs)))
                r = data.draw(
                    st.sampled_from([r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)])
                )
            probes.append((x, r))
        expected = [full_scan_ball_mass(atoms, x, r) for x, r in probes]
        assert ball_masses(atoms, probes) == expected

    def test_radii_whose_square_underflows(self):
        # where r*r rounds to 0 or to a subnormal, the exact test keeps
        # atoms outside the box, and the filter must let them through
        atoms = (
            ((0.0,), 0.125),
            ((1e-190,), 0.25),
            ((1.0000001e-160,), 0.5),
            ((1.0,), 0.125),
        )
        probes = [((0.0,), 1e-200), ((0.0,), 5e-324), ((0.0,), 1e-160)]
        expected = [full_scan_ball_mass(atoms, x, r) for x, r in probes]
        assert expected == [0.375, 0.375, 0.875]
        assert ball_masses(atoms, probes) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_shuffled_atoms(self, n, data):
        # a measure read from JSON need not be sorted by coordinate 0
        cloud = data.draw(point_clouds(max_points=40, dimension=n))
        pts = data.draw(st.permutations(cloud.points))
        masses = data.draw(
            st.lists(st.floats(1e-6, 1.0), min_size=len(pts), max_size=len(pts))
        )
        atoms = tuple(zip(pts, masses))
        probes = [
            (data.draw(st.sampled_from(pts)), data.draw(st.floats(1e-4, 10.0)))
            for _ in range(data.draw(st.integers(1, 10)))
        ]
        expected = [full_scan_ball_mass(atoms, x, r) for x, r in probes]
        assert ball_masses(atoms, probes) == expected

    def test_coordinates_whose_squares_overflow(self):
        # squares of 1e200 overflow: numpy reads inf without a warning,
        # the exact test reads inf for the OverflowError, and both agree
        big = 1e200
        atoms = (
            ((-big, 0.0), 0.0625),
            ((0.0, 0.0), 0.0625),
            ((big, -big), 0.125),
            ((big, 0.0), 0.125),
            ((big, 1.0), 0.25),
            ((math.nextafter(big, math.inf), 0.5), 0.375),
        )
        probes = [
            ((big, 0.0), 1.0),
            ((big, 0.0), 2.0),
            ((big, 0.5), 1e150),
            ((0.0, 0.0), 1e154),
            ((-big, 0.0), 1e154),
            ((big, -big), 1.0),
            # r*r overflows, and so does every squared distance it is
            # compared with: each reads inf, and every atom is inside
            ((0.0, 0.0), 1e200),
            ((0.0, 0.0), 1e160),
            ((-big, 0.0), 1e155),
        ]
        expected = [full_scan_ball_mass(atoms, x, r) for x, r in probes]
        assert expected == [0.375, 0.375, 0.375, 0.0625, 0.0625, 0.125, 1.0, 1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ball_masses(atoms, probes) == expected

    @settings(max_examples=200, deadline=None)
    @given(cloud=point_clouds(max_points=30), data=st.data())
    def test_atoms_within_ulps_of_the_sphere(self, cloud, data):
        # radii 0-4 ulps either side of an atom's distance: the float sum
        # cannot decide it, and the exact test must run
        pts = cloud.points
        atoms = tuple((p, 1.0 / len(pts)) for p in pts)
        coord = st.floats(-1.0, 6.0, allow_nan=False, allow_infinity=False)
        probes = []
        for _ in range(data.draw(st.integers(1, 8))):
            x = data.draw(
                st.one_of(st.sampled_from(pts), st.tuples(*[coord] * cloud.dimension_n))
            )
            p = data.draw(st.sampled_from(pts))
            r = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(p, x)))
            if r > 0.0:
                probes.append((x, _nudged(r, data.draw(st.integers(-4, 4)))))
        assume(probes)
        expected = [full_scan_ball_mass(atoms, x, r) for x, r in probes]
        wrapped = mock.patch.object(
            frostman, "_squared_distance", wraps=frostman._squared_distance
        )
        with wrapped as exact:
            assert ball_masses(atoms, probes) == expected
        assert exact.call_count > 0


def draw_probes(data, pts, radii) -> list:
    """1 to 12 probes: centres at atoms or anywhere near them, radii drawn from `radii`."""
    coord = st.floats(-1.0, 6.0, allow_nan=False, allow_infinity=False)
    centres = st.one_of(st.sampled_from(pts), st.tuples(*[coord] * len(pts[0])))
    return [
        (data.draw(centres), data.draw(radii)) for _ in range(data.draw(st.integers(1, 12)))
    ]


def row_count(atoms, probes) -> int:
    """How many rows the atoms fill under these probes' grid."""
    points = AtomicMeasure.from_atoms(atoms).points
    centres = np.array([x for x, _ in probes], dtype=float)
    reach = np.array([r for _, r in probes]) * (1.0 + 1e-9)
    rows = frostman._probe_rows(points, centres, reach, np.ones(len(probes), bool))[0]
    return len(np.unique(rows))


class TestBallMassesOnRows:
    """The row grid, its runs and the probe groups keep every mass equal to the full scan's."""

    def test_atoms_on_row_edges(self):
        # rows are cells of side w = fl(r (1 + 1e-9)) from y = 0: atoms on
        # the edges k w and one ulp either side, and probes whose box ends
        # land on those edges
        r = 0.25
        w = r * (1.0 + 1e-9)
        edges = [k * w for k in range(5)]
        ys = edges + [math.nextafter(y, math.inf) for y in edges]
        ys += [math.nextafter(y, -math.inf) for y in edges[1:]]
        pts = [(x, y) for x in (0.0, 0.1, 0.3) for y in ys]
        atoms = tuple((p, (i + 1) / 64) for i, p in enumerate(pts))
        probes = [((0.1, y), rr) for y in ys for rr in (r, r / 2, w / 3)]
        probes += [((0.0, y + w / 2), w / 2) for y in edges]
        assert row_count(atoms, probes) == 5
        expected = [full_scan_ball_mass(atoms, x, rr) for x, rr in probes]
        assert ball_masses(atoms, probes) == expected

    def test_equal_first_coordinates_in_different_rows(self):
        pts = [(x, 0.3 * k) for x in (0.25, 0.5, 0.75) for k in range(10)]
        atoms = tuple((p, 1.0 / len(pts)) for p in pts)
        probes = [((0.5, 0.3 * k), r) for k in range(10) for r in (0.1, 0.25, 0.3, 0.31)]
        assert row_count(atoms, probes) > 5
        expected = [full_scan_ball_mass(atoms, x, r) for x, r in probes]
        assert ball_masses(atoms, probes) == expected

    @settings(max_examples=150, deadline=None)
    @given(cloud=point_clouds(max_points=40, dimension=3), data=st.data())
    def test_two_row_axes(self, cloud, data):
        pts = cloud.points
        atoms = tuple((p, 1.0 / len(pts)) for p in pts)
        probes = draw_probes(data, pts, st.floats(1e-3, 2.0))
        expected = [full_scan_ball_mass(atoms, x, r) for x, r in probes]
        assert ball_masses(atoms, probes) == expected

    @settings(max_examples=150, deadline=None)
    @given(cloud=point_clouds(max_points=40), data=st.data())
    def test_one_large_probe_sets_the_rows(self, cloud, data):
        pts = cloud.points
        atoms = tuple((p, 1.0 / len(pts)) for p in pts)
        probes = draw_probes(data, pts, st.floats(1e-3, 0.05))
        large = (pts[0], data.draw(st.floats(1.0, 1e3)))
        probes.insert(data.draw(st.integers(0, len(probes))), large)
        expected = [full_scan_ball_mass(atoms, x, r) for x, r in probes]
        assert ball_masses(atoms, probes) == expected

    def test_radii_whose_square_is_not_normal_among_normal_ones(self):
        # r*r underflows (1e-200, 5e-324), is subnormal (1e-160) or overflows
        # (1e160): those probes read every atom, the others their rows
        atoms = (
            ((0.0, 0.0), 0.125),
            ((1e-190, 0.0), 0.25),
            ((0.0, 1e-170), 0.0625),
            ((1e-160, 1e-160), 0.03125),
            ((0.5, 0.5), 0.5),
            ((1.0, 2.0), 0.03125),
        )
        radii = (1e-200, 0.25, 5e-324, 1.0, 1e-160, 1e160, 1e-3)
        probes = [(x, r) for x in ((0.0, 0.0), (0.5, 0.5), (1.0, 2.0)) for r in radii]
        expected = [full_scan_ball_mass(atoms, x, r) for x, r in probes]
        assert ball_masses(atoms, probes) == expected

    @pytest.mark.parametrize("group", [1, 3, 16])
    @settings(max_examples=60, deadline=None)
    @given(cloud=point_clouds(max_points=40), data=st.data())
    def test_small_groups(self, group, cloud, data):
        pts = cloud.points
        atoms = tuple((p, 1.0 / len(pts)) for p in pts)
        probes = draw_probes(data, pts, st.floats(1e-3, 3.0))
        expected = [full_scan_ball_mass(atoms, x, r) for x, r in probes]
        with mock.patch.object(frostman, "GROUP_CANDIDATES", group):
            assert ball_masses(atoms, probes) == expected

    def test_more_candidates_than_one_group(self):
        # probes of radius 2 read all the atoms of the unit square, a group
        # and a quarter; the others fill several groups between them
        group = frostman.GROUP_CANDIDATES
        rng = np.random.default_rng(19)
        pts = [tuple(p) for p in rng.random((group + group // 4, 2)).tolist()]
        atoms = tuple(zip(pts, rng.uniform(0.5, 1.0, len(pts)).tolist()))
        radii = [2.0, *np.exp(rng.uniform(math.log(0.01), math.log(0.2), 30)).tolist(), 2.0]
        probes = [(pts[i], r) for i, r in zip(rng.integers(0, len(pts), len(radii)), radii)]
        # the radius-2 probes make the rows as wide as the square, so each
        # probe's candidates are the atoms its p_0 window holds: past three
        # groups' worth, the probes take at least three rounds
        windows = [sum(abs(p[0] - x[0]) <= r * (1 + 1e-9) for p in pts) for x, r in probes]
        assert sum(windows[1:-1]) > 3 * group and min(windows[0], windows[-1]) > group
        expected = [full_scan_ball_mass(atoms, x, r) for x, r in probes]
        assert ball_masses(atoms, probes) == expected


class TestMeasureArrays:
    """Every builder hands out read-only float64 arrays that atoms round-trips bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        cloud=point_clouds(max_points=40),
        builder=st.sampled_from(["frostman", "fp-witness", "separated"]),
        u=st.floats(0.05, 1.0),
        delta=st.floats(0.01, 0.5),
        theta=st.floats(0.2, 1.0),
    )
    def test_arrays_and_atoms_roundtrip(self, cloud, builder, u, delta, theta):
        try:
            if builder == "frostman":
                s = u * cloud.dimension_n
                mu = build_frostman_measure(cloud, s, delta, theta, ball_samples=0).measure
            elif builder == "fp-witness":
                mu = fp_witness_measure(4.0 * u, delta, theta)
            else:
                mu = separated_witness_measure(cloud, delta)
        except (RangeTooNarrowError, ScaleRangeTooDeepError):
            assume(False)
        for array in (mu.points, mu.masses):
            assert array.dtype == np.float64
            assert not array.flags.writeable and array.flags.c_contiguous
        assert mu.points.ndim == 2 and mu.masses.shape == mu.points.shape[:1]
        again = AtomicMeasure.from_atoms(mu.atoms)
        # int64 views compare bits, so -0.0 and 0.0 differ
        for new, old in ((again.points, mu.points), (again.masses, mu.masses)):
            assert np.array_equal(new.view(np.int64), old.view(np.int64))


class TestCheckMdp:
    def test_far_atom_whose_square_overflows(self):
        # r*r underflows, so every atom reaches the exact test, where
        # (1e200 - 0)**2 overflows: the far atom lies outside every ball
        mu = AtomicMeasure.from_atoms([((0.0,), 0.5), ((1e200,), 0.5)])
        report = check_mdp([(1e-160, mu)], s=0.5, theta=1.0, a=0.5, c=1.0, ball_samples=3)
        entry = report.entries[0]
        assert entry.total_mass == 1.0 and entry.violations == 3
        assert entry.worst_ratio == 0.5 / 1e-160**0.5

    def test_builder_composition_passes(self):
        pts = fp_points(1.0, 0.01)
        res = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5, seed=0)
        report = check_mdp(
            [(res.range.lo, res.measure)],
            s=0.3,
            theta=0.5,
            a=1.0 - 1e-9,
            c=res.constant,
            ball_samples=200,
            seed=0,
        )
        assert report.ok
        assert report.entries[0].violations == 0
        assert not report.entries[0].weak

    def test_constructed_violation(self):
        # a unit atom violates mu(U) <= |U| as soon as |U| < 1
        mu = AtomicMeasure.from_atoms([((0.5,), 1.0)])
        report = check_mdp([(1e-6, mu)], s=1.0, theta=0.5, a=1.0, c=1.0, seed=0)
        entry = report.entries[0]
        assert not report.ok
        assert entry.violations > 0
        # worst ratio approaches 1/|U| at the small end of the band
        assert entry.worst_ratio > 1.0 / (1e-6**0.5)

    def test_weak_band_flagged(self):
        mu = AtomicMeasure.from_atoms([((0.5,), 1.0)])
        report = check_mdp([(0.25, mu)], s=0.5, theta=0.95, a=1.0, c=10.0, seed=0)
        assert report.entries[0].weak  # 0.25**0.95 / 0.25 < 10

    def test_low_mass_fails(self):
        mu = AtomicMeasure.from_atoms([((0.5,), 0.5)])
        report = check_mdp([(1e-3, mu)], s=0.5, theta=0.5, a=1.0, c=100.0, seed=0)
        assert not report.entries[0].ok

    def test_theta_zero_refused(self):
        # delta**0 = 1: the band [delta, 1] used to be probed, large balls only
        mu = AtomicMeasure.from_atoms([((0.25,), 0.5), ((0.75,), 0.5)])
        with pytest.raises(ValidationError):
            check_mdp([(1e-3, mu)], s=0.5, theta=0.0, a=1.0, c=1.0)

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            check_mdp([], s=0.5, theta=0.5, a=1.0, c=1.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"s": math.nan},
            {"s": math.inf},
            {"s": 0.0},
            {"c": math.nan},
            {"c": math.inf},
            {"c": -1.0},
            {"a": math.nan},
            {"a": math.inf},
            {"a": 0.0},
            {"ball_samples": 0},
            {"ball_samples": -3},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_refuses_bad_numbers(self, bad):
        mu = AtomicMeasure.from_atoms([((0.25,), 0.5), ((0.75,), 0.5)])
        args = {"s": 0.5, "theta": 0.5, "a": 1.0, "c": 100.0, "ball_samples": 20, **bad}
        with pytest.raises(ValidationError):
            check_mdp([(1e-3, mu)], **args)

    def test_json_shape(self):
        mu = AtomicMeasure.from_atoms([((0.5,), 1.0)])
        doc = check_mdp([(1e-3, mu)], s=0.5, theta=0.5, a=1.0, c=100.0).to_json_dict()
        assert set(doc) >= {"pass", "worst_ratio", "entries", "c"}


class TestFpWitnessMeasure:
    def test_total_mass_at_least_one_grid(self):
        for p in (0.5, 1.0, 2.0):
            for theta in (0.25, 0.5, 0.75):
                for delta in (1e-2, 1e-3, 1e-4):
                    mu = fp_witness_measure(p, delta, theta)
                    assert mu.total >= 1.0 - 1e-9

    def test_degenerate_single_atom(self):
        mu = fp_witness_measure(1.0, 1.0 - 1e-10, 0.5)
        assert len(mu.atoms) == 1

    def test_equal_masses(self):
        mu = fp_witness_measure(1.0, 1e-3, 0.5)
        masses = {m for _, m in mu.atoms}
        assert len(masses) == 1

    def test_proof_constant_certifies(self):
        for p in (1.0, 2.0):
            theta = 0.5
            delta = witness_delta(p, theta)
            mu = fp_witness_measure(p, delta, theta)
            report = check_mdp(
                [(delta, mu)],
                s=theta / (p + theta),
                theta=theta,
                a=1.0 - 1e-9,
                c=1.0 + 1.0 / p,
                ball_samples=200,
                seed=0,
            )
            assert report.ok


class TestSeparatedWitness:
    @pytest.mark.parametrize(
        "far",
        [(1e200,), (1.2e154, 1.2e154)],
        ids=["square-overflows", "sum-overflows"],
    )
    def test_far_point_kept(self, far):
        origin = (0.0,) * len(far)
        mu = separated_witness_measure(PointCloud.from_points([origin, far]), 0.1)
        assert mu.atoms == ((origin, 0.5), (far, 0.5))

    @pytest.mark.parametrize("delta", [1e200, math.inf, math.nan, 0.0])
    def test_refuses_delta_without_finite_square(self, delta):
        # 1e200 used to raise OverflowError squaring the threshold
        with pytest.raises(ValidationError):
            separated_witness_measure(PointCloud.from_points([(0.0,), (1.0,)]), delta)

    def test_refuses_delta_whose_square_underflows(self):
        # (1e-190)**2 and (1e-200)**2 both read 0, so the pair used to pass as separated
        pc = PointCloud.from_points([(0.0,), (1e-200,)])
        with pytest.raises(ValidationError):
            separated_witness_measure(pc, 1e-190)
        assert len(separated_witness_measure(pc, 1e-150).atoms) == 1

    def test_close_pair_collapses(self):
        pc = PointCloud.from_points([(0.5,), (0.5 + 0.005,)])
        mu = separated_witness_measure(pc, 0.01)
        assert len(mu.atoms) == 1
        assert mu.total == pytest.approx(1.0)

    def test_spaced_grid_kept(self):
        pc = PointCloud.from_points([(0.03 * k,) for k in range(30)])
        mu = separated_witness_measure(pc, 0.01)
        assert len(mu.atoms) == 30

    def test_sequence_count_tracks_box_dimension(self):
        delta = 1e-3
        pts = fp_points(1.0, delta)
        mu = separated_witness_measure(pts, delta)
        expected = delta**-0.5
        assert expected / 4 <= len(mu.atoms) <= expected * 4

    def test_pairwise_separation(self):
        pts = fp_points(1.0, 1e-2)
        mu = separated_witness_measure(pts, 1e-2)
        xs = sorted(p[0] for p, _ in mu.atoms)
        assert all(b - a >= 1e-2 * (1 - 1e-9) for a, b in zip(xs, xs[1:]))

    @settings(max_examples=200, deadline=None)
    @given(cloud=point_clouds(max_points=60), data=st.data())
    def test_kept_points_equal_all_pairs_loop(self, cloud, data):
        # deltas on the 1/16 grid and at a pair's distance tie with the threshold
        pts = cloud.points
        p, q = data.draw(st.sampled_from(pts)), data.draw(st.sampled_from(pts))
        gap = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(p, q)))
        delta = data.draw(st.sampled_from([1 / 16, 0.1, 0.3, 1.0, 4.0] + [gap] * (gap > 0)))
        mu = separated_witness_measure(cloud, delta)
        assert mu.points.tolist() == loop_separated_points(cloud, delta)
