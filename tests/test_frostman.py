import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimspect import (
    AtomicMeasure,
    DepthLimitError,
    PointCloud,
    RangeTooNarrowError,
    ScaleRangeTooDeepError,
    ValidationError,
    build_frostman_measure,
    check_mdp,
    fp_points,
    fp_witness_measure,
    separated_witness_measure,
)
from dimspect import frostman
from dimspect.covers import _rescale
from dimspect.frostman import MAX_BALL_SAMPLES, _ball_masses, _cap_runs
from conftest import point_clouds
from oracles import (
    cascade_level_masses,
    full_scan_ball_mass,
    loop_cap_cascade,
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
        for level in cascade.levels():
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
            for level in cascade.levels():
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
        assert _ball_masses(AtomicMeasure.from_atoms(atoms), probes) == expected

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
        assert _ball_masses(AtomicMeasure.from_atoms(atoms), probes) == expected

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
        assert _ball_masses(AtomicMeasure.from_atoms(atoms), probes) == expected

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
            assert _ball_masses(AtomicMeasure.from_atoms(atoms), probes) == expected

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
            assert _ball_masses(AtomicMeasure.from_atoms(atoms), probes) == expected
        assert exact.call_count > 0


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
