import math

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
from dimspect.covers import _rescale
from dimspect.frostman import _ball_masses
from conftest import point_clouds
from oracles import full_scan_ball_mass, loop_cap_cascade


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
        cascade = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5).cascade
        for level in cascade.levels():
            cap = cascade.cap(level)
            for mass in cascade.level_masses[level].values():
                assert mass <= cap * (1 + 1e-12)

    def test_some_ancestor_attains_cap(self):
        pts = fp_points(1.0, 0.01)
        cascade = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5).cascade
        base = cascade.base_level
        for idx in cascade.level_masses[base]:
            attained = False
            for level in cascade.levels():
                ancestor = tuple(c >> (base - level) for c in idx)
                mass = cascade.level_masses[level][ancestor]
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

    def test_rejects_negative_ball_samples(self):
        pts = fp_points(1.0, 0.01)
        with pytest.raises(ValidationError):
            build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5, ball_samples=-5)
        # 0 still probes the band edges
        result = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5, ball_samples=0)
        assert result.worst_ratio > 0.0

    def test_deterministic(self):
        pts = fp_points(1.0, 0.01)
        a = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5, seed=0)
        b = build_frostman_measure(pts, s=0.3, delta=0.01, theta=0.5, seed=0)
        assert a.measure == b.measure and a.constant == b.constant


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
    def test_atoms_norm_and_level_masses_equal_reference(self, cloud, u, delta, theta):
        s = u * cloud.dimension_n
        try:
            res = build_frostman_measure(cloud, s, delta, theta, ball_samples=0)
        except (RangeTooNarrowError, ScaleRangeTooDeepError):
            assume(False)
        cascade = res.cascade
        origin, scale = _rescale(cloud)
        atoms, norm, level_masses = loop_cap_cascade(
            cloud, s, cascade.base_level, cascade.stop_level, origin, scale
        )
        assert res.measure.atoms == tuple(atoms)
        assert cascade.norm == norm
        assert cascade.level_masses == level_masses
        for level, masses in level_masses.items():
            assert list(cascade.level_masses[level]) == list(masses)


class TestBallMassesMatchFullScan:
    """The box-filtered ball masses equal the full scan's with ==."""

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
        assert _ball_masses(atoms, probes) == expected

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
        assert _ball_masses(atoms, probes) == expected


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
