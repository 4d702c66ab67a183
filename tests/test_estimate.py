import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimspect import (
    PointCloud,
    ScaleRangeTooDeepError,
    ValidationError,
    coupled_truncation,
    critical_exponent,
    estimate_spectrum,
    flog_points,
    fp_points,
    optimal_cover_1d,
    ScaleRange,
    carpet_points,
    geometric_menu,
)
from dimspect import estimate
from dimspect.estimate import BISECTION_TOL, _drift_corrected
from conftest import point_clouds
from oracles import ScalarIntervalDP, recursive_dyadic_cover, sequential_critical_exponent


class TestCriticalExponent:
    def test_single_point_is_zero(self):
        pc = PointCloud.from_points([(0.42,)])
        ce = critical_exponent(pc, 0.01, 0.5)
        assert ce.s_star == 0.0
        assert ce.cost_at_s_star == 1.0

    def test_separated_points_box_identity(self):
        # N points pairwise further than delta apart at theta=1:
        # cost = N * delta**s crosses 1 at s = log N / log(1/delta)
        pc = PointCloud.from_points([(0.05 * k,) for k in range(20)])
        ce = critical_exponent(pc, 0.01, 1.0)
        assert ce.s_star == pytest.approx(
            math.log(20) / math.log(100), abs=BISECTION_TOL
        )

    def test_stopping_band(self):
        pts = fp_points(1.0, 1e-3)
        ce = critical_exponent(pts, 1e-3, 0.5)
        assert 0.5 <= ce.cost_at_s_star <= 2.0

    def test_monotone_in_theta(self):
        pts = fp_points(1.0, 1e-3, theta_min=0.25)
        values = [
            critical_exponent(pts, 1e-3, th).s_star
            for th in (0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0)
        ]
        assert all(a <= b + 1e-3 for a, b in zip(values, values[1:]))

    def test_large_truncation_raw_offset(self):
        # at threshold 1 the crossing sits above theta/(p+theta) by
        # ~log(2)/|d log cost / ds|; the drift correction removes it
        pts = PointCloud.from_points([(0.0,)] + [(1.0 / k,) for k in range(1, 10001)])
        raw = critical_exponent(pts, 1e-3, 0.5).s_star
        assert 1.0 / 3.0 < raw < 1.0 / 3.0 + 0.08
        cells = [critical_exponent(pts, d, 0.5) for d in (1e-2, 1e-3, 1e-4)]
        corrected = _drift_corrected(cells)
        assert min(corrected.values()) == pytest.approx(1.0 / 3.0, abs=0.05)
        assert max(corrected.values()) == pytest.approx(1.0 / 3.0, abs=0.05)

    def test_range_too_deep_propagates(self):
        pts = fp_points(1.0, 1e-2)
        with pytest.raises(ScaleRangeTooDeepError):
            critical_exponent(pts, 1e-4, 0.25)

    def test_bad_threshold(self):
        pts = fp_points(1.0, 1e-2)
        with pytest.raises(ValidationError):
            critical_exponent(pts, 1e-2, 0.5, threshold=0.0)


class _CountingSolver:
    """A cell's cover-cost solver that records the s values of each costs() call."""

    def __init__(self, solver, calls: list):
        self.solver, self.calls = solver, calls
        self.batch_size = solver.batch_size

    def costs(self, ss):
        self.calls.append(list(ss))
        return self.solver.costs(ss)


@pytest.fixture
def solver_calls(monkeypatch) -> list:
    calls = []
    real = estimate.cover_cost_function
    monkeypatch.setattr(
        estimate, "cover_cost_function", lambda *args: _CountingSolver(real(*args), calls)
    )
    return calls


class TestSolverCalls:
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_clamp_at_zero_evaluates_zero_once(self, solver_calls, theta):
        pc = PointCloud.from_points([(0.42,)])
        assert critical_exponent(pc, 0.01, theta).s_star == 0.0
        flat = [s for call in solver_calls for s in call]
        assert len(solver_calls) == 1
        assert flat.count(0.0) == 1

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_clamp_at_n_evaluates_each_endpoint_once(self, solver_calls, theta):
        pts = fp_points(1.0, 1e-2)
        assert critical_exponent(pts, 1e-2, theta, threshold=1e-15).s_star == 1.0
        flat = [s for call in solver_calls for s in call]
        assert flat.count(0.0) == 1
        assert flat.count(1.0) == 1
        assert len(solver_calls) == (1 if theta > 0.0 else 2)

    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0])
    def test_interval_dp_cell_takes_at_most_three_calls(self, solver_calls, theta):
        pts = fp_points(1.0, 1e-3, theta_min=0.25)
        critical_exponent(pts, 1e-3, theta)
        flat = [s for call in solver_calls for s in call]
        assert len(solver_calls) <= 3
        assert len(flat) == len(set(flat))

    def test_dyadic_cell_one_s_per_bisection_level(self, solver_calls, worked_carpet):
        # the endpoints, one s per bisection level, then s*
        for cloud, theta in ((fp_points(1.0, 1e-2), 0.0), (carpet_points(worked_carpet, 5), 0.5)):
            solver_calls.clear()
            critical_exponent(cloud, 0.1, theta)
            levels = math.ceil(math.log2(cloud.dimension_n / BISECTION_TOL))
            assert [len(call) for call in solver_calls] == [1] * (2 + levels + 1)


class TestLookaheadMatchesSequentialBisection:
    @pytest.mark.parametrize("dyadic", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(
        cloud=point_clouds(max_points=12, dimension=1),
        delta=st.floats(1e-3, 0.9),
        band=st.floats(0.05, 1.0),
        where=st.one_of(st.floats(0.0, 1.0), st.sampled_from([-1.0, 2.0])),
    )
    def test_same_root_and_cost(self, dyadic, cloud, delta, band, where):
        theta = 0.0 if dyadic else band
        try:
            rng = ScaleRange(delta, theta)
        except ScaleRangeTooDeepError:
            assume(False)
        if theta > 0.0:
            cost = ScalarIntervalDP(cloud.array[:, 0].tolist(), geometric_menu(rng.lo, rng.hi, 16)).cost
        else:
            def cost(s):
                return recursive_dyadic_cover(cloud, rng, s).cost
        # where in [0, 1] puts the threshold log-uniformly between cost(1)
        # and cost(0); -1 forces the clamp at 0 and 2 the clamp at 1
        threshold = cost(1.0) ** where * cost(0.0) ** (1.0 - where)
        ce = critical_exponent(cloud, delta, theta, threshold)
        reference = sequential_critical_exponent(cost, 1.0, threshold)
        assert (ce.s_star, ce.cost_at_s_star) == reference


class TestEstimateSpectrum:
    def test_sequence_family_p2(self):
        pts = fp_points(2.0, 1e-4, theta_min=0.25)
        spectrum = estimate_spectrum(
            pts, [0.25, 0.5, 0.75, 1.0], [1e-2, 1e-3, 1e-4]
        )
        for sample in spectrum.samples:
            expected = sample.theta / (2.0 + sample.theta)
            assert sample.lower == pytest.approx(expected, abs=0.05)
            assert sample.upper == pytest.approx(expected, abs=0.05)

    def test_box_endpoint_on_plain_coupling(self):
        # the theta=1 column works with the plain (theta_min=1) truncation too
        pts = fp_points(1.0, 1e-4)
        spectrum = estimate_spectrum(pts, [1.0], [1e-2, 1e-3, 1e-4])
        assert spectrum.samples[0].lower == pytest.approx(0.5, abs=0.03)
        assert spectrum.samples[0].upper == pytest.approx(0.5, abs=0.03)

    def test_single_point_zero_spectrum(self):
        pc = PointCloud.from_points([(0.42,)])
        spectrum = estimate_spectrum(pc, [0.0, 0.5, 1.0], [1e-2, 1e-3, 1e-4])
        assert all(s.lower == 0.0 == s.upper for s in spectrum.samples)

    def test_inadmissible_deltas_skipped(self):
        # theta=0.25 drops delta=1e-4 (band would reach 1e-16) but still runs
        pts = fp_points(1.0, 1e-3, theta_min=0.25)
        spectrum = estimate_spectrum(pts, [0.25], [1e-2, 1e-3, 1e-4])
        assert 0.0 < spectrum.samples[0].lower < 1.0

    def test_no_admissible_delta_raises(self):
        pts = fp_points(1.0, 1e-2)
        with pytest.raises(ScaleRangeTooDeepError):
            estimate_spectrum(pts, [0.05], [1e-2, 1e-3, 1e-4])

    def test_theta_zero_entry_bounded(self):
        pts = fp_points(1.0, 1e-3, theta_min=0.25)
        spectrum = estimate_spectrum(pts, [0.0, 0.5, 1.0], [1e-2, 1e-3, 1e-4])
        first = spectrum.samples[0]
        assert first.theta == 0.0
        assert 0.0 <= first.lower <= first.upper <= 1.0

    def test_monotone_with_slack(self):
        pts = fp_points(1.0, 1e-3, theta_min=0.25)
        spectrum = estimate_spectrum(
            pts, [0.25, 0.5, 0.75, 1.0], [1e-2, 1e-3, 1e-4]
        )
        lows = spectrum.lowers()
        ups = spectrum.uppers()
        assert all(a <= b + 0.05 for a, b in zip(lows, lows[1:]))
        assert all(a <= b + 0.05 for a, b in zip(ups, ups[1:]))

    def test_validation(self):
        pts = fp_points(1.0, 1e-2)
        with pytest.raises(ValidationError):
            estimate_spectrum(pts, [0.5], [1e-2, 1e-3])  # too few deltas
        with pytest.raises(ValidationError):
            estimate_spectrum(pts, [0.5], [1e-3, 1e-2, 1e-4])  # not decreasing
        with pytest.raises(ValidationError):
            estimate_spectrum(pts, [0.5, 0.5], [1e-2, 1e-3, 1e-4])  # dup theta

    def test_fixed_truncation_decays_with_delta(self):
        # a finite set has dimension 0: at fixed truncation the exponents
        # sink as delta shrinks, which is why truncations must be coupled
        pc = PointCloud.from_points([(0.05 * k,) for k in range(20)])
        values = [
            critical_exponent(pc, d, 1.0).s_star for d in (1e-2, 1e-3, 1e-4, 1e-6)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0] / 2.0

    def test_carpet_cloud_box_dimension_2d(self, worked_carpet):
        # dyadic-cover estimation in the plane: the depth-7 rectangle corners
        # resolve scale 1e-2, where the raw exponent sits near the box dimension
        from dimspect import box_dim, carpet_points

        cloud = carpet_points(worked_carpet, 7)
        ce = critical_exponent(cloud, 1e-2, 1.0)
        assert ce.s_star == pytest.approx(box_dim(worked_carpet), abs=0.06)

    def test_box_counting_identity_at_theta_one(self):
        # with the degenerate single-diameter menu the estimate is exactly
        # log(minimal interval count) / log(1/delta) up to bisection width
        pts = fp_points(1.0, 1e-3)
        delta = 1e-3
        cov = optimal_cover_1d(pts, ScaleRange(delta, 1.0), 0.5)
        count = len(cov.sets)
        ce = critical_exponent(pts, delta, 1.0)
        assert ce.s_star == pytest.approx(
            math.log(count) / math.log(1.0 / delta), abs=BISECTION_TOL
        )


class TestCoupledTruncation:
    def test_reference_values(self):
        assert coupled_truncation(1.0, 1e-4) == 400
        assert coupled_truncation(2.0, 1e-6) == 504

    def test_degenerate_clamp(self):
        assert coupled_truncation(1.0, 1.0) == 4
        assert coupled_truncation(3.0, 2.0) == 4

    def test_gap_below_delta(self):
        for p in (0.5, 1.0, 2.0):
            for delta in (1e-2, 1e-3, 1e-5):
                n = coupled_truncation(p, delta)
                assert p / n ** (p + 1.0) < delta

    def test_bad_p(self):
        with pytest.raises(ValidationError):
            coupled_truncation(0.0, 1e-3)


class TestFamilies:
    def test_fp_points_include_zero_and_largest(self):
        cloud = fp_points(1.0, 1e-2)
        assert cloud.points[0] == (0.0,)
        assert cloud.points[-1] == (1.0,)
        assert len(cloud) == coupled_truncation(1.0, 1e-2) + 1

    def test_fp_theta_min_extends_truncation(self):
        shallow = fp_points(1.0, 1e-4)
        deep = fp_points(1.0, 1e-4, theta_min=0.25)
        assert len(deep) > len(shallow)

    def test_flog_points(self):
        cloud = flog_points(1e-3)
        assert cloud.points[0] == (0.0,)
        xs = [p[0] for p in cloud.points[1:]]
        assert max(xs) == pytest.approx(1.0 / math.log(2.0))
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        assert min(gaps) < 1e-3
