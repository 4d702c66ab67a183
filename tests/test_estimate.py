import bisect
import gc
import math
import sys
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dimspect import (
    DepthLimitError,
    EstimateNotMonotoneError,
    InvariantError,
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
from dimspect import covers, estimate
from dimspect.core import MAX_POINTS, TOL_MONO_ESTIMATED
from dimspect.estimate import BISECTION_TOL, _bisection, _drift_corrected
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

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_refused(self, threshold):
        # nan used to walk the bisection to its bottom, inf to pin every root at 0
        with pytest.raises(ValidationError):
            critical_exponent(fp_points(1.0, 1e-2), 1e-2, 0.5, threshold=threshold)


class _CountingSolver:
    """A cell's cover-cost solver that records the s values of each costs() call.

    It passes on a dyadic band's bound and d_min; a DP has neither.
    """

    def __init__(self, solver, calls: list):
        self.solver, self.calls = solver, calls
        self.batch_size = solver.batch_size
        if hasattr(solver, "bound"):
            self.bound, self.d_min = solver.bound, solver.d_min

    def costs(self, *batches):
        self.calls.append([s for ss in batches for s in ss])
        return self.solver.costs(*batches)


@pytest.fixture
def solved_cells(monkeypatch) -> list:
    """The ScaleRange of each cell whose solver estimate's cell_solvers yields, in order."""
    cells = []
    real = estimate.cell_solvers
    monkeypatch.setattr(
        estimate,
        "cell_solvers",
        lambda *args: (cells.extend(group) or (group, solver) for group, solver in real(*args)),
    )
    return cells


@pytest.fixture
def solver_calls(monkeypatch) -> list:
    calls = []
    real = estimate.cell_solvers
    monkeypatch.setattr(
        estimate,
        "cell_solvers",
        lambda *args: ((group, _CountingSolver(solver, calls)) for group, solver in real(*args)),
    )
    return calls


def cell_solver(cloud, rng):
    """The one solver covers.cell_solvers yields for the cell alone."""
    ((_, solver),) = covers.cell_solvers(cloud, [rng])
    return solver


@pytest.fixture
def tree_passes(monkeypatch) -> list:
    """The (s, top, bottom) of each _DyadicTree.counts call, a tree pass, while the fixture is active."""
    passes, counts = [], covers._DyadicTree.counts
    monkeypatch.setattr(
        covers._DyadicTree, "counts", lambda tree, *args: passes.append(args) or counts(tree, *args)
    )
    return passes


def pass_cost(band):
    """The band's cost(s) by a tree pass at every s, closed forms and bounds aside."""
    return lambda s: covers._level_sum(*band.tree.counts(s, band.top, band.bottom))


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
    def test_interval_dp_cell_takes_at_most_two_calls(self, solver_calls, theta):
        pts = fp_points(1.0, 1e-3, theta_min=0.25)
        critical_exponent(pts, 1e-3, theta)
        flat = [s for call in solver_calls for s in call]
        assert len(solver_calls) <= 2
        assert len(flat) == len(set(flat))

    def test_dyadic_cell_one_s_per_bisection_level(self, solver_calls, worked_carpet):
        # s = 0, n unless the bottom level's cover settles it, one s per bisection level
        # the bounds leave open, then s*: on both clouds that cover settles n, and the
        # two bounds decide 8 of the fp cloud's 10 levels and 10 of the carpet's 11
        cases = ((fp_points(1.0, 1e-2), 0.0, 4), (carpet_points(worked_carpet, 5), 0.5, 3))
        for cloud, theta, asked in cases:
            solver_calls.clear()
            ce = critical_exponent(cloud, 0.1, theta)
            assert [len(call) for call in solver_calls] == [1] * asked
            # every s asked is one the bound-free bisection asks, in its order
            band, free = cell_solver(cloud, ScaleRange(0.1, theta)), []
            reference = sequential_critical_exponent(
                lambda s: free.append(s) or band.costs([s])[0][0], cloud.dimension_n, 1.0
            )
            levels = math.ceil(math.log2(cloud.dimension_n / BISECTION_TOL))
            assert len(dict.fromkeys(free)) == 2 + levels + 1
            flat = iter(dict.fromkeys(free))
            assert all(s in flat for call in solver_calls for s in call)
            assert (ce.s_star, ce.cost_at_s_star) == reference

    def test_bounds_leave_10_of_the_84_tree_passes_of_a_carpet_spectrum(
        self, monkeypatch, tree_passes, worked_carpet
    ):
        # the dyadic-2d benchmark's spectrum, with and without the bounds
        cloud, deltas = carpet_points(worked_carpet, 8), (0.1, 0.03, 0.01)
        # a theta = 1 cell is a one-level band, whose cost N d**s takes no pass
        bands = [cell_solver(cloud, ScaleRange(delta, 1.0)) for delta in deltas]
        assert all(band.top == band.bottom for band in bands)
        asked, costs = [], covers._DyadicBand.costs
        monkeypatch.setattr(
            covers._DyadicBand, "costs", lambda band, ss: asked.extend(ss) or costs(band, ss)
        )
        spectrum = estimate_spectrum(cloud, (0.5, 1.0), deltas)
        assert len(tree_passes) == 10
        assert all(top != bottom and s != 0.0 for s, top, bottom in tree_passes)
        monkeypatch.delattr(covers._DyadicBand, "bound")
        tree_passes.clear()
        asked.clear()
        assert estimate_spectrum(cloud, (0.5, 1.0), deltas) == spectrum
        # the bound-free bisection solves 14 s a cell; s = 0 and the theta = 1 cells
        # take no pass there either
        assert len(asked) == 84
        assert len(tree_passes) == 84 - 3 * 14 - 3

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_threshold_at_the_top_count_takes_no_pass(self, tree_passes, worked_carpet, theta):
        # cost(0) is the top level's count: at or above it the root is (0, count)
        for cloud in (fp_points(1.0, 1e-2), carpet_points(worked_carpet, 5)):
            if cloud.dimension_n == 1 and theta > 0.0:
                continue
            band = cell_solver(cloud, ScaleRange(0.1, theta))
            count = len(band.tree.level_cells(band.top))
            for threshold in (count, 1.5 * count):
                reference = sequential_critical_exponent(pass_cost(band), cloud.dimension_n, threshold)
                assert reference == (0.0, count)
                tree_passes.clear()
                ce = critical_exponent(cloud, 0.1, theta, threshold)
                assert (ce.s_star, ce.cost_at_s_star) == reference
                assert tree_passes == []

    @pytest.mark.parametrize(
        "case", ["fp at 1e-15", "carpet at 1e-15", "dense grid at 1", "fp an ulp below cost(n)"]
    )
    def test_finest_cover_above_threshold_runs_the_pass_at_n(self, tree_passes, worked_carpet, case):
        # the bottom level's cover priced at n is above threshold, so n is solved, and
        # the root clamps there with the bits of the bound-free bisection
        grid = PointCloud.from_points([(i / 127, j / 127) for i in range(128) for j in range(128)])
        cloud, theta, threshold = {
            "fp at 1e-15": (fp_points(1.0, 1e-2), 0.0, 1e-15),
            "carpet at 1e-15": (carpet_points(worked_carpet, 5), 0.5, 1e-15),
            "dense grid at 1": (grid, 0.5, 1.0),
            "fp an ulp below cost(n)": (fp_points(1.0, 1e-2), 0.0, None),
        }[case]
        band, n = cell_solver(cloud, ScaleRange(0.1, theta)), float(cloud.dimension_n)
        threshold = threshold or math.nextafter(pass_cost(band)(n), 0.0)
        assert band.top < band.bottom
        assert band.bound(n, n) > threshold
        reference = sequential_critical_exponent(pass_cost(band), n, threshold)
        assert reference[0] == n
        tree_passes.clear()
        ce = critical_exponent(cloud, 0.1, theta, threshold)
        assert (ce.s_star, ce.cost_at_s_star) == reference
        assert [s for s, *_ in tree_passes] == [n]


@pytest.fixture
def built_trees(monkeypatch) -> list:
    """A weak reference to each covers._DyadicTree built while the fixture is active."""
    built = []
    real = covers._DyadicTree.__init__

    def counting(self, *args):
        built.append(weakref.ref(self))
        real(self, *args)

    monkeypatch.setattr(covers._DyadicTree, "__init__", counting)
    return built


class TestOneTreePerSpectrum:
    def test_carpet_spectrum_builds_one_tree(self, built_trees, worked_carpet):
        cloud = carpet_points(worked_carpet, 5)
        spectrum = estimate_spectrum(cloud, (0.0, 0.5, 1.0), (0.1, 0.03, 0.01))
        assert len(built_trees) == 1
        assert spectrum.thetas() == (0.0, 0.5, 1.0)

    def test_interval_dp_spectrum_builds_none(self, built_trees):
        estimate_spectrum(fp_points(1.0, 1e-3), (0.5, 0.75, 1.0), (1e-1, 1e-2, 1e-3))
        assert built_trees == []

    def test_lone_cells_build_their_own(self, built_trees, worked_carpet):
        cloud = carpet_points(worked_carpet, 5)
        for delta in (0.1, 0.03):
            critical_exponent(cloud, delta, 0.5)
        assert len(built_trees) == 2

    def test_too_deep_cell_raises_before_any_cell_is_solved(self, built_trees, solved_cells):
        # delta=1e-7 needs level 44 on a box of side 2**20: the third cell
        # raises when the cells' levels are read, before any tree is built
        cloud = PointCloud.from_points([(0.0, 0.0), (2.0**20, 0.0), (3.0, 5.0)])
        with pytest.raises(DepthLimitError):
            estimate_spectrum(cloud, (1.0,), (0.9, 1e-3, 1e-7))
        assert solved_cells == []
        assert built_trees == []
        # the options are read before the levels, and an empty row before the options
        with pytest.raises(ValidationError, match="threshold"):
            estimate_spectrum(cloud, (1.0,), (0.9, 1e-3, 1e-7), threshold=math.nan)
        with pytest.raises(ScaleRangeTooDeepError, match="theta=0.001"):
            estimate_spectrum(cloud, (0.001, 1.0), (0.9, 1e-3, 1e-7), threshold=math.nan)
        assert solved_cells == [] and built_trees == []

    def test_no_tree_outlives_its_cloud(self, built_trees, worked_carpet):
        cloud = carpet_points(worked_carpet, 5)
        estimate_spectrum(cloud, (0.0, 0.5, 1.0), (0.1, 0.03, 0.01))
        with pytest.raises(ValidationError):  # refused before any tree is built
            estimate_spectrum(cloud, (0.0, 0.5), (0.1, 0.03, 0.01), threshold=-1.0)
        assert len(built_trees) == 1
        gc.collect()
        assert all(tree() is None for tree in built_trees)  # not even while the cloud lives

    def test_cells_match_critical_exponent(self, built_trees, worked_carpet, monkeypatch):
        # each cell of a spectrum gives the bits a lone critical_exponent gives:
        # a dyadic cell on its band of the spectrum's one tree, not on a tree of
        # its own levels, and the serial and dense cells of an fp cloud in one
        # group, not alone
        groups = []  # (solver, found) per _exponents call
        real = estimate._exponents

        def recording(n, cells, solver, threshold):
            got = real(n, cells, solver, threshold)
            groups.append((solver, got))
            return got

        monkeypatch.setattr(estimate, "_exponents", recording)
        carpet = carpet_points(worked_carpet, 5)
        estimate_spectrum(carpet, (0.0, 0.5, 1.0), (0.1, 0.03, 0.01))
        assert len(built_trees) == 1
        assert all(band.tree is built_trees[0]() for band, _ in groups)
        assert len(groups) == sum(len(found) for _, found in groups) == 9
        fp = fp_points(1.0, 1e-3, theta_min=0.25)
        estimate_spectrum(fp, (0.25, 0.5, 0.75, 1.0), (1e-2, 1e-3, 1e-4))
        assert len(built_trees) == 1
        assert sorted(len(found) for _, found in groups[9:]) == [1, 1, 1, 1, 7]
        monkeypatch.undo()
        for cloud, (_, found) in zip([carpet] * 9 + [fp] * 5, groups, strict=True):
            for rng, cell in found.items():
                lone = critical_exponent(cloud, rng.delta, rng.theta)
                assert (cell.s_star, cell.cost_at_s_star) == (lone.s_star, lone.cost_at_s_star)


def _passes(solver, threshold: float) -> tuple[int, tuple[float, float]]:
    """(solver calls, (s*, cost(s*))) of one cell's bisection on [0, 1] at solver.batch_size."""
    walk, calls = _bisection(1.0, threshold, solver.batch_size), 0
    batch = next(walk)
    while True:
        calls += 1
        try:
            batch = walk.send(solver.costs(batch)[0])
        except StopIteration as done:
            return calls, done.value


@st.composite
def non_increasing_costs(draw):
    """(n, threshold, cost): a non-increasing cost on [0, n] around threshold.

    Either a step function, whose plateaus take values from threshold and
    the floats one ulp either side of it, 0, inf and any float in
    [0, 1e6], or a sum of d**s over diameters d in (0, 1], a cover cost.
    Either can sit wholly above threshold (s* clamps to n) or start at
    or below it (s* = 0).
    """
    n = draw(st.sampled_from([1.0, 2.0, 3.0]))
    threshold = draw(st.floats(1e-3, 1e3))
    if draw(st.booleans()):
        near = [threshold, math.nextafter(threshold, math.inf), math.nextafter(threshold, 0.0)]
        value = st.one_of(st.sampled_from([*near, 0.0, math.inf]), st.floats(0.0, 1e6))
        values = sorted(draw(st.lists(value, min_size=1, max_size=8)), reverse=True)
        cuts = sorted(draw(st.lists(st.floats(0.0, n), min_size=len(values) - 1, max_size=len(values) - 1)))
        return n, threshold, lambda s: values[bisect.bisect_right(cuts, s)]
    diameters = draw(st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=30))
    return n, threshold, lambda s: math.fsum(d**s for d in diameters)


@st.composite
def exponential_sums(draw):
    """(n, threshold, cost, d_min): cost(s) = sum of count * d**s over d in [d_min, 1].

    The cost of a cover with count sets of each diameter d, d_min among
    them.  The threshold sits log-uniformly between cost(n) and cost(0),
    or past either end (s* clamps to 0 or to n).
    """
    n = draw(st.sampled_from([1.0, 2.0, 3.0]))
    d_min = draw(st.floats(1e-9, 1.0))
    terms = draw(
        st.lists(st.tuples(st.integers(1, 1000), st.floats(d_min, 1.0)), min_size=0, max_size=8)
    )
    terms.append((draw(st.integers(1, 1000)), d_min))

    def cost(s):
        return math.fsum(count * d**s for count, d in terms)

    where = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([-1.0, 2.0])))
    threshold = cost(n) ** where * cost(0.0) ** (1.0 - where)
    assume(0.0 < threshold < math.inf)
    return n, threshold, cost, d_min


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
        try:
            threshold = cost(1.0) ** where * cost(0.0) ** (1.0 - where)
        except OverflowError:
            # where=-1 on clouds of width ~1e-300: the largest float still
            # lies above cost(0) and forces the same clamp
            threshold = sys.float_info.max
        assume(threshold > 0.0)  # cost(1.0)**2 underflows on clouds of width ~1e-240
        ce = critical_exponent(cloud, delta, theta, threshold)
        reference = sequential_critical_exponent(cost, 1.0, threshold)
        assert (ce.s_star, ce.cost_at_s_star) == reference

    @settings(max_examples=400, deadline=None)
    @given(case=non_increasing_costs(), width=st.sampled_from([1, 17, 51]))
    def test_each_batch_starts_where_one_s_at_a_time_goes_next(self, case, width):
        n, threshold, cost = case
        asked = []  # the s a one-s-at-a-time bisection evaluates, in order
        reference = sequential_critical_exponent(lambda s: asked.append(s) or cost(s), n, threshold)
        walk, known = _bisection(n, threshold, width), set()
        batch = next(walk)
        while True:
            assert 1 <= len(batch) <= width and len(set(batch)) == len(batch)
            assert known.isdisjoint(batch)  # no s is asked twice
            assert batch[0] == next(s for s in asked if s not in known)
            known.update(batch)
            try:
                batch = walk.send([cost(s) for s in batch])
            except StopIteration as done:
                assert done.value == reference
                break

    @settings(max_examples=400, deadline=None)
    @given(case=non_increasing_costs(), slack=st.sampled_from([0.0, 1e-9, 1e-7]))
    def test_a_bound_within_the_margin_changes_no_comparison(self, case, slack):
        # a bound may fall below the cost by the float sums' rounding: slack
        # up to 1e-7 of it, against the 1e-6 margin, settles no step wrongly;
        # d_min = 0 prices every lo-side step at 0, so none is settled there
        n, threshold, cost = case
        reference = sequential_critical_exponent(cost, n, threshold)
        low = [n]  # the s asked whose cost was at most threshold, n first

        def bound(s, at):
            assert at == low[-1]  # the cover of the last such s prices s
            return cost(s) * (1.0 - slack)

        walk = _bisection(n, threshold, 1, SimpleNamespace(bound=bound, d_min=0.0))
        batch = next(walk)
        while True:
            low += [s for s in batch if s not in (0.0, n) and cost(s) <= threshold]
            try:
                batch = walk.send([cost(s) for s in batch])
            except StopIteration as done:
                assert done.value == reference
                break

    @settings(max_examples=400, deadline=None)
    @given(case=exponential_sums(), slack=st.sampled_from([0.0, 1e-9, 1e-7]))
    def test_two_sided_bounds_within_the_margin_change_no_comparison(self, case, slack):
        # both bounds may err by the float sums' rounding: the hi side's reads up
        # to 1e-7 low, and d_min up to 1e-7 high, so that d_min**(s - s') reads at
        # most (1 + 1e-7)**3 high on [0, 3], against the 1e-6 margin
        n, threshold, cost, d_min = case
        asked = []  # the s the bound-free bisection asks, in order
        reference = sequential_critical_exponent(lambda s: asked.append(s) or cost(s), n, threshold)
        band = SimpleNamespace(bound=lambda s, at: cost(s) * (1.0 - slack), d_min=d_min * (1.0 + slack))
        walk, order = _bisection(n, threshold, 1, band), iter(dict.fromkeys(asked))
        batch = next(walk)
        while True:
            assert all(s in order for s in batch)  # each s asked is the bound-free bisection's
            try:
                batch = walk.send([cost(s) for s in batch])
            except StopIteration as done:
                assert done.value == reference
                break

    @pytest.mark.parametrize(
        "threshold, above, below",
        [(1.0, math.inf, 0.5), (1e6, math.nextafter(1e6, math.inf), 1e6), (1.0, 2.0, 0.0)],
    )
    def test_no_guess_is_the_level_walk(self, threshold, above, below):
        # an infinite cost, two costs whose logs are equal, a zero cost at
        # the ends of [0.25, 0.3125], where the first batch leaves the
        # bisection: the next batch walks the tree below it level by level
        def cost(s):
            return 2.0 * threshold if s < 0.25 else above if s < 0.3 else below

        walk = _bisection(1.0, threshold, 17)
        first = next(walk)
        second = walk.send([cost(s) for s in first])
        levels = [0.25 + (k + 0.5) * 2.0**-4 / 2**depth for depth in range(5) for k in range(2**depth)]
        assert len(first) == 17 and second == levels[:17]

    # fp_points at p = .5, 1 and 2 (2,521, 401 and 81 points), and flog_points (1,220)
    PASS_CLOUDS = {
        "fp 0.5": lambda: fp_points(0.5, 1e-3, theta_min=0.5),
        "fp 1": lambda: fp_points(1.0, 1e-3, theta_min=0.5),
        "fp 2": lambda: fp_points(2.0, 1e-3, theta_min=0.5),
        "flog": lambda: flog_points(1e-4),
    }

    @pytest.mark.parametrize("cloud", sorted(PASS_CLOUDS))
    def test_guided_batches_take_no_more_passes_than_the_level_walk(self, monkeypatch, cloud):
        # at width 17, per interval-DP cell and threshold; the root is the same
        points = self.PASS_CLOUDS[cloud]()
        guided = level = 0
        for theta in (0.25, 0.5, 0.75, 1.0):
            for delta in (1e-1, 1e-2, 1e-3):
                try:
                    rng = ScaleRange(delta, theta)
                except ScaleRangeTooDeepError:
                    continue
                solver = cell_solver(points, rng)
                assert solver.batch_size == 17
                for threshold in (0.5, 1.0, 3.0):
                    with_guess = _passes(solver, threshold)
                    with monkeypatch.context() as patch:
                        patch.setattr(estimate, "_root_guess", lambda *args: None)
                        without = _passes(solver, threshold)
                    assert with_guess[1] == without[1]
                    assert with_guess[0] <= without[0]
                    guided, level = guided + with_guess[0], level + without[0]
        assert guided < level


def _dyadic_cell(cloud, delta: float, theta: float):
    """cell_solvers' band for the cell, or an unmet assume if the cell is not dyadic."""
    try:
        rng = ScaleRange(delta, theta)
        assume(cloud.dimension_n > 1 or theta == 0.0)
        return rng, cell_solver(cloud, rng)
    except (ScaleRangeTooDeepError, DepthLimitError):
        assume(False)


dyadic_thetas = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


class TestDyadicBound:
    """_DyadicBand.bound prices a cover the band chose at another s, and prunes no bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        cloud=st.integers(1, 3).flatmap(lambda n: point_clouds(dimension=n)),
        delta=st.floats(1e-3, 0.9),
        theta=dyadic_thetas,
        where=st.one_of(st.floats(0.0, 1.0), st.sampled_from([-1.0, 2.0])),
    )
    def test_same_root_and_cost_as_bound_free_bisection(self, cloud, delta, theta, where):
        rng, band = _dyadic_cell(cloud, delta, theta)
        n = float(cloud.dimension_n)

        def cost(s):
            return band.costs([s])[0][0]

        # where in [0, 1] puts the threshold log-uniformly between cost(n)
        # and cost(0); -1 forces the clamp at 0 and 2 the clamp at n
        try:
            threshold = cost(n) ** where * cost(0.0) ** (1.0 - where)
        except OverflowError:
            threshold = sys.float_info.max
        assume(0.0 < threshold < math.inf)
        ce = critical_exponent(cloud, delta, theta, threshold)
        reference = sequential_critical_exponent(cost, n, threshold)
        assert (ce.s_star, ce.cost_at_s_star) == reference

    @settings(max_examples=150, deadline=None)
    @given(
        cloud=point_clouds(),
        delta=st.floats(1e-3, 0.9),
        theta=dyadic_thetas,
        at=st.floats(0.0, 1.0),
        ss=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    def test_bound_is_the_cost_of_the_cover_chosen_at_at(self, cloud, delta, theta, at, ss):
        rng, band = _dyadic_cell(cloud, delta, theta)
        n = cloud.dimension_n
        at = at * n
        ((c_at,),) = band.costs([at])
        assert band.bound(at, at) == c_at
        chosen = covers.optimal_cover_dyadic(cloud, rng, at).diameters()
        fresh = cell_solver(cloud, rng)
        for s in (u * n for u in ss):
            bound = band.bound(s, at)
            assert bound == covers.cover_cost(chosen, s)
            assert bound >= fresh.costs([s])[0][0] * (1.0 - 1e-8)


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

    def test_falling_estimate_is_refused_as_too_coarse(self):
        pc = PointCloud.from_points([(x,) for x in (0.028, 0.035, 0.37, 0.378, 0.995)])
        with pytest.raises(EstimateNotMonotoneError, match="theta=1.0") as info:
            estimate_spectrum(pc, [0.25, 0.5, 0.75, 1.0], [1e-1, 1e-2, 1e-3])
        assert not isinstance(info.value, InvariantError)

    def test_one_admissible_delta_reports_raw_exponent(self):
        # at theta=0.2 only delta=1e-2 keeps its band above MIN_SCALE
        pts = fp_points(1.0, 1e-3, theta_min=0.2)
        spectrum = estimate_spectrum(pts, [0.2], [1e-2, 1e-3, 1e-4])
        raw = critical_exponent(pts, 1e-2, 0.2).s_star
        assert spectrum.samples[0].lower == raw == spectrum.samples[0].upper
        assert 0.0 < raw < 1.0

    def test_empty_row_raises_before_any_cell_is_solved(self, monkeypatch, solved_cells):
        with pytest.raises(ScaleRangeTooDeepError, match="theta=0.05"):
            estimate_spectrum(fp_points(1.0, 1e-2), [0.05, 1.0], [1e-2, 1e-3, 1e-4])
        assert solved_cells == []
        # theta=0.25 holds serial cells, which are solved together ahead of
        # the rows, but not while any row is empty
        cloud = fp_points(1.0, 1e-2)
        serial = [ScaleRange(d, 0.25) for d in (1e-2, 1e-3)]
        assert [cells for cells, _ in covers.cell_solvers(cloud, serial)] == [serial]
        passes = []
        real_table = covers._IntervalDP.table
        monkeypatch.setattr(
            covers._IntervalDP, "table", lambda dp, *ss: passes.append(ss) or real_table(dp, *ss)
        )
        with pytest.raises(ScaleRangeTooDeepError, match="theta=0.05"):
            estimate_spectrum(cloud, [0.05, 0.25, 1.0], [1e-2, 1e-3, 1e-4])
        assert solved_cells == [] and passes == []
        with pytest.raises(ScaleRangeTooDeepError, match="theta=0.05"):
            estimate_spectrum(cloud, [0.0, 0.05, 0.25, 1.0], [1e-2, 1e-3, 1e-4])
        assert solved_cells == [] and passes == []
        # an invalid threshold loses to an empty row, first or later
        with pytest.raises(ScaleRangeTooDeepError, match="theta=0.05"):
            estimate_spectrum(cloud, [0.05, 0.25], [1e-2, 1e-3, 1e-4], threshold=math.nan)
        with pytest.raises(ScaleRangeTooDeepError, match="theta=0.05"):
            estimate_spectrum(cloud, [0.0, 0.05, 0.25], [1e-2, 1e-3, 1e-4], threshold=math.nan)
        assert solved_cells == [] and passes == []

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


@pytest.fixture
def joint_passes(monkeypatch) -> list:
    """Per table pass of a group of interval-DP cells: how many menus it holds and reads."""
    passes = []
    real = covers._IntervalDP.table

    def recording(dp, *batches):
        if len(dp.menus) > 1:
            passes.append((len(dp.menus), sum(1 for ss in batches if len(ss))))
        return real(dp, *batches)

    monkeypatch.setattr(covers._IntervalDP, "table", recording)
    return passes


def sequential_samples(cloud, grid, deltas, threshold: float, menu_size: int = 16) -> list:
    """Per theta of a 1-D cloud, (theta, lower, upper) from each cell's own sequential bisection.

    Each cell's s* is sequential_critical_exponent over ScalarIntervalDP,
    one cost(s) at a time; the rows follow estimate_spectrum's drift fit.
    """
    n = float(cloud.dimension_n)
    samples = []
    for theta in grid:
        row = []
        for delta in deltas:
            try:
                rng = ScaleRange(delta, theta)
            except ScaleRangeTooDeepError:
                continue
            menu = geometric_menu(rng.lo, rng.hi, menu_size)
            cost = ScalarIntervalDP(cloud.array[:, 0].tolist(), menu).cost
            s, c = sequential_critical_exponent(cost, n, threshold)
            row.append(estimate.CriticalExponent(delta, theta, s, c))
        values = _drift_corrected(row)
        picked = [values[d] for d in sorted(values)[:2]]
        lower = max(0.0, min(min(picked), n))
        samples.append((theta, lower, max(lower, min(max(picked), n))))
    return samples


class TestSerialCellsInLockstep:
    # 113 points; at threshold 10 the serial cell theta=0.25, delta=1e-2
    # ends at s = 0 after the first pass, while the other five cells of its
    # dense group bisect on
    CLOUD = (2.0, 1e-3, 0.25)
    GRID, DELTAS = [0.25, 0.5, 0.75, 1.0], [1e-1, 1e-2, 1e-3]

    @pytest.mark.parametrize("threshold, rounds", [(10.0, [6, 3]), (1.0, [6, 6])])
    def test_samples_equal_sequential_bisection_per_cell(self, joint_passes, threshold, rounds):
        cloud = fp_points(*self.CLOUD)
        spectrum = estimate_spectrum(cloud, self.GRID, self.DELTAS, threshold=threshold)
        assert joint_passes == [(6, cells) for cells in rounds]
        samples = sequential_samples(cloud, self.GRID, self.DELTAS, threshold)
        assert [(x.theta, x.lower, x.upper) for x in spectrum.samples] == samples
        if threshold == 10.0:
            assert critical_exponent(cloud, 1e-2, 0.25, threshold).s_star == 0.0

    def test_benchmark_cloud_solves_its_three_serial_cells_in_two_passes(self, monkeypatch):
        # fp_points(1, 1e-4, theta_min=0.25): the 3 serial and 2 dense cells
        # share one DP, which takes 2 passes, and each of the 6 sparse cells
        # takes 2 passes alone, of at most 17 values a cell
        passes = {}  # per DP: the batch lengths of each pass
        real = covers._IntervalDP.table

        def recording(dp, *batches):
            passes.setdefault(dp, []).append([len(ss) for ss in batches])
            return real(dp, *batches)

        monkeypatch.setattr(covers._IntervalDP, "table", recording)
        cloud = fp_points(1.0, 1e-4, theta_min=0.25)
        spectrum = estimate_spectrum(cloud, [0.25, 0.5, 0.75, 1.0], [1e-2, 1e-3, 1e-4])
        (group,) = [p for dp, p in passes.items() if len(dp.menus) > 1]
        lone = [p for dp, p in passes.items() if len(dp.menus) == 1]
        assert [len(b) for b in group] == [5, 5] and len(lone) == 6
        assert all(len(p) == 2 and len(p[0]) == 1 for p in lone)
        assert max(n for p in passes.values() for b in p for n in b) == 17
        assert len(spectrum.samples) == 4

    def test_no_serial_dp_outlives_its_group(self, monkeypatch):
        # every interval DP, a group's or a lone cell's, is built with none alive
        built, alive = [], []
        real_init = covers._IntervalDP.__init__

        def counting(dp, xs, *menus, **given):
            alive.append([cells for ref, cells in built if ref() is not None])
            built.append((weakref.ref(dp), len(menus)))
            real_init(dp, xs, *menus, **given)

        monkeypatch.setattr(covers._IntervalDP, "__init__", counting)
        estimate_spectrum(fp_points(*self.CLOUD), self.GRID, self.DELTAS)
        assert sorted(cells for _, cells in built) == [1] * 6 + [6]
        assert alive == [[]] * 7


# fp and flog truncations of 33 to 113 points
TRUNCATIONS = [fp_points(*args) for args in ((2.0, 1e-3, 0.25), (2.0, 1e-2, 0.5), (1.0, 1e-2, 0.5))]
TRUNCATIONS.append(flog_points(1e-2))


@st.composite
def interval_spectra(draw):
    """A 1-D cloud, a theta grid, three deltas, a threshold and a menu size.

    The clouds are fp and flog truncations and random clouds.  On the
    truncations the cells of a grid mix serial, dense and sparse DPs; a
    draw of large deltas, or of theta .75 and 1 alone, groups dense cells
    with no serial member.  Every delta keeps every band above MIN_SCALE.
    """
    cloud = draw(st.one_of(st.sampled_from(TRUNCATIONS), point_clouds(max_points=40, dimension=1)))
    grid = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), min_size=1, unique=True))
    deltas = st.sampled_from([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    deltas = sorted(draw(st.lists(deltas, min_size=3, max_size=3, unique=True)), reverse=True)
    threshold = draw(st.sampled_from([0.5, 1.0, 3.0, 10.0]))
    return cloud, sorted(grid), deltas, threshold, draw(st.sampled_from([2, 5, 16]))


class TestIntervalGroupsMatchSequentialBisection:
    @settings(max_examples=60, deadline=None)
    @given(case=interval_spectra())
    # one group of three dense cells with no serial member, alone in its row
    @example(case=(TRUNCATIONS[1], [0.75], [1e-2, 3e-3, 1e-3], 1.0, 16))
    # the same three in one group with the serial cells of theta .5 and a dense cell at 1
    @example(case=(TRUNCATIONS[1], [0.5, 0.75, 1.0], [1e-2, 3e-3, 1e-3], 3.0, 16))
    def test_every_sample_equals_the_per_cell_bisection(self, case):
        cloud, grid, deltas, threshold, menu_size = case
        expected = sequential_samples(cloud, grid, deltas, threshold, menu_size)
        falls = any(
            row[i] < max(before[i] for before in expected[:k]) - TOL_MONO_ESTIMATED
            for k, row in enumerate(expected)
            if k
            for i in (1, 2)
        )
        if falls:
            with pytest.raises(EstimateNotMonotoneError):
                estimate_spectrum(cloud, grid, deltas, threshold, menu_size)
        else:
            spectrum = estimate_spectrum(cloud, grid, deltas, threshold, menu_size)
            assert [(x.theta, x.lower, x.upper) for x in spectrum.samples] == expected


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

    @pytest.mark.parametrize("delta", [0.0, -1e-3, math.nan])
    def test_bad_delta(self, delta):
        with pytest.raises(ValidationError):
            coupled_truncation(1.0, delta)

    def test_overflow_refused(self):
        with pytest.raises(ValidationError, match="overflows"):
            coupled_truncation(1e10, 1e-300)


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

    @pytest.mark.parametrize(
        "p, delta, theta_min",
        [(0.5, 1e-6, 0.25), (1.0, 1e-300, 1.0), (1.0, 1e-300, 0.01), (1e10, 1e-300, 1.0)],
    )
    def test_fp_points_refuse_more_than_max_points(self, p, delta, theta_min):
        # (0.5, 1e-6, 0.25) asks for 251,984,212 points and (1, 1e-300) for
        # about 4e150; at theta_min=0.01 the coupled scale underflows to 0
        with pytest.raises(ValidationError, match=f"more than {MAX_POINTS} points|overflows"):
            fp_points(p, delta, theta_min)

    def test_fp_points_delta_1e6_cloud_fits(self):
        assert len(fp_points(1.0, 1e-6, theta_min=0.25)) == 252_385 <= MAX_POINTS

    @pytest.mark.parametrize(
        "p, delta", [(1.0, 0.0), (1.0, -0.5), (1.0, math.nan), (-1.0, 1e-2), (math.nan, 1e-2)]
    )
    def test_fp_points_refuse_bad_numbers(self, p, delta):
        with pytest.raises(ValidationError):
            fp_points(p, delta)

    def test_flog_points_refuse_more_than_max_points(self):
        with pytest.raises(ValidationError, match=f"more than {MAX_POINTS} points"):
            flog_points(1e-300)

    def test_flog_points(self):
        cloud = flog_points(1e-3)
        assert cloud.points[0] == (0.0,)
        xs = [p[0] for p in cloud.points[1:]]
        assert max(xs) == pytest.approx(1.0 / math.log(2.0))
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        assert min(gaps) < 1e-3
