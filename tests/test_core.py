import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimspect import (
    AtomicMeasure,
    CarpetSpec,
    DimensionSpectrum,
    EmptyIntersectionError,
    GridMismatchError,
    InvariantError,
    PointCloud,
    ScaleRange,
    ScaleRangeTooDeepError,
    SpectrumSample,
    ValidationError,
    carpet_spectrum,
    check_mdp,
    default_theta_grid,
    constant_spectrum,
    estimate_spectrum,
    example_spectrum_curve,
    sequence_spectrum,
    spectrum_merge,
)
from dimspect.core import theta_grid
from oracles import tuple_from_points


class TestScaleBounds:
    def test_theta_one_forces_equal_diameters(self):
        rng = ScaleRange(0.01, 1.0)
        assert (rng.lo, rng.hi) == (0.01, 0.01)

    def test_half_theta_squares_delta(self):
        rng = ScaleRange(0.01, 0.5)
        assert rng.hi == 0.01
        assert rng.lo == pytest.approx(1e-4, rel=1e-12)

    def test_quarter_theta(self):
        rng = ScaleRange(0.1, 0.25)
        assert rng.hi == 0.1
        assert rng.lo == pytest.approx(1e-4, rel=1e-12)

    def test_theta_zero_is_unrestricted(self):
        rng = ScaleRange(0.01, 0.0)
        assert (rng.lo, rng.hi) == (0.0, 0.01)

    def test_lo_monotone_in_theta(self):
        thetas = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
        los = [ScaleRange(0.3, t).lo for t in thetas]
        assert all(a <= b for a, b in zip(los, los[1:]))

    def test_too_deep_refused(self):
        with pytest.raises(ScaleRangeTooDeepError):
            ScaleRange(1e-4, 0.25)  # 1e-16 < MIN_SCALE

    def test_boundary_at_min_scale_allowed(self):
        # 0.001**4 lands a hair above 1e-12 in doubles; must not be refused
        rng = ScaleRange(1e-3, 0.25)
        assert rng.lo == pytest.approx(1e-12, rel=1e-9)

    def test_bad_domains(self):
        with pytest.raises(ValidationError):
            ScaleRange(1.5, 0.5)
        with pytest.raises(ValidationError):
            ScaleRange(0.5, 1.5)


def _signed(rows):
    """Each coordinate with its sign, so that 0.0 and -0.0 differ."""
    return [(x, math.copysign(1.0, x)) for row in rows for x in row]


def _flip_zeros(row):
    """The row with the sign of each zero flipped (an int 0 becomes -0.0)."""
    return tuple(math.copysign(0.0, -math.copysign(1.0, x)) if x == 0 else x for x in row)


@st.composite
def raw_point_lists(draw):
    """Shuffled point lists in R^1..R^3 with repeats, 0.0/-0.0 twins and ints."""
    n = draw(st.integers(1, 3))
    coord = st.one_of(
        st.sampled_from([0.0, -0.0, 0, 1, -1, 0.5, -0.5]),
        st.integers(-(2**60), 2**60),
        st.floats(-1e300, 1e300, allow_nan=False),
    )
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=30))
    pts += draw(st.lists(st.sampled_from(pts), max_size=10))
    pts += draw(st.lists(st.sampled_from(pts).map(_flip_zeros), max_size=10))
    return draw(st.permutations(pts))


class TestPointCloud:
    def test_dedupe_and_sort(self):
        pc = PointCloud.from_points([(0.5,), (0.1,), (0.5,)])
        assert pc.points == ((0.1,), (0.5,))

    def test_bbox_computed(self):
        pc = PointCloud.from_points([(0.2, 0.7), (0.9, 0.1)])
        assert pc.bbox == ((0.2, 0.1), (0.9, 0.7))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            PointCloud.from_points([])

    def test_bad_dimension(self):
        with pytest.raises(ValidationError):
            PointCloud.from_points([(1.0, 2.0, 3.0, 4.0)])

    @pytest.mark.parametrize(
        "pts",
        [
            [(0.1,), (0.2, 0.3)],  # ragged
            [(0.1, 0.2), (0.3,)],
            [(0.1,), ("a",)],  # not a number
            [(0.1,), (math.nan,)],
            [(0.0, math.inf)],
            [(-math.inf,)],
            [0.1, 0.2],  # numbers, not rows
        ],
    )
    def test_malformed_points_refused(self, pts):
        with pytest.raises(ValidationError):
            PointCloud.from_points(pts)

    @pytest.mark.parametrize(
        "pts",
        [
            [(-1e308,), (0.0,), (1e308,)],  # the extent overflows
            [(0.0, 0.0), (1.5e308, 0.0)],  # the extent times sqrt(2) overflows
        ],
    )
    def test_overflowing_extent_refused(self, pts):
        with pytest.raises(ValidationError, match="overflows"):
            PointCloud.from_points(pts)

    def test_array_is_read_only_float64(self):
        cloud = PointCloud.from_points([(1, 0.25), (0.1, 0.9)])
        assert cloud.array.dtype == np.float64 and cloud.array.flags.c_contiguous
        with pytest.raises(ValueError):
            cloud.array[0, 0] = 2.0

    def test_first_zero_twin_survives(self):
        for pts in ([(0.0, -0.0), (-0.0, 0.0)], [(-0.0, 0.0), (0.0, -0.0)]):
            cloud = PointCloud.from_points(pts)
            assert _signed(cloud.points) == _signed(pts[:1])
            assert _signed(cloud.bbox) == _signed([pts[0], pts[0]])

    @settings(max_examples=300, deadline=None)
    @given(pts=raw_point_lists())
    def test_matches_tuple_oracle(self, pts):
        cloud = PointCloud.from_points(pts)
        rows, bbox = tuple_from_points(pts)
        assert _signed(cloud.points) == _signed(rows)
        assert _signed(cloud.bbox) == _signed(bbox)


def _spectrum(values, ambient=1, method="exact"):
    k = len(values)
    thetas = [i / (k - 1) for i in range(k)]
    return DimensionSpectrum(
        ambient_n=ambient,
        samples=tuple(
            SpectrumSample(t, v, v, method) for t, v in zip(thetas, values)
        ),
    )


class TestThetaGrid:
    def test_sorted(self):
        assert theta_grid([1, 0.25, 0.0]) == [0.0, 0.25, 1.0]

    @pytest.mark.parametrize(
        "build",
        [
            lambda grid: carpet_spectrum(CarpetSpec.create(2, 3, [(0, 0), (0, 2), (1, 1)]), grid),
            lambda grid: estimate_spectrum(
                PointCloud.from_points([(0.1,), (0.7,)]), grid, [1e-1, 1e-2, 1e-3]
            ),
            lambda grid: sequence_spectrum(1.0, grid),
            lambda grid: example_spectrum_curve(2, grid),
            lambda grid: constant_spectrum(0.5, grid, 1),
        ],
        ids=[
            "carpet_spectrum",
            "estimate_spectrum",
            "sequence_spectrum",
            "example_spectrum_curve",
            "constant_spectrum",
        ],
    )
    @pytest.mark.parametrize("grid", [[0.5, 0.25, 0.5], [0.0, 0.0]])
    def test_builders_refuse_a_repeated_theta(self, build, grid):
        with pytest.raises(ValidationError, match="theta grid contains duplicates"):
            build(grid)

    @pytest.mark.parametrize("grid", [[0.5, 1.5], [math.nan], [-0.1]])
    def test_out_of_range_refused(self, grid):
        with pytest.raises(ValidationError, match=r"need theta in \[0, 1\]"):
            theta_grid(grid)

    @pytest.mark.parametrize(
        "build",
        [
            lambda grid: sequence_spectrum(1.0, grid),
            lambda grid: example_spectrum_curve(4, grid),
            lambda grid: constant_spectrum(0.5, grid, 1),
        ],
        ids=["sequence_spectrum", "example_spectrum_curve", "constant_spectrum"],
    )
    def test_formula_builders_sort_their_grid_as_floats(self, build):
        thetas = build([1, 0.5, 0]).thetas()
        assert thetas == (0.0, 0.5, 1.0) and all(type(t) is float for t in thetas)

    def test_sample_keeps_the_float_theta(self):
        spectrum = DimensionSpectrum(1, (SpectrumSample(1, 0.5, 0.5, "exact"),))
        assert json.dumps(spectrum.to_json_dict()["samples"][0]["theta"]) == "1.0"


class TestDimensionSpectrum:
    def test_crossing_rejected(self):
        with pytest.raises(InvariantError, match=r"^lower 0\.9 > upper 0\.2 at theta=0\.5$"):
            DimensionSpectrum(
                ambient_n=1, samples=(SpectrumSample(0.5, 0.9, 0.2, "exact"),)
            )

    def test_negative_lower_rejected_as_negative(self):
        # a negative lower under a larger upper is not a crossing
        with pytest.raises(InvariantError, match=r"^lower -0\.1 < 0 at theta=0\.5$"):
            DimensionSpectrum(1, (SpectrumSample(0.5, -0.1, 0.5, "exact"),))
        DimensionSpectrum(1, (SpectrumSample(0.5, -1e-13, 0.5, "exact"),))  # inside the slack

    def test_above_ambient_rejected(self):
        with pytest.raises(InvariantError):
            DimensionSpectrum(
                ambient_n=1, samples=(SpectrumSample(0.5, 0.9, 1.2, "exact"),)
            )

    def test_exact_monotonicity_enforced(self):
        with pytest.raises(InvariantError):
            _spectrum([0.0, 0.5, 0.4])

    def test_estimated_tolerance(self):
        # a 0.01 sag is within the estimator's monotonicity slack
        _spectrum([0.0, 0.5, 0.49], method="estimated")
        with pytest.raises(InvariantError):
            _spectrum([0.0, 0.5, 0.4], method="estimated")

    def test_estimated_theta0_exempt(self):
        # the unrestricted theta=0 estimate may sit above its neighbours
        _spectrum([0.3, 0.2, 0.25, 0.3], method="estimated")

    def test_json_roundtrip(self):
        spec = _spectrum([0.0, 0.25, 0.5])
        again = DimensionSpectrum.from_json_dict(spec.to_json_dict())
        assert again == spec

    @settings(max_examples=100, deadline=None)
    @given(
        ambient=st.integers(1, 3),
        data=st.data(),
        method=st.text(max_size=12),
    )
    def test_json_text_roundtrip(self, ambient, data, method):
        thetas = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8, unique=True))
        value = st.floats(0.0, float(ambient))
        pairs = [sorted(data.draw(st.tuples(value, value))) for _ in thetas]
        # sorting each column keeps lower <= upper sample by sample
        samples = tuple(
            SpectrumSample(t, lower, upper, method)
            for t, lower, upper in zip(
                sorted(thetas), sorted(p[0] for p in pairs), sorted(p[1] for p in pairs)
            )
        )
        spec = DimensionSpectrum(ambient_n=ambient, samples=samples)
        text = json.dumps(spec.to_json_dict())
        assert DimensionSpectrum.from_json_dict(json.loads(text)) == spec

    @pytest.mark.parametrize(
        "ambient, sample",
        [
            (1.7, {}),
            ("1", {}),
            (math.inf, {}),
            (1, {"theta": "ab"}),
            (1, {"theta": math.nan}),
            (1, {"lower": math.nan}),
            (1, {"upper": math.nan}),
            (1, {"upper": math.inf}),
        ],
        ids=[
            "fractional-ambient",
            "string-ambient",
            "infinite-ambient",
            "text-theta",
            "nan-theta",
            "nan-lower",
            "nan-upper",
            "infinite-upper",
        ],
    )
    def test_json_refuses_bad_numbers(self, ambient, sample):
        sample = {"theta": 0.5, "lower": 0.0, "upper": 1.0, "method": "exact", **sample}
        with pytest.raises(ValidationError):
            DimensionSpectrum.from_json_dict({"ambient_n": ambient, "samples": [sample]})

    @pytest.mark.parametrize(
        "ambient, sample",
        [(True, {}), (1, {"upper": " 1 "}), (1, {"theta": "0.5"}), (1, {"lower": False})],
        ids=["bool-ambient", "quoted-upper", "quoted-theta", "bool-lower"],
    )
    def test_json_refuses_quoted_numbers_and_bools(self, ambient, sample):
        # true used to read as ambient dimension 1, and " 1 " as upper 1.0
        sample = {"theta": 0.5, "lower": 0.0, "upper": 1.0, "method": "exact", **sample}
        with pytest.raises(ValidationError):
            DimensionSpectrum.from_json_dict({"ambient_n": ambient, "samples": [sample]})

    @pytest.mark.parametrize("method", [None, ["estimated"], 1.0], ids=["null", "list", "number"])
    def test_json_refuses_a_method_that_is_not_text(self, method):
        # null used to read as the tag "None", and ["estimated"] as an estimated sample
        sample = {"theta": 0.5, "lower": 0.0, "upper": 1.0, "method": method}
        with pytest.raises(ValidationError):
            DimensionSpectrum.from_json_dict({"ambient_n": 1, "samples": [sample]})


@st.composite
def spectra_on_one_grid(draw, count: int = 3):
    """count spectra on one drawn theta grid and ambient dimension, each column monotone."""
    ambient = draw(st.integers(1, 3))
    thetas = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6, unique=True)))
    value = st.floats(0.0, float(ambient))
    spectra = []
    for _ in range(count):
        pairs = [sorted(draw(st.tuples(value, value))) for _ in thetas]
        lowers, uppers = sorted(p[0] for p in pairs), sorted(p[1] for p in pairs)
        method = draw(st.sampled_from(["exact", "estimated"]))
        samples = (SpectrumSample(*row, method) for row in zip(thetas, lowers, uppers))
        spectra.append(DimensionSpectrum(ambient_n=ambient, samples=tuple(samples)))
    return spectra


def _values(spectrum):
    return spectrum.thetas(), spectrum.lowers(), spectrum.uppers()


def _merged_values(a, b, mode):
    """The merged (thetas, lowers, uppers), or the error class the merge raised."""
    try:
        return _values(spectrum_merge(a, b, mode))
    except EmptyIntersectionError:
        return EmptyIntersectionError


class TestSpectrumMergeLaws:
    # the method tags of a merge join in argument order, so the laws are on the numbers

    @settings(max_examples=150, deadline=None)
    @given(spectra=spectra_on_one_grid(), mode=st.sampled_from(["max", "min", "intersect"]))
    def test_commutative_and_idempotent(self, spectra, mode):
        a, b, _ = spectra
        assert _merged_values(a, b, mode) == _merged_values(b, a, mode)
        assert spectrum_merge(a, a, mode) == a

    @settings(max_examples=150, deadline=None)
    @given(spectra=spectra_on_one_grid(), mode=st.sampled_from(["max", "min"]))
    def test_max_and_min_associative(self, spectra, mode):
        a, b, c = spectra
        left = spectrum_merge(spectrum_merge(a, b, mode), c, mode)
        right = spectrum_merge(a, spectrum_merge(b, c, mode), mode)
        assert _values(left) == _values(right)

    @settings(max_examples=100, deadline=None)
    @given(
        spectra=spectra_on_one_grid(count=1),
        mode=st.sampled_from(["max", "min", "intersect"]),
        extra=st.floats(0.0, 1.0),
    )
    def test_different_grids_or_ambients_refused(self, spectra, mode, extra):
        (a,) = spectra
        assume(extra not in a.thetas())
        grid = sorted([*a.thetas(), extra])
        others = (
            DimensionSpectrum(ambient_n=a.ambient_n + 1, samples=a.samples),
            DimensionSpectrum(
                ambient_n=a.ambient_n,
                samples=tuple(SpectrumSample(t, 0.0, 0.0, "exact") for t in grid),
            ),
        )
        for other in others:
            for x, y in ((a, other), (other, a)):
                with pytest.raises(GridMismatchError):
                    spectrum_merge(x, y, mode)


class TestSpectrumMerge:
    def test_max_realizes_union_formula(self):
        # sequence p=1 against a constant 1/3: max{theta/(1+theta), 1/3}
        grid = default_theta_grid(21)
        seq = _spectrum([t / (1 + t) for t in grid])
        const = _spectrum([1 / 3] * len(grid))
        merged = spectrum_merge(seq, const, "max")
        for sample, t in zip(merged.samples, grid):
            assert sample.lower == pytest.approx(max(t / (1 + t), 1 / 3), abs=0)
        assert merged.samples[5].lower == pytest.approx(1 / 3)  # theta=0.25

    def test_idempotent(self):
        s = _spectrum([0.0, 0.3, 0.5])
        assert spectrum_merge(s, s, "max") == s

    def test_intersect_keeps_tighter_bounds(self):
        grid = [0.0, 0.5, 1.0]
        low = DimensionSpectrum(
            ambient_n=1,
            samples=tuple(SpectrumSample(t, 0.2, 1.0, "exact") for t in grid),
        )
        high = DimensionSpectrum(
            ambient_n=1,
            samples=tuple(SpectrumSample(t, 0.0, 0.9, "exact") for t in grid),
        )
        merged = spectrum_merge(low, high, "intersect")
        assert all(s.lower == 0.2 and s.upper == 0.9 for s in merged.samples)

    def test_intersect_crossing_raises(self):
        a = DimensionSpectrum(
            ambient_n=1, samples=(SpectrumSample(0.5, 0.8, 1.0, "exact"),)
        )
        b = DimensionSpectrum(
            ambient_n=1, samples=(SpectrumSample(0.5, 0.0, 0.3, "exact"),)
        )
        with pytest.raises(EmptyIntersectionError):
            spectrum_merge(a, b, "intersect")

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            spectrum_merge(_spectrum([0.0, 0.5]), _spectrum([0.0, 0.4, 0.5]), "max")

    @pytest.mark.parametrize("exact_first", [True, False])
    def test_joined_tag_with_an_estimate_keeps_its_slack(self, exact_first):
        # the estimate falls by 0.01 in theta: within TOL_MONO_ESTIMATED, past TOL_MONO_EXACT
        grid = [0.2, 0.5, 0.8]
        exact = DimensionSpectrum(1, tuple(SpectrumSample(t, 0.1, 0.1, "exact") for t in grid))
        estimated = DimensionSpectrum(
            1,
            tuple(SpectrumSample(t, v, v, "estimated") for t, v in zip(grid, [0.1, 0.2, 0.19])),
        )
        a, b = (exact, estimated) if exact_first else (estimated, exact)
        merged = spectrum_merge(a, b, "max")
        assert merged.lowers() == (0.1, 0.2, 0.19)
        assert {s.method for s in merged.samples} == {f"{a.samples[0].method}|{b.samples[0].method}"}


class TestAtomicMeasure:
    def test_total_is_sum(self):
        mu = AtomicMeasure.from_atoms([((0.1,), 0.25), ((0.2,), 0.75)])
        assert mu.total == pytest.approx(1.0, abs=0)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValidationError):
            AtomicMeasure.from_atoms([((0.1,), 0.0)])

    def test_json_roundtrip(self):
        mu = AtomicMeasure.from_atoms([((0.1, 0.2), 0.4), ((0.3, 0.9), 0.6)])
        assert AtomicMeasure.from_json_dict(mu.to_json_dict()).atoms == mu.atoms

    @settings(max_examples=100, deadline=None)
    @given(
        dimension=st.integers(1, 3),
        data=st.data(),
    )
    def test_json_text_roundtrip(self, dimension, data):
        coord = st.floats(allow_nan=False, allow_infinity=False)
        mass = st.floats(1e-300, 1e300)
        atoms = data.draw(
            st.lists(st.tuples(st.tuples(*[coord] * dimension), mass), min_size=1, max_size=20)
        )
        mu = AtomicMeasure.from_atoms(atoms)
        text = json.dumps(mu.to_json_dict())
        assert AtomicMeasure.from_json_dict(json.loads(text)).atoms == mu.atoms

    @pytest.mark.parametrize(
        "atoms",
        [
            [((math.nan,), 1.0)],
            [((math.inf, 0.0), 1.0)],
            [((0.5,), math.nan)],
            [((0.5,), math.inf)],
            [((0.1,), 0.5), ((0.2, 0.3), 0.5)],
            [((), 1.0)],
            [((0.1,), 1e308), ((0.2,), 1e308)],
            [((0.1,), "heavy")],
            [("12", 1.0)],
            [(b"12", 1.0)],
            (np.array([[0.1], [0.2]]), np.array([0.5, 0.0])),
            (np.array([[0.1], [0.2]]), np.array([1e308, 1e308])),
            (np.array([[0.1], [0.2]]), np.array([1.0])),
        ],
        ids=[
            "nan-coordinate",
            "inf-coordinate",
            "nan-mass",
            "inf-mass",
            "mixed-lengths",
            "no-coordinates",
            "total-overflows",
            "text-mass",
            "text-point",
            "bytes-point",
            "constructor-zero-mass",
            "constructor-total-overflows",
            "constructor-shape-mismatch",
        ],
    )
    def test_refuses_bad_numbers(self, atoms):
        # a tuple of (points, masses) arrays goes to the constructor, a list of pairs to from_atoms
        with pytest.raises(ValidationError):
            AtomicMeasure(*atoms) if isinstance(atoms, tuple) else AtomicMeasure.from_atoms(atoms)

    def test_nan_atom_cannot_certify(self):
        # a NaN atom lies in no ball, so check_mdp used to pass it with ratio 0
        with pytest.raises(ValidationError):
            check_mdp([(0.1, AtomicMeasure.from_atoms([((math.nan,), 1.0)]))], 0.5, 0.5, 1.0, 1.0)

    def test_json_text_coordinate_refused(self):
        with pytest.raises(ValidationError):
            AtomicMeasure.from_json_dict({"atoms": [{"x": "ab", "mass": 1}]})

    def test_json_text_point_refused(self):
        # "12" used to read as the point (1.0, 2.0), one coordinate a character
        with pytest.raises(ValidationError):
            AtomicMeasure.from_json_dict({"atoms": [{"x": "12", "mass": 1}]})

    @pytest.mark.parametrize(
        "atom",
        [
            {"x": ["0.25"], "mass": "1"},
            {"x": [0.25], "mass": "1"},
            {"x": ["0.25"], "mass": 1},
            {"x": [0.25], "mass": True},
            {"x": [True], "mass": 1},
        ],
        ids=["quoted-both", "quoted-mass", "quoted-coordinate", "bool-mass", "bool-coordinate"],
    )
    def test_json_refuses_quoted_numbers_and_bools(self, atom):
        # {"x": ["0.25"], "mass": "1"} used to read as the atom ((0.25,), 1.0)
        with pytest.raises(ValidationError):
            AtomicMeasure.from_json_dict({"atoms": [atom]})


def test_default_grid_is_101_uniform():
    grid = default_theta_grid()
    assert len(grid) == 101
    assert grid[0] == 0.0 and grid[-1] == 1.0
    steps = {round(b - a, 15) for a, b in zip(grid, grid[1:])}
    assert all(abs(s - 0.01) < 1e-12 for s in steps)
