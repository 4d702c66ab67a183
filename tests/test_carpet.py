import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspect import (
    CarpetSpec,
    ValidationError,
    approx_square_measure,
    box_dim,
    carpet_points,
    carpet_spectrum,
    entropy,
    hausdorff_dim,
    log_upper_excess,
    lower_bound_theta,
    mcmullen_weights,
    upper_bound_theta,
)
from dimspect.carpet import UpperBoundDomainError, row_depth
from conftest import random_carpet
from oracles import (
    approx_square_measure_alt,
    entropy_displayed,
    loop_carpet_points,
    rectangle_measure,
    tuple_from_points,
)

# worked example (m=2, n=3, digits (0,0),(0,2),(1,1)), 60-digit reference values
BOX_REF = 1.3690702464285425629
HAUSDORFF_REF = 1.3496838201955775731
ENTROPY_REF = 1.0909713867256947586
WEIGHT2_REF = 0.30381098362091462371  # digits in the two-cell column
WEIGHT1_REF = 0.39237803275817075259  # digit in the one-cell column
EXCESS_COEF_REF = 0.58116295873095888783
EXCESS_005_REF = 0.19399696156475806621
LOWER_AT_1_REF = 1.3607073115358184445


class TestSpecValidation:
    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            CarpetSpec.create(2, 3, [(0, 0), (0, 0)])

    def test_single_digit_rejected(self):
        with pytest.raises(ValidationError):
            CarpetSpec.create(2, 3, [(0, 0)])

    def test_grid_shape_rejected(self):
        with pytest.raises(ValidationError):
            CarpetSpec.create(3, 3, [(0, 0), (1, 1)])
        with pytest.raises(ValidationError):
            CarpetSpec.create(2, 3, [(0, 0), (2, 1)])

    def test_json_roundtrip(self, worked_carpet):
        again = CarpetSpec.from_json_dict(worked_carpet.to_json_dict())
        assert again == worked_carpet

    @pytest.mark.parametrize(
        "change",
        [
            {"m": 2.9},
            {"m": "2"},
            {"m": True},
            {"n": "3"},
            {"digits": [[0, 0], [1, 1.7]]},
            {"digits": [[0, 0], ["1", 1]]},
            {"digits": [[0, 0], [True, 1]]},
        ],
        ids=["fractional-m", "quoted-m", "bool-m", "quoted-n", "fractional-digit",
             "quoted-digit", "bool-digit"],
    )
    def test_json_refuses_non_integers(self, change):
        # m = 2.9 used to truncate to 2, and the digit [1, 1.7] to (1, 1)
        doc = {"m": 2, "n": 3, "digits": [[0, 0], [1, 1]], **change}
        with pytest.raises(ValidationError):
            CarpetSpec.from_json_dict(doc)
        with pytest.raises(ValidationError):
            CarpetSpec.create(doc["m"], doc["n"], doc["digits"])

    def test_integral_floats_read_as_integers(self):
        spec = CarpetSpec.from_json_dict({"m": 2.0, "n": 3, "digits": [[0, 0.0], [1, 1]]})
        assert spec == CarpetSpec.create(2, 3, [(0, 0), (1, 1)])
        assert all(type(v) is int for v in (spec.m, *spec.digits[0]))


class TestClosedForms:
    def test_worked_example_box(self, worked_carpet):
        assert box_dim(worked_carpet) == pytest.approx(BOX_REF, abs=1e-14)
        assert box_dim(worked_carpet) == pytest.approx(
            2.0 - math.log(2) / math.log(3), abs=1e-14
        )

    def test_worked_example_hausdorff(self, worked_carpet):
        assert hausdorff_dim(worked_carpet) == pytest.approx(HAUSDORFF_REF, abs=1e-14)

    def test_full_grid_is_square(self):
        full = CarpetSpec.create(2, 3, [(p, q) for p in range(2) for q in range(3)])
        assert box_dim(full) == pytest.approx(2.0, abs=1e-14)
        assert hausdorff_dim(full) == pytest.approx(2.0, abs=1e-14)

    def test_hausdorff_below_box_iff_columns_unequal(self):
        rnd = random.Random(11)
        for _ in range(40):
            spec = random_carpet(rnd)
            h, b = hausdorff_dim(spec), box_dim(spec)
            assert 0.0 <= h <= b + 1e-12 <= 2.0 + 1e-12
            if spec.columns_equal():
                assert h == pytest.approx(b, abs=1e-12)
            else:
                assert h < b - 1e-12


class TestWeights:
    def test_uniform_columns_give_equal_weights(self):
        spec = CarpetSpec.create(2, 3, [(0, 0), (1, 1)])
        der = mcmullen_weights(spec)
        assert der.b_ell == pytest.approx((0.5, 0.5), abs=1e-14)

    def test_worked_example_structure(self, worked_carpet):
        der = mcmullen_weights(worked_carpet)
        # digits sorted: (0,0), (0,2) share the 2-column; (1,1) is alone
        assert der.a_ell == (2, 2, 1)
        assert der.b_ell[0] == pytest.approx(WEIGHT2_REF, abs=1e-14)
        assert der.b_ell[1] == pytest.approx(WEIGHT2_REF, abs=1e-14)
        assert der.b_ell[2] == pytest.approx(WEIGHT1_REF, abs=1e-14)
        assert der.a_max == 2

    def test_weights_sum_to_one_random(self):
        rnd = random.Random(7)
        for _ in range(20):
            der = mcmullen_weights(random_carpet(rnd))
            assert math.fsum(der.b_ell) == pytest.approx(1.0, abs=1e-12)

    def test_identity_sum_a_to_L_minus_1(self):
        rnd = random.Random(23)
        for _ in range(20):
            spec = random_carpet(rnd)
            der = mcmullen_weights(spec)
            lhs = math.fsum(a ** (der.L - 1.0) for a in der.a_ell)
            assert lhs == pytest.approx(spec.m**der.d, rel=1e-10)


class TestEntropy:
    def test_full_grid_maximal(self):
        full = CarpetSpec.create(2, 3, [(p, q) for p in range(2) for q in range(3)])
        assert entropy(full) == pytest.approx(math.log(6), abs=1e-12)

    def test_worked_example_two_routes_agree(self, worked_carpet):
        h = entropy(worked_carpet)
        assert 0.0 < h < math.log(3)
        assert h == pytest.approx(ENTROPY_REF, abs=1e-14)
        assert h == pytest.approx(entropy_displayed(worked_carpet), abs=1e-12)

    def test_two_routes_agree_random(self):
        rnd = random.Random(31)
        for _ in range(20):
            spec = random_carpet(rnd)
            assert entropy(spec) == pytest.approx(entropy_displayed(spec), abs=1e-12)

    def test_column_heavy_strictly_below_log(self):
        spec = CarpetSpec.create(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0)])
        assert entropy(spec) < math.log(4) - 1e-6


class TestApproximateSquares:
    def test_row_depth(self, worked_carpet):
        L = mcmullen_weights(worked_carpet).L
        assert row_depth(1, L) == 0
        assert row_depth(2, L) == 1
        assert row_depth(6, L) == 3

    def test_two_forms_agree(self, worked_carpet):
        rnd = random.Random(5)
        for _ in range(50):
            spec = random_carpet(rnd)
            k = rnd.randint(1, 9)
            word = [rnd.choice(spec.digits) for _ in range(k)]
            a = approx_square_measure(spec, word)
            b = approx_square_measure_alt(spec, word)
            assert a == pytest.approx(b, rel=1e-12)

    def test_uniform_column_closed_form(self):
        spec = CarpetSpec.create(2, 4, [(0, 0), (0, 3), (1, 1), (1, 2)])
        der = mcmullen_weights(spec)
        a = 2
        for k in (1, 2, 3, 5):
            word = [spec.digits[0]] * k
            l_k = row_depth(k, der.L)
            expected = spec.m ** (-k * der.d) * a ** (k * der.L) * a ** (-l_k)
            assert approx_square_measure(spec, word) == pytest.approx(expected, rel=1e-12)

    def test_depth_one_square_equals_rectangle_sum(self, worked_carpet):
        # l(1) = 0: the square through a digit is its whole column of cells
        der = mcmullen_weights(worked_carpet)
        for digit in worked_carpet.digits:
            column = [d for d in worked_carpet.digits if d[0] == digit[0]]
            total = math.fsum(rectangle_measure(der, [d]) for d in column)
            assert approx_square_measure(worked_carpet, [digit]) == pytest.approx(
                total, rel=1e-12
            )

    def test_partition_sums_to_one(self, worked_carpet):
        der = mcmullen_weights(worked_carpet)
        for k in range(1, 7):
            l_k = row_depth(k, der.L)
            seen = set()
            total = 0.0
            for word in itertools.product(worked_carpet.digits, repeat=k):
                key = (
                    tuple(p for p, _ in word),
                    tuple(q for _, q in word[:l_k]),
                )
                if key in seen:
                    continue
                seen.add(key)
                total += approx_square_measure(worked_carpet, word)
            assert total == pytest.approx(1.0, rel=1e-10)

    def test_rectangle_partition_sums_to_one(self, worked_carpet):
        der = mcmullen_weights(worked_carpet)
        for k in range(1, 7):
            total = math.fsum(
                rectangle_measure(der, word)
                for word in itertools.product(worked_carpet.digits, repeat=k)
            )
            assert total == pytest.approx(1.0, rel=1e-10)

    def test_word_validation(self, worked_carpet):
        with pytest.raises(ValidationError):
            approx_square_measure(worked_carpet, [])
        with pytest.raises(ValidationError):
            approx_square_measure(worked_carpet, [(1, 2)])


class TestThetaBounds:
    def test_upper_domain(self, worked_carpet):
        L = mcmullen_weights(worked_carpet).L
        with pytest.raises(UpperBoundDomainError):
            upper_bound_theta(worked_carpet, L * L / 4 + 0.01)
        with pytest.raises(UpperBoundDomainError):
            upper_bound_theta(worked_carpet, 0.0)

    def test_worked_example_at_005(self, worked_carpet):
        assert log_upper_excess(worked_carpet, 0.05) == pytest.approx(
            EXCESS_005_REF, abs=1e-14
        )
        # raw value 1.5437 is capped at the box dimension
        assert upper_bound_theta(worked_carpet, 0.05) == pytest.approx(
            BOX_REF, abs=1e-14
        )

    def test_excess_vanishes_at_zero(self, worked_carpet):
        values = [log_upper_excess(worked_carpet, 10.0**-k) for k in range(2, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.03

    def test_equal_columns_constant(self):
        spec = CarpetSpec.create(2, 3, [(0, 0), (1, 1)])
        for theta in (0.01, 0.3, 0.9):
            assert upper_bound_theta(spec, theta) == pytest.approx(
                hausdorff_dim(spec), abs=1e-14
            )

    def test_lower_bound_endpoints(self, worked_carpet):
        assert lower_bound_theta(worked_carpet, 0.0) == hausdorff_dim(worked_carpet)
        assert lower_bound_theta(worked_carpet, 1.0) == pytest.approx(
            LOWER_AT_1_REF, abs=1e-14
        )

    def test_lower_bound_linear_and_strict(self, worked_carpet):
        v25 = lower_bound_theta(worked_carpet, 0.25)
        v50 = lower_bound_theta(worked_carpet, 0.5)
        v75 = lower_bound_theta(worked_carpet, 0.75)
        assert v50 - v25 == pytest.approx(v75 - v50, rel=1e-9)
        assert v25 > hausdorff_dim(worked_carpet)

    def test_uniform_columns_flat_lower(self):
        spec = CarpetSpec.create(2, 3, [(0, 0), (1, 1)])
        d = hausdorff_dim(spec)
        for theta in (0.0, 0.5, 1.0):
            assert lower_bound_theta(spec, theta) == pytest.approx(d, abs=1e-12)


class TestCarpetSpectrum:
    def test_endpoints(self, worked_carpet):
        spectrum = carpet_spectrum(worked_carpet, [0.0, 0.5, 1.0])
        first, last = spectrum.samples[0], spectrum.samples[-1]
        d = hausdorff_dim(worked_carpet)
        assert first.lower == d == first.upper
        assert last.upper == box_dim(worked_carpet)
        assert last.lower == pytest.approx(LOWER_AT_1_REF, abs=1e-14)

    def test_full_grid_constant_two(self):
        full = CarpetSpec.create(2, 3, [(p, q) for p in range(2) for q in range(3)])
        spectrum = carpet_spectrum(full, [0.0, 0.25, 1.0])
        assert all(s.lower == 2.0 == s.upper for s in spectrum.samples)

    def test_sandwich_on_dense_grid(self, worked_carpet):
        grid = [i / 100 for i in range(101)]
        spectrum = carpet_spectrum(worked_carpet, grid)
        assert all(s.lower <= s.upper for s in spectrum.samples)

    def test_lopsided_carpet_clamps_vacuous_lower(self):
        # one crowded column next to a single cell: the entropy-slope bound
        # overshoots the box dimension near theta=1 and must be clamped
        spec = CarpetSpec.create(2, 5, [(0, q) for q in range(5)] + [(1, 0)])
        assert lower_bound_theta(spec, 1.0) > box_dim(spec)
        spectrum = carpet_spectrum(spec, [0.0, 0.5, 0.9, 1.0])
        last = spectrum.samples[-1]
        assert last.lower == last.upper == pytest.approx(box_dim(spec), abs=1e-14)
        assert last.method.endswith("+clamped")

    def test_assouad_input_tightens_lower(self, worked_carpet):
        grid = [0.0, 0.5, 0.9, 1.0]
        plain = carpet_spectrum(worked_carpet, grid)
        with_assouad = carpet_spectrum(worked_carpet, grid, assouad_dim=1.6)
        assert with_assouad.samples[-1].lower == pytest.approx(
            box_dim(worked_carpet), abs=1e-12
        )
        for a, b in zip(plain.samples, with_assouad.samples):
            assert b.lower >= a.lower - 1e-12

    def test_bad_assouad_rejected(self, worked_carpet):
        with pytest.raises(ValidationError):
            carpet_spectrum(worked_carpet, [0.5], assouad_dim=1.0)


class TestCarpetPoints:
    def test_counts(self, worked_carpet):
        cloud = carpet_points(worked_carpet, 3)
        assert len(cloud) == 27
        assert cloud.dimension_n == 2

    def test_limit_guard(self, worked_carpet):
        with pytest.raises(ValidationError):
            carpet_points(worked_carpet, 20)


class TestCarpetPointsMatchLoop:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6))
    def test_bits_equal_word_loop(self, seed, depth):
        spec = random_carpet(random.Random(seed))
        while len(spec.digits) ** depth > 4096:
            depth -= 1
        rows, _ = tuple_from_points(loop_carpet_points(spec, depth))
        got = carpet_points(spec, depth).array
        assert np.array_equal(got.view(np.int64), np.array(rows).view(np.int64))
