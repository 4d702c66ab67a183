import math

import pytest

from dimspect import (
    ValidationError,
    assouad_lower_bound,
    constant_spectrum,
    default_theta_grid,
    envelope_bound,
    example_spectrum,
    example_spectrum_curve,
    product_bounds,
    sequence_dim,
    sequence_spectrum,
)


class TestSequenceDim:
    def test_box_endpoint(self):
        assert sequence_dim(1.0, 1.0) == pytest.approx(0.5, abs=0)

    def test_hausdorff_endpoint_zero(self):
        assert sequence_dim(2.0, 0.0) == 0.0

    def test_interior_value(self):
        assert sequence_dim(2.0, 0.5) == pytest.approx(0.2, abs=0)

    def test_nonpositive_p(self):
        with pytest.raises(ValidationError):
            sequence_dim(0.0, 0.5)
        with pytest.raises(ValidationError):
            sequence_dim(-1.0, 0.5)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.5])
    def test_strictly_increasing_and_concave(self, p):
        grid = [i / 100 for i in range(101)]
        vals = [sequence_dim(p, t) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        # discrete second difference never positive
        second = [vals[i + 1] - 2 * vals[i] + vals[i - 1] for i in range(1, 100)]
        assert all(d <= 1e-15 for d in second)
        assert vals[-1] == pytest.approx(1.0 / (p + 1.0), rel=1e-15)


class TestExampleSpectrum:
    def test_slow_sequence_is_one_off_zero(self):
        assert example_spectrum(1, 0.5) == (1.0, 1.0)
        assert example_spectrum(1, 0.0) == (0.0, 0.0)

    def test_union_with_third_dimension_set(self):
        lower, upper = example_spectrum(2, 0.25)
        assert lower == upper == pytest.approx(1 / 3, abs=0)
        # continuous at 0: the 1/3 part dominates
        assert example_spectrum(2, 0.0) == (1 / 3, 1 / 3)

    def test_quarter_union_jumps_at_zero(self):
        assert example_spectrum(3, 0.0) == (0.0, 0.0)
        assert example_spectrum(3, 1e-9)[0] == pytest.approx(0.25)

    def test_product_example_box_endpoint(self):
        assert example_spectrum(4, 1.0) == (1.5, 1.5)
        assert example_spectrum(4, 0.0) == (0.0, 0.0)

    def test_unknown_example(self):
        with pytest.raises(ValidationError):
            example_spectrum(5, 0.5)


class TestEnvelopeBound:
    def test_interior_value(self):
        assert envelope_bound(0.5, 0.5, 1.0, 1) == pytest.approx(0.75, abs=0)

    def test_full_dimension_is_fixed_point(self):
        for n in (1, 2, 3):
            assert envelope_bound(float(n), 0.3, 0.8, n) == pytest.approx(float(n))

    def test_continuity_as_theta_approaches_phi(self):
        phi = 0.8
        theta = 0.999 * phi
        for n in (1, 2, 3):
            assert envelope_bound(0.0, theta, phi, n) == pytest.approx(0.001 * n, rel=1e-9)

    def test_monotone_tightening(self):
        # a closer base theta gives a tighter (smaller) envelope
        vals = [envelope_bound(0.4, t, 0.9, 1) for t in (0.1, 0.3, 0.5, 0.7, 0.89)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            envelope_bound(0.5, 0.7, 0.7, 1)
        with pytest.raises(ValidationError):
            envelope_bound(1.5, 0.2, 0.7, 1)


class TestAssouadLowerBound:
    def test_equal_box_and_assouad_pins_value(self):
        assert assouad_lower_bound(1.0, 1.0, 0.3) == pytest.approx(1.0)

    def test_clamped_at_zero(self):
        assert assouad_lower_bound(1.0, 0.5, 0.5) == 0.0

    def test_theta_one_recovers_box(self):
        assert assouad_lower_bound(1.0, 0.5, 1.0) == pytest.approx(0.5, abs=0)

    def test_upper_box_flag(self):
        # the lower and the upper box dimension are each passed as dim_b
        low = assouad_lower_bound(1.0, 0.4, 1.0)
        high = assouad_lower_bound(1.0, 0.6, 1.0)
        assert (low, high) == (pytest.approx(0.4), pytest.approx(0.6))

    def test_theta_zero_rejected(self):
        with pytest.raises(ValidationError):
            assouad_lower_bound(1.0, 0.5, 0.0)


class TestProductBounds:
    def test_product_with_full_box_factor(self):
        # F_1 x F_log: theta/(1+theta) + 1 for theta > 0
        grid = default_theta_grid(21)
        prod = product_bounds(
            sequence_spectrum(1.0, grid), example_spectrum_curve(1, grid), 1.0
        )
        assert prod.ambient_n == 2
        for sample in prod.samples:
            t = sample.theta
            if t == 0.0:
                continue
            assert sample.lower == pytest.approx(t / (1 + t) + 1.0, abs=1e-15)
            assert sample.upper == pytest.approx(t / (1 + t) + 1.0, abs=1e-15)

    def test_zero_factor_is_additive_identity_in_lower(self):
        grid = default_theta_grid(11)
        zero = constant_spectrum(0.0, grid, 1)
        seq = sequence_spectrum(2.0, grid)
        prod = product_bounds(zero, seq, 0.5)
        for sample, reference in zip(prod.samples, seq.samples):
            assert sample.lower == reference.lower

    def test_self_product_bounds_consistent(self):
        # E = F = F_1 with capped box factor 0.5: lower 2t/(1+t), upper t/(1+t)+0.5
        grid = default_theta_grid(21)
        seq = sequence_spectrum(1.0, grid)
        prod = product_bounds(seq, seq, 0.5)
        for sample in prod.samples:
            t = sample.theta
            assert sample.lower == pytest.approx(2 * t / (1 + t), abs=1e-15)
            assert sample.upper == pytest.approx(t / (1 + t) + 0.5, abs=1e-15)
            assert sample.lower <= sample.upper + 1e-15

    def test_box_upper_must_dominate(self):
        grid = default_theta_grid(5)
        seq = sequence_spectrum(1.0, grid)
        with pytest.raises(ValidationError):
            product_bounds(seq, seq, 0.3)  # box factor below the theta=1 sample


@pytest.mark.parametrize(
    "spectrum",
    [
        sequence_spectrum(0.5, default_theta_grid(51)),
        sequence_spectrum(1.0, default_theta_grid(51)),
        sequence_spectrum(2.0, default_theta_grid(51)),
        example_spectrum_curve(1, default_theta_grid(51)),
        example_spectrum_curve(2, default_theta_grid(51)),
        example_spectrum_curve(3, default_theta_grid(51)),
        example_spectrum_curve(4, default_theta_grid(51)),
    ],
    ids=["p=0.5", "p=1", "p=2", "ex1", "ex2", "ex3", "ex4"],
)
def test_closed_forms_respect_envelope(spectrum):
    samples = spectrum.samples
    for i, low in enumerate(samples):
        for high in samples[i + 1 :]:
            bound = envelope_bound(low.upper, low.theta, high.theta, spectrum.ambient_n)
            assert high.upper <= bound + 1e-12
