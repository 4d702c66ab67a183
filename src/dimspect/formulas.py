"""Closed-form dimension evaluators and bound combinators.

Covers the solved families: convergent sequences 1/k**p, the four standard
union/product examples, the continuity envelope linking values at different
theta, the Assouad-based lower bound, and product bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DimensionSpectrum,
    GridMismatchError,
    SpectrumSample,
    ValidationError,
    check_number,
    check_theta,
)


@dataclass(frozen=True)
class BoundInputs:
    """Known dimensions of a set, used to derive bounds at intermediate theta."""

    dim_H: float
    dim_B_lower: float
    dim_B_upper: float
    dim_A: float
    ambient_n: int

    def __post_init__(self) -> None:
        chain = (0.0, self.dim_H, self.dim_B_lower, self.dim_B_upper, self.dim_A, float(self.ambient_n))
        if any(a > b + 1e-12 for a, b in zip(chain, chain[1:])):
            raise ValidationError(
                "need 0 <= dim_H <= dim_B_lower <= dim_B_upper <= dim_A <= ambient_n, "
                f"got {chain[1:]}"
            )


def sequence_dim(p: float, theta: float) -> float:
    """Dimension of {0} u {1/k**p : k >= 1} at restriction theta: theta/(p+theta).

    Equals 0 at theta=0 (countable set) and 1/(p+1) at theta=1 (its box
    dimension); strictly increasing and concave in between.
    """
    check_theta(theta)
    p = check_number(p, "p", 0)
    if theta == 0.0:
        return 0.0
    return theta / (p + theta)


def example_spectrum(which: int, theta: float) -> tuple[float, float]:
    """Dimension of the four standard example sets; lower = upper for all.

    1: slowly convergent sequence 1/log k   -> 1 on (0,1], 0 at 0.
    2: F_1 union a set with dim_H = dim_B = 1/3 -> max(theta/(1+theta), 1/3).
    3: F_1 union a countable set with dim_B = dim_A = 1/4
       -> max(theta/(1+theta), 1/4) on (0,1], 0 at 0.
    4: F_1 x F_log in the plane -> theta/(1+theta) + 1 on (0,1], 0 at 0.
    """
    check_theta(theta)
    if which == 1:
        value = 0.0 if theta == 0.0 else 1.0
    elif which == 2:
        value = max(theta / (1.0 + theta), 1.0 / 3.0)
    elif which == 3:
        value = 0.0 if theta == 0.0 else max(theta / (1.0 + theta), 0.25)
    elif which == 4:
        value = 0.0 if theta == 0.0 else theta / (1.0 + theta) + 1.0
    else:
        raise ValidationError(f"unknown example {which!r}, expected 1..4")
    return value, value


def envelope_bound(dim_at_theta: float, theta: float, phi: float, ambient_n: int) -> float:
    """Upper bound on the dimension at phi given its value at theta < phi.

    The value cannot rise faster than
        dim(phi) <= dim(theta) + (1 - theta/phi) * (n - dim(theta)),
    which also proves continuity on (0, 1].
    """
    check_theta(theta)
    check_theta(phi)
    if theta >= phi:
        raise ValidationError(f"need theta < phi, got theta={theta}, phi={phi}")
    if not 0.0 <= dim_at_theta <= ambient_n + 1e-12:
        raise ValidationError(
            f"dim_at_theta must lie in [0, {ambient_n}], got {dim_at_theta}"
        )
    return dim_at_theta + (1.0 - theta / phi) * (ambient_n - dim_at_theta)


def assouad_lower_bound(
    inputs: BoundInputs, theta: float, use_upper_box: bool = False
) -> float:
    """Lower bound dim_A - (dim_A - dim_B)/theta, clamped below at 0.

    Uses the lower or upper box dimension per the flag.  At theta=1 it
    returns the box dimension exactly; clamping at dim_H is left to the
    caller (combine via spectrum_merge).
    """
    theta = check_number(theta, "theta", 0, 1, "(]")
    dim_b = inputs.dim_B_upper if use_upper_box else inputs.dim_B_lower
    return max(0.0, inputs.dim_A - (inputs.dim_A - dim_b) / theta)


def product_bounds(
    spec_e: DimensionSpectrum, spec_f: DimensionSpectrum, box_upper_f: float
) -> DimensionSpectrum:
    """Bounds for a product set E x F from spectra of the factors.

    Per theta: lower = lower_E + lower_F (Frostman product measures),
    upper = upper_E + upper box dimension of F, capped at the sum of the
    ambient dimensions.
    """
    if spec_e.thetas() != spec_f.thetas():
        raise GridMismatchError("factor spectra sampled on different theta grids")
    if any(s.upper > box_upper_f + 1e-12 for s in spec_f.samples):
        raise ValidationError(
            "box_upper_f must dominate every upper sample of the second factor"
        )
    ambient = spec_e.ambient_n + spec_f.ambient_n
    samples = []
    for se, sf in zip(spec_e.samples, spec_f.samples):
        lower = se.lower + sf.lower
        upper = min(se.upper + box_upper_f, float(ambient))
        samples.append(
            SpectrumSample(se.theta, lower, max(lower, upper), "product")
        )
    return DimensionSpectrum(ambient_n=ambient, samples=tuple(samples))


def sequence_spectrum(p: float, grid) -> DimensionSpectrum:
    """Exact spectrum of the sequence family 1/k**p over a theta grid."""
    values = [(t, sequence_dim(p, t)) for t in grid]
    samples = tuple(SpectrumSample(t, v, v, "exact") for t, v in values)
    return DimensionSpectrum(ambient_n=1, samples=samples)


def example_spectrum_curve(which: int, grid) -> DimensionSpectrum:
    """Exact spectrum of one of the four example sets over a theta grid."""
    ambient = 2 if which == 4 else 1
    samples = []
    for t in grid:
        lower, upper = example_spectrum(which, t)
        samples.append(SpectrumSample(t, lower, upper, "exact"))
    return DimensionSpectrum(ambient_n=ambient, samples=tuple(samples))


def constant_spectrum(value: float, grid, ambient_n: int) -> DimensionSpectrum:
    """Spectrum of a set whose dimension does not depend on theta."""
    samples = tuple(SpectrumSample(t, value, value, "exact") for t in grid)
    return DimensionSpectrum(ambient_n=ambient_n, samples=samples)
