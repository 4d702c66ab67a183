"""Closed-form dimension evaluators and bound combinators.

Covers the solved families: convergent sequences 1/k**p, the four standard
union/product examples, the continuity envelope linking values at different
theta, the Assouad-based lower bound, and product bounds.  The bounds take
plain numbers (dimensions, theta, the ambient dimension), each read by
core.check_number at the public entry; the unchecked twins
_envelope_bound and _assouad_lower_bound serve callers, such as
carpet_spectrum, whose inputs already lie in the domain.
"""

from __future__ import annotations

from .core import (
    DimensionSpectrum,
    GridMismatchError,
    SpectrumSample,
    ValidationError,
    check_number,
    theta_grid,
)


def sequence_dim(p: float, theta: float) -> float:
    """Dimension of {0} u {1/k**p : k >= 1} at restriction theta: theta/(p+theta).

    Equals 0 at theta=0 (countable set) and 1/(p+1) at theta=1 (its box
    dimension); strictly increasing and concave in between.
    """
    theta, p = check_number(theta, "theta", 0, 1, "[]"), check_number(p, "p", 0)
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
    which = check_number(which, "for the example", 1, 4, "[]", integral=True)
    theta = check_number(theta, "theta", 0, 1, "[]")
    if which == 1:
        value = 0.0 if theta == 0.0 else 1.0
    elif which == 2:
        value = max(theta / (1.0 + theta), 1.0 / 3.0)
    elif which == 3:
        value = 0.0 if theta == 0.0 else max(theta / (1.0 + theta), 0.25)
    else:
        value = 0.0 if theta == 0.0 else theta / (1.0 + theta) + 1.0
    return value, value


def envelope_bound(dim_at_theta: float, theta: float, phi: float, ambient_n: int) -> float:
    """Upper bound on the dimension at phi given its value at theta < phi.

    The value cannot rise faster than
        dim(phi) <= dim(theta) + (1 - theta/phi) * (n - dim(theta)),
    which also proves continuity on (0, 1].  ambient_n is a whole number
    >= 1 and dim_at_theta lies in [0, ambient_n].
    """
    theta = check_number(theta, "theta", 0, 1, "[]")
    phi = check_number(phi, "phi", 0, 1, "[]")
    if theta >= phi:
        raise ValidationError(f"need theta < phi, got theta={theta}, phi={phi}")
    ambient_n = check_number(ambient_n, "for ambient_n", 1, ends="[)", integral=True)
    dim_at_theta = check_number(dim_at_theta, "dim_at_theta", 0, ambient_n + 1e-12, "[]")
    return _envelope_bound(dim_at_theta, theta, phi, ambient_n)


def _envelope_bound(dim_at_theta: float, theta: float, phi: float, ambient_n: int) -> float:
    return dim_at_theta + (1.0 - theta / phi) * (ambient_n - dim_at_theta)


def assouad_lower_bound(dim_a: float, dim_b: float, theta: float) -> float:
    """Lower bound dim_a - (dim_a - dim_b)/theta, clamped below at 0.

    dim_a is the Assouad dimension and dim_b a box dimension, lower or
    upper (finite, 0 <= dim_b <= dim_a); theta lies in (0, 1].  At
    theta=1 it returns dim_b exactly; clamping at dim_H is left to the
    caller (combine via spectrum_merge).
    """
    theta = check_number(theta, "theta", 0, 1, "(]")
    dim_b = check_number(dim_b, "dim_b", 0, ends="[)")
    dim_a = check_number(dim_a, "dim_a", dim_b - 1e-12, ends="[)")
    return _assouad_lower_bound(dim_a, dim_b, theta)


def _assouad_lower_bound(dim_a: float, dim_b: float, theta: float) -> float:
    return max(0.0, dim_a - (dim_a - dim_b) / theta)


def product_bounds(
    spec_e: DimensionSpectrum, spec_f: DimensionSpectrum, box_upper_f: float
) -> DimensionSpectrum:
    """Bounds for a product set E x F from spectra of the factors.

    Per theta: lower = lower_E + lower_F (Frostman product measures),
    upper = upper_E + upper box dimension of F, capped at the sum of the
    ambient dimensions.  box_upper_f is finite and >= 0.
    """
    box_upper_f = check_number(box_upper_f, "box_upper_f", 0, ends="[)")
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


def _exact_spectrum(grid, ambient_n: int, values) -> DimensionSpectrum:
    """Exact spectrum over the thetas theta_grid reads; values(theta) gives (lower, upper)."""
    samples = tuple(SpectrumSample(t, *values(t), "exact") for t in theta_grid(grid))
    return DimensionSpectrum(ambient_n=ambient_n, samples=samples)


def sequence_spectrum(p: float, grid) -> DimensionSpectrum:
    """Exact spectrum of the sequence family 1/k**p over a theta grid."""
    return _exact_spectrum(grid, 1, lambda t: (sequence_dim(p, t),) * 2)


def example_spectrum_curve(which: int, grid) -> DimensionSpectrum:
    """Exact spectrum of one of the four example sets over a theta grid."""
    which = check_number(which, "for the example", 1, 4, "[]", integral=True)
    return _exact_spectrum(grid, 2 if which == 4 else 1, lambda t: example_spectrum(which, t))


def constant_spectrum(value: float, grid, ambient_n: int) -> DimensionSpectrum:
    """Spectrum of a set whose dimension, value in [0, ambient_n], does not depend on theta."""
    ambient_n = check_number(ambient_n, "for ambient_n", 1, ends="[)", integral=True)
    value = check_number(value, "value", 0, ambient_n, "[]")
    return _exact_spectrum(grid, ambient_n, lambda t: (value, value))
