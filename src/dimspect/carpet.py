"""Self-affine carpet computations on an m x n grid with digit set D.

Exact box and Hausdorff dimensions, the natural self-affine measure and
its entropy, measures of approximate squares, and the two-sided bounds on
the theta-intermediate dimension assembled into a spectrum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_DEPTH,
    MAX_POINTS,
    DimensionSpectrum,
    PointCloud,
    SpectrumSample,
    ValidationError,
    check_number,
    read_numbers,
    theta_grid,
)
from .formulas import _assouad_lower_bound, _envelope_bound


class UpperBoundDomainError(ValidationError):
    """theta falls outside the validity domain of the logarithmic upper bound."""


@dataclass(frozen=True)
class CarpetSpec:
    """Grid subdivision m x n (n > m >= 2) with digit set D of cells (p, q).

    create reads m, n and each digit's p and q by core.read_numbers: integers,
    or integral floats, never text, bools or fractions.
    """

    m: int
    n: int
    digits: tuple[tuple[int, int], ...]

    @classmethod
    def create(cls, m: int, n: int, digits) -> "CarpetSpec":
        m, n = read_numbers((m, n), "m and n", integral=True)
        if m < 2 or n <= m:
            raise ValidationError(f"need integers n > m >= 2, got m={m}, n={n}")
        try:
            pairs = itertools.chain(*((p, q) for p, q in digits))
            flat = read_numbers(pairs, "digits", integral=True)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"digits must be (p, q) pairs of integers: {exc}") from exc
        cells = list(zip(flat[::2], flat[1::2]))
        if len(set(cells)) != len(cells):
            raise ValidationError("duplicate digits in carpet spec")
        if len(cells) < 2:
            raise ValidationError("digit set needs at least two elements")
        for p, q in cells:
            if not (0 <= p < m and 0 <= q < n):
                raise ValidationError(f"digit ({p},{q}) outside {m}x{n} grid")
        return cls(m=m, n=n, digits=tuple(sorted(cells)))

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CarpetSpec":
        try:
            return cls.create(obj["m"], obj["n"], obj["digits"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed carpet JSON: {exc}") from exc

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "digits": [list(d) for d in self.digits]}

    def column_counts(self) -> tuple[int, ...]:
        counts = [0] * self.m
        for p, _ in self.digits:
            counts[p] += 1
        return tuple(counts)

    def columns_equal(self) -> bool:
        nonzero = [c for c in self.column_counts() if c > 0]
        return len(set(nonzero)) == 1


@dataclass(frozen=True)
class CarpetDerived:
    """All quantities derived from a CarpetSpec.

    digits are sorted; a_ell[i] is the occupied-cell count of digit i's
    column, b_ell[i] the matching weight of the natural self-affine
    measure (values a_ell**(L-1) / m**d, summing to 1).
    """

    spec: CarpetSpec
    a_ell: tuple[int, ...]
    L: float
    d: float
    box: float
    b_ell: tuple[float, ...]
    a_max: int
    entropy_H: float


def box_dim(spec: CarpetSpec) -> float:
    """Box dimension: log(m0)/log(m) + (log|D| - log(m0))/log(n)."""
    m0 = sum(1 for c in spec.column_counts() if c > 0)
    return math.log(m0) / math.log(spec.m) + (
        math.log(len(spec.digits)) - math.log(m0)
    ) / math.log(spec.n)


def hausdorff_dim(spec: CarpetSpec) -> float:
    """Hausdorff dimension: log(sum of n_p**(log_n m)) / log(m)."""
    L = math.log(spec.m) / math.log(spec.n)
    total = sum(c**L for c in spec.column_counts() if c > 0)
    return math.log(total) / math.log(spec.m)


def mcmullen_weights(spec: CarpetSpec) -> CarpetDerived:
    """Digit weights a_ell**(L-1) / m**d of the natural self-affine measure."""
    counts = spec.column_counts()
    L = math.log(spec.m) / math.log(spec.n)
    d = hausdorff_dim(spec)
    md = spec.m**d
    a_ell = tuple(counts[p] for p, _ in spec.digits)
    b_ell = tuple(a ** (L - 1.0) / md for a in a_ell)
    return CarpetDerived(
        spec=spec,
        a_ell=a_ell,
        L=L,
        d=d,
        box=box_dim(spec),
        b_ell=b_ell,
        a_max=max(a_ell),
        entropy_H=-math.fsum(b * math.log(b) for b in b_ell),
    )


def entropy(spec: CarpetSpec) -> float:
    """Shannon entropy -sum b log b of the digit weights; in (0, log|D|]."""
    return mcmullen_weights(spec).entropy_H


def row_depth(k: int, L: float) -> int:
    """Number of row symbols fixed by a level-k approximate square: floor(k*L)."""
    return int(math.floor(k * L))


def approx_square_measure(spec: CarpetSpec, word) -> float:
    """Measure of the approximate square containing the cylinder of a digit word.

    A level-k approximate square fixes all k column symbols but only the
    first floor(k * log_n m) row symbols, making its sides nearly equal.
    Value: m**(-k d) * prod_j a_j**L * prod_{j <= l(k)} a_j**(-1).
    """
    word = [tuple(digit) for digit in word]
    if not word:
        raise ValidationError("approximate squares need a word of length >= 1")
    der = mcmullen_weights(spec)
    digit_index = {digit: i for i, digit in enumerate(spec.digits)}
    try:
        a_seq = [der.a_ell[digit_index[digit]] for digit in word]
    except KeyError as exc:
        raise ValidationError(f"word digit {exc.args[0]} not in the digit set") from exc
    k = len(word)
    l_k = row_depth(k, der.L)
    log_mu = -k * der.d * math.log(spec.m)
    log_mu += der.L * math.fsum(math.log(a) for a in a_seq)
    log_mu -= math.fsum(math.log(a) for a in a_seq[:l_k])
    return math.exp(log_mu)


def log_upper_excess(spec: CarpetSpec, theta: float) -> float:
    """Raw excess of the logarithmic upper bound over the Hausdorff dimension.

    Equals (2 log(log_m n) log(a_max) / log n) / (-log theta) for 0 <
    theta < 1; tends to 0 as theta -> 0, which is the numerical content
    of continuity at 0.
    """
    theta = check_number(theta, "theta", 0, 1)
    return _log_upper_excess(mcmullen_weights(spec), theta)


def _log_upper_excess(der: CarpetDerived, theta: float) -> float:
    m, n = der.spec.m, der.spec.n
    coef = 2.0 * math.log(math.log(n) / math.log(m)) * math.log(der.a_max) / math.log(n)
    return coef / (-math.log(theta))


def upper_bound_theta(spec: CarpetSpec, theta: float) -> float:
    """Upper bound at theta, valid for 0 < theta < (log_n m)**2 / 4.

    Returns min(dim_H + excess, box dimension); the cap is always valid
    because the intermediate dimension never exceeds the upper box
    dimension.  Equal-column carpets have dim_H = dim_B and return that
    constant for every theta.
    """
    theta = check_number(theta, "theta", 0, 1, "[]")
    if spec.columns_equal():
        return hausdorff_dim(spec)
    der = mcmullen_weights(spec)
    bound = _upper_bound_theta(der, theta)
    if bound is None:
        raise UpperBoundDomainError(
            f"theta={theta} outside (0, {der.L * der.L / 4.0:.6g}), the bound's domain"
        )
    return bound


def _upper_bound_theta(der: CarpetDerived, theta: float) -> float | None:
    """upper_bound_theta's value from der, or None outside the bound's domain."""
    if not 0.0 < theta < der.L * der.L / 4.0:
        return None
    return min(der.d + _log_upper_excess(der, theta), der.box)


def lower_bound_theta(spec: CarpetSpec, theta: float) -> float:
    """Lower bound dim_H + theta * (log|D| - H) / log(m); linear in theta.

    Strictly exceeds dim_H for theta > 0 whenever the occupied columns
    hold unequal numbers of cells (entropy strictly below log|D|).
    """
    theta = check_number(theta, "theta", 0, 1, "[]")
    return _lower_bound_theta(mcmullen_weights(spec), theta)


def _lower_bound_theta(der: CarpetDerived, theta: float) -> float:
    digits, m = len(der.spec.digits), der.spec.m
    return der.d + theta * (math.log(digits) - der.entropy_H) / math.log(m)


def carpet_points(spec: CarpetSpec, depth: int):
    """Lower-left corners of all level-depth rectangles, as a point cloud.

    A finite stand-in for the attractor at resolution (m**-depth, n**-depth).
    Per level, widths /= (m, n) and corner += digit * width: a per-word
    loop's float operations in its order, so its corners bit for bit.
    """
    # past MAX_DEPTH the count below is a huge power; it passes MAX_POINTS long before
    depth = check_number(depth, "levels of depth", 1, MAX_DEPTH, "[]", integral=True)
    count = len(spec.digits) ** depth
    if count > MAX_POINTS:
        raise ValidationError(
            f"{count} rectangles at depth {depth} exceed the limit {MAX_POINTS}"
        )
    digits = np.array(spec.digits, dtype=float)
    corners = np.zeros((1, 2))
    widths = np.ones(2)
    for _ in range(depth):
        widths /= (spec.m, spec.n)
        corners = (corners[:, None, :] + digits * widths).reshape(-1, 2)
    return PointCloud.from_points(corners, dimension_n=2)


def carpet_spectrum(
    spec: CarpetSpec, grid, assouad_dim: float | None = None
) -> DimensionSpectrum:
    """Assemble the best known two-sided bounds over a theta grid.

    Per theta > 0 the lower column is the max of dim_H, the entropy-slope
    bound, and (when an Assouad dimension is supplied) the Assouad-based
    bound; the upper column is the min of the logarithmic bound on its
    domain, the box dimension, and the continuity envelope from the
    previous sample, so one pass over the sorted grid builds the spectrum
    (a repeated theta is refused).  The lower column is clamped at the
    upper column: the entropy-slope formula can exceed the box dimension
    for carpets with very lopsided columns, where it is vacuous.  An
    Assouad dimension must lie in [box dimension, 2].
    """
    thetas = theta_grid(grid)
    der = mcmullen_weights(spec)
    d, box = der.d, der.box
    if assouad_dim is not None:
        assouad_dim = check_number(assouad_dim, "assouad_dim", box - 1e-12, 2.0 + 1e-12, "[]")
    if spec.columns_equal():
        samples = tuple(SpectrumSample(t, d, d, "exact") for t in thetas)
        return DimensionSpectrum(ambient_n=2, samples=samples)
    samples: list[SpectrumSample] = []
    for theta in thetas:
        if theta == 0.0:
            samples.append(SpectrumSample(theta, d, d, "exact"))
            continue
        upper, tag = box, "trivial"
        candidate = _upper_bound_theta(der, theta)
        if candidate is not None and candidate < upper:
            upper, tag = candidate, "bounds"
        # The envelope from the previous sample alone.  Chaining it from
        # theta' to theta'' and on to theta gives exactly the bound from
        # theta' to theta, and it increases with the dimension it starts
        # from, so the min over all earlier samples is this one (exact in
        # real arithmetic).
        if samples:
            env = _envelope_bound(samples[-1].upper, samples[-1].theta, theta, 2)
            if env < upper:
                upper, tag = env, "envelope"
        lower = max(d, _lower_bound_theta(der, theta))
        if assouad_dim is not None:
            lower = max(lower, _assouad_lower_bound(assouad_dim, box, theta))
        if lower > upper:
            lower = upper
            tag = tag + "+clamped"
        samples.append(SpectrumSample(theta, lower, upper, tag))
    return DimensionSpectrum(ambient_n=2, samples=tuple(samples))
