"""Dimension estimation from restricted-cover costs.

Per scale delta the critical exponent s* is the root of
optimal-cover-cost(s) = threshold; the cost is strictly decreasing in s
(all diameters < 1) so bisection finds it.  Per theta the finite-scale
drift of s* is modelled as A + B/log(1/delta) and regressed out across
the delta sequence; the lower/upper estimates are the min/max of the
drift-corrected values over the two smallest admissible deltas, a finite
surrogate for the "some delta" vs "all small delta" quantifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_POINTS,
    TOL_MONO_ESTIMATED,
    DimensionSpectrum,
    EstimateNotMonotoneError,
    PointCloud,
    ScaleRange,
    ScaleRangeTooDeepError,
    SpectrumSample,
    ValidationError,
    check_number,
    check_theta,
    theta_grid,
)
from .covers import cover_cost_function, guarded_ceil

BISECTION_TOL = 1e-3
TRUNCATION_SAFETY = 4


@dataclass(frozen=True)
class CriticalExponent:
    """Root of cost(s) = threshold at one (delta, theta) cell."""

    delta: float
    theta: float
    s_star: float
    cost_at_s_star: float


def critical_exponent(
    points: PointCloud,
    delta: float,
    theta: float,
    threshold: float = 1.0,
    scale_menu_size: int = 16,
) -> CriticalExponent:
    """Bisect for the exponent where the optimal restricted-cover cost crosses threshold.

    cost(0) counts the fewest admissible sets, so it is >= 1; if that is
    already <= threshold the root is pinned at 0.  If even s = n leaves the
    cost above threshold the result clamps to n (scale far too coarse for
    the data).  Bisection stops at |ds| <= 1e-3, whatever the batch size.
    Each solver call evaluates several levels of the walk ahead (the two
    endpoints, then the midpoints of the bisection tree below the current
    interval), as many as the solver's batch_size holds, so the interval
    DP needs 2 calls (65 values, then 31) where one s per call would take
    about 13; 3 calls (17, 15 and 7) on a cell whose cost table would pass
    covers.TABLE_BUDGET at 65.  Every s and every comparison is that of a
    one-s-at-a-time bisection, so the result is too.
    """
    threshold = check_number(threshold, "threshold", 0)
    rng = ScaleRange(delta, check_theta(theta))
    solver = cover_cost_function(points, rng, scale_menu_size)
    n = float(points.dimension_n)
    known: dict[float, float] = {}

    def cost(lo: float, hi: float, *front: float) -> tuple[float, float]:
        """(s, cost(s)) for the walk's next s: front[0], or the midpoint of [lo, hi]."""
        s = front[0] if front else 0.5 * (lo + hi)
        if s not in known:
            batch: list[float] = []
            for level in _walk_ahead(lo, hi, front):
                if batch and len(batch) + len(level) > solver.batch_size:
                    break
                batch += level
            known.update(zip(batch, solver.costs(batch)))
        return s, known[s]

    s, c = cost(0.0, n, 0.0, n)
    if c <= threshold * (1.0 + 1e-12):
        return CriticalExponent(delta, theta, s, c)
    s, c = cost(0.0, n, n)
    if c > threshold:
        return CriticalExponent(delta, theta, s, c)
    lo, hi = 0.0, n
    while hi - lo > BISECTION_TOL:
        mid, c = cost(lo, hi)
        if c > threshold:
            lo = mid
        else:
            hi = mid
    s_star, c = cost(lo, hi)
    return CriticalExponent(delta, theta, s_star, c)


def _walk_ahead(lo: float, hi: float, front):
    """The s values critical_exponent may ask for next, level by level.

    First each of front (the endpoints still to check), then the bisection
    tree below [lo, hi]: a node's s is 0.5 * (lo + hi), and it has the two
    halves as children while hi - lo > BISECTION_TOL (else its s is s*).
    """
    for s in front:
        yield [s]
    level = [(lo, hi)]
    while level:
        yield [0.5 * (a + b) for a, b in level]
        level = [
            half
            for a, b in level
            if b - a > BISECTION_TOL
            for half in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))
        ]


def _drift_corrected(cells: list[CriticalExponent]) -> dict[float, float]:
    """Remove the A + B/log(1/delta) finite-scale drift shared by one theta row.

    Returns delta -> corrected value; with a single scale, or deltas whose
    1/log(1/delta) all coincide, the raw values are returned unchanged.
    """
    us = [1.0 / math.log(1.0 / c.delta) for c in cells]
    ss = [c.s_star for c in cells]
    u_mean = math.fsum(us) / len(us)
    s_mean = math.fsum(ss) / len(ss)
    var = math.fsum((u - u_mean) ** 2 for u in us)
    if var <= 0.0:
        return {c.delta: c.s_star for c in cells}
    slope = math.fsum(
        (u - u_mean) * (s - s_mean) for u, s in zip(us, ss)
    ) / var
    return {c.delta: c.s_star - slope * u for c, u in zip(cells, us)}


def estimate_spectrum(
    points: PointCloud,
    grid,
    delta_sequence,
    threshold: float = 1.0,
    scale_menu_size: int = 16,
) -> DimensionSpectrum:
    """Estimated spectrum of a point cloud over a theta grid.

    Per theta > 0, deltas whose band would dip below MIN_SCALE are skipped;
    at least one admissible delta is required.  Rows are solved in theta
    order, each turned into its sample before the next starts, so a theta
    with no admissible delta raises before later rows are solved.  The
    theta = 0 entry uses unrestricted dyadic covers (floored at MAX_DEPTH)
    and raw exponents: its finite-resolution bias does not follow the
    drift model.  A row whose lower or upper value falls below the running
    max of the rows before it (theta > 0) by more than TOL_MONO_ESTIMATED
    raises EstimateNotMonotoneError: the deltas are too coarse for the
    cloud.
    """
    thetas = theta_grid(grid)
    deltas = [check_number(d, "delta", 0, 1) for d in delta_sequence]
    if len(deltas) < 3:
        raise ValidationError("need at least 3 deltas")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValidationError("delta sequence must be strictly decreasing")

    n = float(points.dimension_n)
    samples = []
    peaks = [-math.inf, -math.inf]  # running max of the lower and upper columns over theta > 0
    for theta in thetas:
        row = []
        for delta in deltas:
            try:
                ScaleRange(delta, theta)
            except ScaleRangeTooDeepError:
                continue
            row.append(critical_exponent(points, delta, theta, threshold, scale_menu_size))
        if not row:
            raise ScaleRangeTooDeepError(
                f"no admissible delta at theta={theta}: "
                f"delta**(1/theta) falls below MIN_SCALE for every delta"
            )
        values = _drift_corrected(row) if theta > 0.0 else {c.delta: c.s_star for c in row}
        picked = [values[d] for d in sorted(values)[:2]]
        lower = max(0.0, min(min(picked), n))
        upper = max(lower, min(max(picked), n))
        columns = (("lower", lower), ("upper", upper)) if theta > 0.0 else ()
        for i, (column, v) in enumerate(columns):  # theta = 0 is exempt, as in DimensionSpectrum
            if v < peaks[i] - TOL_MONO_ESTIMATED:
                raise EstimateNotMonotoneError(
                    f"estimated {column} value falls at theta={theta}: {v} < running max "
                    f"{peaks[i]} - {TOL_MONO_ESTIMATED}; the deltas {deltas} are too "
                    f"coarse for the cloud"
                )
            peaks[i] = max(peaks[i], v)
        samples.append(SpectrumSample(theta, lower, upper, "estimated"))
    return DimensionSpectrum(ambient_n=points.dimension_n, samples=tuple(samples))


def coupled_truncation(p: float, delta: float) -> int:
    """How many sequence points to materialize so truncation outruns scale delta.

    Smallest N with point gap p/N**(p+1) below delta, times a safety
    factor: N = 4 * ceil((p/delta)**(1/(p+1))).  Finite truncations have
    dimension 0 in the delta -> 0 limit, so the truncation must grow as
    delta shrinks.
    """
    p, delta = check_number(p, "p", 0), check_number(delta, "delta", 0, ends="(]")
    if delta >= 1.0:
        return TRUNCATION_SAFETY
    root = (p / delta) ** (1.0 / (p + 1.0))
    if root == math.inf:
        raise ValidationError(f"the truncation for p={p}, delta={delta} overflows a float")
    return TRUNCATION_SAFETY * guarded_ceil(root)


def fp_points(p: float, delta: float, theta_min: float = 1.0) -> PointCloud:
    """Truncation of {0} u {1/k**p} coupled to the working scale delta.

    A run restricted to theta sees covering scales down to
    delta**(1/theta), where the relevant structure sits at sequence index
    ~ delta**(-1/(p+theta)); the truncation rule (tuned to theta = 1) is
    therefore applied at the equivalent top scale
    delta**((p+1)/(p+theta_min)).  Leave theta_min = 1 for box-counting
    style runs.
    """
    theta_min = check_number(theta_min, "theta_min", 0, 1, "(]")  # theta = 0 needs no coupling
    p, delta = check_number(p, "p", 0), check_number(delta, "delta", 0, ends="(]")
    effective = delta ** ((p + 1.0) / (p + theta_min)) if delta < 1.0 else delta
    # effective underflows to 0 only far beyond MAX_POINTS
    count = coupled_truncation(p, effective) if effective > 0.0 else math.inf
    if count + 1 > MAX_POINTS:
        raise ValidationError(
            f"fp_points(p={p}, delta={delta}, theta_min={theta_min}) "
            f"needs more than {MAX_POINTS} points"
        )
    # Python's k ** -p: np.power may round differently in the last bit
    xs = [0.0] + [k ** (-p) for k in range(1, count + 1)]
    return PointCloud.from_points(np.array(xs)[:, None], dimension_n=1)


def flog_points(delta: float) -> PointCloud:
    """Truncation of {0} u {1/log k : k >= 2} with gaps below delta at the cut."""
    delta = check_number(delta, "delta", 0, 1)
    k = 2
    while 1.0 / math.log(k) - 1.0 / math.log(k + 1) >= delta:
        k += 1
        if TRUNCATION_SAFETY * k > MAX_POINTS:
            raise ValidationError(
                f"flog_points(delta={delta}) needs more than {MAX_POINTS} points"
            )
    count = TRUNCATION_SAFETY * k
    xs = [0.0] + [1.0 / math.log(j) for j in range(2, count + 1)]
    return PointCloud.from_points(np.array(xs)[:, None], dimension_n=1)
