"""Shared domain types: scale ranges, point clouds, spectra, atomic measures.

Every other module produces or consumes these.  All types are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Diameters below MIN_SCALE are refused rather than silently degraded:
# double-precision cost sums over smaller diameters are meaningless.
MIN_SCALE = 1e-12
# Deepest dyadic subdivision level; 2**-40 approaches double-precision
# granularity relative to the unit box.
MAX_DEPTH = 40
# Most points a generator builds (carpet_points, fp_points, flog_points):
# above the 252,385 of fp_points(1, 1e-6, theta_min=0.25).
MAX_POINTS = 300_000
# Monotonicity slack for spectra: formulas are exact, estimators carry
# sampling noise.
TOL_MONO_EXACT = 1e-9
TOL_MONO_ESTIMATED = 0.02

# Relative slack for the MIN_SCALE refusal so that boundary cases such as
# 0.001**4 vs 1e-12 do not flip on rounding.
_MIN_SCALE_SLACK = 1e-9


class DimspectError(Exception):
    """Base class for all library errors."""


class ValidationError(DimspectError, ValueError):
    """Inputs violate a documented contract (domain, shape, parse)."""


class GridMismatchError(ValidationError):
    """Two spectra were combined over different theta grids."""


class ScaleRangeTooDeepError(DimspectError):
    """delta**(1/theta) fell below MIN_SCALE; refuse instead of degrading."""


class RangeTooNarrowError(DimspectError):
    """The scale band is too narrow for the requested construction."""


class DepthLimitError(DimspectError):
    """A dyadic recursion would need levels deeper than MAX_DEPTH."""


class EstimateNotMonotoneError(DimspectError):
    """An estimate fell in theta by more than TOL_MONO_ESTIMATED: the deltas are too coarse."""


class InvariantError(DimspectError):
    """An internal invariant failed; indicates a bug or inconsistent bounds."""


class EmptyIntersectionError(InvariantError):
    """Intersecting two spectra produced lower > upper."""


def read_numbers(values, what: str, integral: bool = False) -> list:
    """values as a list of floats, or ints if integral: the one rule for numbers read from input.

    A number is a finite real number that is not a bool or text; an
    integral one has no fractional part (2.0 reads as 2, 2.9 is refused).
    Types are checked once per distinct type, so long lists stay cheap.
    """
    values = list(values)
    for kind in set(map(type, values)):
        if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
            bad = next(v for v in values if type(v) is kind)
            raise ValidationError(f"{what} must be numbers, got {bad!r}")
    try:
        floats = list(map(float, values))
    except OverflowError:  # an int past the float range
        floats = [math.inf]
    if not all(map(math.isfinite, floats)):
        raise ValidationError(f"{what} must be finite")
    if not integral:
        return floats
    if not all(x.is_integer() for x in floats):
        raise ValidationError(f"{what} must be integers, got {values}")
    return list(map(int, values))


def check_number(
    value, name: str, lo: float, hi: float = math.inf, ends: str = "()", integral: bool = False
) -> float | int:
    """value as a float, or an int if integral, if it lies in the interval from lo to hi.

    ends are the interval's brackets: "()", "(]", "[)" or "[]".  NaN, a
    number outside the interval (an infinity at an open end among them),
    bools, text and anything else that is not a real number, and, if
    integral, a number with a fractional part (2.0 reads as 2) are refused
    with one ValidationError wording: "need p finite and positive", "need
    delta in (0, 1)", or for a count "need 2 to 1024 entries in the scale
    menu".  This is the rule for parameters checked once per call;
    check_theta, which runs per sample, keeps a plain comparison.
    """
    x = math.nan
    # the type test first: an ABC isinstance costs about 1 us, five times the rest
    if type(value) in (float, int) or isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past the float range
            x = math.inf if value > 0 else -math.inf
    inside = (lo < x or lo == x and ends[0] == "[") and (x < hi or x == hi and ends[1] == "]")
    if inside and not (integral and not x.is_integer()):
        return int(value) if integral else x
    if integral:
        what = f"{lo} to {hi} {name}" if hi < math.inf else f"at least {lo} {name}"
    elif lo == 0 and ends[0] == "(" and hi == math.inf:
        what = f"{name} finite and positive"
    else:
        what = f"{name} in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    raise ValidationError(f"need {what}, got {value!r}")


def check_theta(theta: float) -> float:
    """Validate a covering-restriction parameter in [0, 1]."""
    theta = float(theta)
    if math.isnan(theta) or not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must lie in [0, 1], got {theta!r}")
    return theta


def theta_grid(grid) -> list[float]:
    """The thetas of grid, each checked by check_theta, sorted; a repeated theta is refused."""
    thetas = sorted(map(check_theta, grid))
    if any(a == b for a, b in zip(thetas, thetas[1:])):
        raise ValidationError("theta grid contains duplicates")
    return thetas


@dataclass(frozen=True)
class ScaleRange:
    """Admissible diameter band [delta**(1/theta), delta] at scale delta.

    theta = 1 pins all diameters to delta; theta = 0 means unrestricted
    covers and is represented by a lower bound of 0.
    """

    delta: float
    theta: float

    def __post_init__(self) -> None:
        check_theta(self.theta)
        check_number(self.delta, "delta", 0, 1)
        if self.theta > 0.0:
            lo = self.delta ** (1.0 / self.theta)
            if lo < MIN_SCALE * (1.0 - _MIN_SCALE_SLACK):
                raise ScaleRangeTooDeepError(
                    f"delta**(1/theta) = {lo:.3e} is below MIN_SCALE = {MIN_SCALE:.0e} "
                    f"(delta={self.delta}, theta={self.theta})"
                )

    @property
    def lo(self) -> float:
        return 0.0 if self.theta == 0.0 else self.delta ** (1.0 / self.theta)

    @property
    def hi(self) -> float:
        return self.delta


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite set of points in R^n (n in {1,2,3}) with its bounding box.

    array is the points as one read-only, C-contiguous float64 (N, n)
    array, deduplicated by exact equality (of rows equal up to zero signs,
    the first given stays, as in a set) and sorted lexicographically, so
    identical inputs give identical clouds in any order.  Library code
    reads array; points rebuilds its rows as a tuple of tuples on each
    access (about 0.7 ms per 6,000 points in R^2).  Besides malformed and
    non-finite rows, ingestion refuses a bounding cube whose diagonal,
    side * sqrt(n), overflows a float.  dimension_n is the array's width.
    """

    array: np.ndarray
    bbox: tuple[tuple[float, ...], tuple[float, ...]]

    @classmethod
    def from_points(cls, points, dimension_n: int | None = None) -> "PointCloud":
        try:
            arr = np.array(points if isinstance(points, np.ndarray) else list(points), float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"cannot read the points as rows of numbers: {exc}") from exc
        if not len(arr):
            raise ValidationError("a PointCloud needs at least one point")
        n = dimension_n if dimension_n is not None else arr[0].size
        if n not in (1, 2, 3):
            raise ValidationError(f"ambient dimension must be 1, 2 or 3, got {n}")
        if arr.shape[1:] != (n,):
            raise ValidationError(f"points must be rows of {n} coordinates, got shape {arr.shape}")
        finite = np.isfinite(arr).all(1)
        if not finite.all():
            bad = tuple(arr[finite.argmin()].tolist())
            raise ValidationError(f"point {bad} has non-finite coordinates")
        arr = arr[np.lexsort(arr.T[::-1])]  # stable: equal rows keep input order
        arr = arr[np.r_[True, (arr[1:] != arr[:-1]).any(1)]]
        # argmin and argmax take the first extreme row, as min and max do
        mins = tuple(arr[arr.argmin(0), range(n)].tolist())
        maxs = tuple(arr[arr.argmax(0), range(n)].tolist())
        arr.flags.writeable = False
        cloud = cls(array=arr, bbox=(mins, maxs))
        if not math.isfinite(cloud.side * math.sqrt(n)):
            raise ValidationError(f"the extent of the bounding box {cloud.bbox} overflows a float")
        return cloud

    @property
    def dimension_n(self) -> int:
        return self.array.shape[1]

    @property
    def side(self) -> float:
        """Side of the bounding cube: the bbox's largest extent, 1.0 if that is 0."""
        return max(hi - lo for lo, hi in zip(*self.bbox)) or 1.0

    @property
    def points(self) -> tuple[tuple[float, ...], ...]:
        return tuple(zip(*self.array.T.tolist()))

    def __len__(self) -> int:
        return len(self.array)


@dataclass(frozen=True)
class SpectrumSample:
    """One (theta, lower, upper) sample with a tag naming how it was produced."""

    theta: float
    lower: float
    upper: float
    method: str


def _is_estimated(method: str) -> bool:
    return method.startswith("estimated")


@dataclass(frozen=True)
class DimensionSpectrum:
    """Sampled map theta -> (lower value, upper value, method tag).

    Invariants checked on construction: thetas strictly increasing, every
    method tag a str, every sample satisfying 0 <= lower <= upper <=
    ambient_n, and each column monotone non-decreasing in theta up to
    TOL_MONO_EXACT (closed forms) or TOL_MONO_ESTIMATED (estimator
    output).  An estimated sample at theta = 0 is exempt from the
    monotonicity check: it comes from the unrestricted-cover fallback
    whose finite-resolution bias is one-sided.
    """

    ambient_n: int
    samples: tuple[SpectrumSample, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValidationError("a spectrum needs at least one sample")
        if self.ambient_n < 1:
            raise ValidationError("ambient dimension must be positive")
        prev_theta = -1.0
        for s in self.samples:
            check_theta(s.theta)
            if not isinstance(s.method, str):
                raise ValidationError(f"a sample's method tag must be text, got {s.method!r}")
            if s.theta <= prev_theta:
                raise ValidationError("sample thetas must be strictly increasing")
            prev_theta = s.theta
            if not (-1e-12 <= s.lower <= s.upper + 1e-12):
                raise InvariantError(
                    f"lower {s.lower} > upper {s.upper} at theta={s.theta}"
                )
            if s.upper > self.ambient_n + 1e-9:
                raise InvariantError(
                    f"upper {s.upper} exceeds ambient dimension {self.ambient_n}"
                )
        for values in (self.lowers(), self.uppers()):
            running = -math.inf
            for s, v in zip(self.samples, values):
                if s.theta == 0.0 and _is_estimated(s.method):
                    continue
                tol = TOL_MONO_ESTIMATED if _is_estimated(s.method) else TOL_MONO_EXACT
                if v < running - tol:
                    raise InvariantError(
                        f"spectrum not monotone at theta={s.theta}: "
                        f"{v} < running max {running} - {tol}"
                    )
                running = max(running, v)

    def thetas(self) -> tuple[float, ...]:
        return tuple(s.theta for s in self.samples)

    def lowers(self) -> tuple[float, ...]:
        return tuple(s.lower for s in self.samples)

    def uppers(self) -> tuple[float, ...]:
        return tuple(s.upper for s in self.samples)

    def to_json_dict(self) -> dict:
        return {
            "ambient_n": self.ambient_n,
            "samples": [
                {"theta": s.theta, "lower": s.lower, "upper": s.upper, "method": s.method}
                for s in self.samples
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DimensionSpectrum":
        try:
            samples = tuple(
                SpectrumSample(
                    *read_numbers((s["theta"], s["lower"], s["upper"]), "theta, lower and upper"),
                    method=s["method"],
                )
                for s in obj["samples"]
            )
            [ambient_n] = read_numbers([obj["ambient_n"]], "ambient_n", integral=True)
            return cls(ambient_n=ambient_n, samples=samples)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed spectrum JSON: {exc}") from exc


def _combine_method(ma: str, mb: str) -> str:
    return ma if ma == mb else f"{ma}|{mb}"


def spectrum_merge(
    a: DimensionSpectrum, b: DimensionSpectrum, mode: str
) -> DimensionSpectrum:
    """Pointwise combination of two spectra over the same theta grid.

    mode 'max' keeps the larger bounds (finite stability of the upper
    dimension under unions), 'min' the smaller, 'intersect' keeps
    (max of lowers, min of uppers) and raises if that inverts.
    """
    if mode not in ("max", "min", "intersect"):
        raise ValidationError(f"unknown merge mode {mode!r}")
    if a.ambient_n != b.ambient_n:
        raise GridMismatchError("spectra live in different ambient dimensions")
    if a.thetas() != b.thetas():
        raise GridMismatchError("spectra sampled on different theta grids")
    merged = []
    for sa, sb in zip(a.samples, b.samples):
        if mode == "max":
            lower, upper = max(sa.lower, sb.lower), max(sa.upper, sb.upper)
        elif mode == "min":
            lower, upper = min(sa.lower, sb.lower), min(sa.upper, sb.upper)
        else:
            lower, upper = max(sa.lower, sb.lower), min(sa.upper, sb.upper)
            if lower > upper + 1e-12:
                raise EmptyIntersectionError(
                    f"empty intersection at theta={sa.theta}: "
                    f"lower {lower} > upper {upper}"
                )
            upper = max(upper, lower)
        merged.append(
            SpectrumSample(sa.theta, lower, upper, _combine_method(sa.method, sb.method))
        )
    return DimensionSpectrum(ambient_n=a.ambient_n, samples=tuple(merged))


def default_theta_grid(count: int = 101) -> tuple[float, ...]:
    """Uniform theta grid on [0, 1] inclusive (default 101 samples)."""
    count = check_number(count, "samples in the grid", 2, ends="[)", integral=True)
    return tuple(i / (count - 1) for i in range(count))


def _coordinates(point) -> tuple:
    """A point's coordinates; text is refused, not read one character (or byte) a coordinate."""
    if isinstance(point, (str, bytes, bytearray)):
        raise TypeError(f"a point is a sequence of numbers, not {type(point).__name__} {point!r}")
    return tuple(point)


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finite measure: atom i has coordinates points[i] and mass masses[i].

    points is an (N, n) and masses an (N,) float64 array; the constructor
    takes ownership of both and marks them read-only, as PointCloud does.
    It refuses other shapes, a mass that is not positive, and masses
    whose total, their fsum, overflows.  from_atoms reads (point, mass)
    pairs from outside the library, each mass and coordinate by
    read_numbers; atoms rebuilds those pairs as tuples on each access.
    """

    points: np.ndarray
    masses: np.ndarray
    total: float = field(init=False)

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.masses.shape != self.points.shape[:1]:
            shapes = f"{self.points.shape} and {self.masses.shape}"
            raise ValidationError(f"need (N, n) points and (N,) masses, got {shapes}")
        if not (self.masses > 0.0).all():
            raise ValidationError("atom masses must be positive")
        try:
            object.__setattr__(self, "total", math.fsum(self.masses.tolist()))
        except OverflowError:
            raise ValidationError("the atom masses sum past the float range") from None
        self.points.flags.writeable = False
        self.masses.flags.writeable = False

    @classmethod
    def from_atoms(cls, atoms) -> "AtomicMeasure":
        """Measure from (point, mass) pairs: finite points of one length, finite masses > 0."""
        try:
            points, masses = zip(*((_coordinates(p), m) for p, m in atoms))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"need a non-empty list of (point, mass) pairs: {exc}") from exc
        n, count = len(points[0]), len(masses)
        if not n or {len(p) for p in points} != {n}:
            raise ValidationError("atom points need one and the same number of coordinates")
        values = itertools.chain(masses, *points)
        values = np.array(read_numbers(values, "atom masses and coordinates"))
        return cls(values[count:].reshape(count, n), values[:count])

    @property
    def atoms(self) -> tuple[tuple[tuple[float, ...], float], ...]:
        return tuple(zip(zip(*self.points.T.tolist()), self.masses.tolist()))

    def to_json_dict(self) -> dict:
        atoms = zip(self.points.tolist(), self.masses.tolist())
        return {"atoms": [{"x": p, "mass": m} for p, m in atoms]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AtomicMeasure":
        try:
            return cls.from_atoms((a["x"], a["mass"]) for a in obj["atoms"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed measure JSON: {exc}") from exc
