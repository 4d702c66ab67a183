"""Constructive measure machinery for certifying dimension lower bounds.

build_frostman_measure runs the dyadic cap cascade: start with mass
2**(-m s) per occupied level-m cube, then walk up the levels scaling any
cube above its cap 2**(-level s) back down to it, and finally normalize.
The result is a finite-atom probability measure whose ball masses are
bounded by c * r**s across the admissible radius band, with c measured
empirically.  check_mdp verifies such bounds by sampling; a pass
certifies dimension >= s at sampling confidence.

Measures are AtomicMeasure's two arrays, points and masses, from the
builders to the probes.  Both builder and check probe ball masses the
same way (_ball_masses): with the atoms sorted by their first coordinate,
searchsorted finds the window within r (1 + 1e-9) of the center on that
axis, and a numpy sum of squared coordinate differences decides the
atoms clearly inside or outside the ball, within a relative 1e-9 of
r*r.  Only the atoms in between go to the exact test, an fsum of the
squared differences against r*r.  Window and pre-test agree with the
exact test, so masses are the full scan's bit for bit.  The cascade
sums each cube's masses with np.add.reduceat the same way: only a cube
whose float total, widened by its rounding bound, exceeds the cap has
its total taken with fsum.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    AtomicMeasure,
    PointCloud,
    ScaleRange,
    ValidationError,
    check_number,
)
from .covers import _cascade_tree, _fp_witness_count

# Band ratios below this certify too narrow a range of scales to mean much.
WEAK_BAND_RATIO = 10.0

# Most random probes one call draws: 500x the default of 200.
MAX_BALL_SAMPLES = 100_000


@dataclass(frozen=True)
class DyadicCascade:
    """Levels and exponent of the cap cascade, and norm, its total mass before normalization.

    Levels run from stop_level (coarsest, diameter <= delta) down to
    base_level (finest, side >= delta**(1/theta)); a level-j cube has side
    scale * 2**-j, scale being the anchor box's side, and cap 2**(-j s).
    """

    s: float
    base_level: int
    stop_level: int
    norm: float

    def cap(self, level: int) -> float:
        return 2.0 ** (-level * self.s)


@dataclass(frozen=True)
class FrostmanResult:
    """A certified measure: mu(B(x, r)) <= constant * r**s on the sampled band.

    worst_ratio is the largest sampled mu(B(x, r)) / r**s; constant, twice
    it, is the safety factor over the probes.
    """

    measure: AtomicMeasure
    worst_ratio: float
    cascade: DyadicCascade
    range: ScaleRange

    @property
    def constant(self) -> float:
        return 2.0 * self.worst_ratio


def _squared_distance(p, q) -> float:
    """fsum((a - b)**2 over coordinates): the exact sum of the rounded squares.

    inf where a square or the sum overflows; Python's `**` and fsum raise
    OverflowError there instead.
    """
    try:
        return math.fsum((a - b) ** 2 for a, b in zip(p, q))
    except OverflowError:
        return math.inf


def _ball_masses(measure: AtomicMeasure, probes) -> list[float]:
    """mu(B(x, r)) = fsum of the masses of atoms p with _squared_distance(p, x) <= r*r, per probe.

    probes are (x, r) pairs with r > 0.  The atoms are put once in stable
    order by coordinate 0; fsum is exact, so their order does not change
    a mass.  Each probe then reads the window of atoms with p_0 in
    [fl(x_0 - reach), fl(x_0 + reach)], reach = fl(r (1 + 1e-9)), found
    by searchsorted, and sums their squared coordinate differences in
    numpy.  Atoms whose numpy sum is below r*r (1 - 1e-9) are inside,
    those above r*r (1 + 1e-9) outside, and only the ones in between go
    to the exact test.  Both shortcuts agree with it:

    - The window drops only atoms the exact test rejects.  Rounding is
      monotone, so an atom with p_0 < fl(x_0 - reach) has p_0 < x_0 -
      reach, and then |fl(p_0 - x_0)| >= reach (the same from above).
      Its square, within a few ulps, is above fl(r*r), and so is the
      fsum, which is at least its largest term.
    - The numpy differences are the exact test's bits (both are one
      rounded subtraction), and d * d is the correctly rounded square.
      A float sum of n non-negative terms is within gamma(n-1) of their
      exact sum, gamma(k) = k u / (1 - k u), u = 2**-53, and fsum's
      rounding adds u; a `**` that is off by a few ulps adds a few u
      more.  The margin of 1e-9 covers all of that for n < 10**6 terms,
      and underflowed squares, off by at most 2**-1075 each, are
      negligible against r*r >= 2**-1022.  A square or sum that
      overflows reads inf on both sides.

    So the fsum of the kept masses is the full scan's bit for bit.  It
    needs r*r normal: where r*r underflows or overflows, the window and
    the pre-test are skipped and every atom goes to the exact test.
    """
    order = np.argsort(measure.points[:, 0], kind="stable")
    # one contiguous row per axis: summing the squares over axis 0 is then
    # n - 1 elementwise adds, where over the atoms' rows it is a slow reduction
    coords = np.ascontiguousarray(measure.points.take(order, 0).T)
    weights = measure.masses.take(order)
    n, axis0 = len(coords), coords[0]
    # past 10**6 coordinates the margin no longer covers the sum's rounding
    margin = 1e-9 if n < 10**6 else math.inf
    centres = np.array([x for x, _ in probes], dtype=float).reshape(len(probes), n, 1)
    radii = np.array([r for _, r in probes], dtype=float)
    masses = []
    with np.errstate(over="ignore", under="ignore"):
        # r*r and the window's ends, rounded as Python rounds them; where
        # r*r is not normal, the window is everything and every atom unsure
        r2s = radii * radii
        normal = (r2s >= sys.float_info.min) & (r2s <= sys.float_info.max)
        reach = np.where(normal, radii * (1.0 + 1e-9), np.inf)
        begins = axis0.searchsorted(centres[:, 0, 0] - reach, "left")
        ends = axis0.searchsorted(centres[:, 0, 0] + reach, "right")
        inner = np.where(normal, r2s * (1.0 - margin), -np.inf)
        outer = np.where(normal, r2s * (1.0 + margin), np.inf)
        bounds = (v.tolist() for v in (r2s, begins, ends, inner, outer))
        for (x, _), centre, r2, a, b, lo, hi in zip(probes, centres, *bounds):
            d = coords[:, a:b] - centre
            d *= d
            sq = d.sum(0)
            keep = sq < lo
            near = sq <= hi
            if np.count_nonzero(near) > np.count_nonzero(keep):
                unsure = np.flatnonzero(near & ~keep)
                rows = coords[:, a:b].take(unsure, 1).T.tolist()
                keep[unsure] = [_squared_distance(p, x) <= r2 for p in rows]
            masses.append(math.fsum(weights[a:b][keep].tolist()))
    return masses


def _cap_runs(masses: np.ndarray, begins: np.ndarray, cap: float) -> None:
    """Scale, in place, each run of masses whose fsum exceeds cap by cap / fsum.

    Run i is masses[begins[i]:begins[i + 1]] (the last runs to the end),
    the masses non-negative.  np.add.reduceat sums every run in floats; a
    float sum of k non-negative terms times 1 + gamma(k - 1) is at least
    their exact sum (Higham, ch. 4), and gamma(k + 2), the factor used,
    is 3u more, which covers the rounding of the factor and of the
    product.  So a run whose widened float sum is at most cap has an
    exact sum, and an fsum, of at most cap too, and only the other runs
    are summed with fsum.  Below the normal range a product rounds by an
    absolute amount, not a relative one, so under a subnormal cap every
    run is.
    """
    ends = np.append(begins[1:], len(masses))
    if cap >= sys.float_info.min:
        g = (ends - begins + 2) * 2.0**-53
        with np.errstate(over="ignore"):  # an overflow reads inf, and is summed
            bound = np.add.reduceat(masses, begins) * (1.0 + g / (1.0 - g))
        suspect = np.flatnonzero(bound > cap)
    else:
        suspect = np.arange(len(begins))
    # a capped run scales by cap / fsum, every other by 1.0 (exactly)
    values, factors = masses.tolist(), np.ones(len(begins))
    for i, begin, end in zip(suspect.tolist(), *(v[suspect].tolist() for v in (begins, ends))):
        total = math.fsum(values[begin:end])
        if total > cap:
            factors[i] = cap / total
    masses *= np.repeat(factors, ends - begins)


def build_frostman_measure(
    points: PointCloud,
    s: float,
    delta: float,
    theta: float,
    ball_samples: int = 200,
    seed: int = 0,
) -> FrostmanResult:
    """Cap-cascade measure on a point cloud for the band [delta**(1/theta), delta].

    The cubes come from covers._DyadicTree, the tree dyadic covers use,
    anchored at the unit box when the points lie in it and at the
    bounding box otherwise, so a level-j cube has side scale * 2**-j with
    scale 1 or the bounding cube's side (covers._cascade_tree).  The base
    level m is the finest with scale * 2**-m >= delta**(1/theta); the
    cascade stops at the coarsest level l with scale * sqrt(n) * 2**-l <=
    delta (covers.dyadic_levels).  Each occupied base cube contributes one
    atom at its lexicographically least point.  The reported constant is
    twice the worst sampled ratio mu(B(x,r)) / r**s (radius form), a
    safety factor over the probes.  An s for which the base mass
    2**(-m*s) or lo**s, the smallest r**s, is not a positive normal float
    is refused before the cascade runs: with both normal, the masses keep
    their ratios and every ratio, at most 1 / lo**s, and the constant stay
    finite.
    """
    s = check_number(s, "s", 0)
    ball_samples = check_number(ball_samples, "ball_samples", 0, MAX_BALL_SAMPLES, "[]", True)
    theta = check_number(theta, "theta", 0, 1, "(]")  # theta = 0 is classical
    rng = ScaleRange(delta, theta)
    lo = rng.lo
    tree = _cascade_tree(points, lo, delta)
    m, stop = tree.bottom, tree.top
    base_mass = 2.0 ** (-m * s)
    if min(base_mass, lo**s) < sys.float_info.min:  # 0 or subnormal
        raise ValidationError(
            f"exponent s={s} is too large for base level m={m} and band end lo={lo}: "
            f"2**(-m*s) = {base_mass} and lo**s = {lo**s} must be positive normal floats"
        )
    starts = tree.leaf_starts()
    # masses of the base cubes, in tree order
    masses = np.full(len(tree.first_point), base_mass)
    for level in range(m - 1, stop - 1, -1):
        _cap_runs(masses, starts[level - stop], 2.0 ** (-level * s))

    # atoms in the order their least points appear in the sorted cloud
    order = np.argsort(tree.first_point)
    reps = points.array.take(tree.first_point[order], 0)
    masses = masses[order]
    del tree, starts  # the probes below need none of the tree

    norm = math.fsum(masses)
    measure = AtomicMeasure(reps, masses / norm)
    cascade = DyadicCascade(s=s, base_level=m, stop_level=stop, norm=norm)

    rnd = random.Random(seed)
    centres = measure.points.tolist()
    worst = 0.0
    # band-edge probes at every atom, thinned on large clouds
    stride = max(1, len(centres) // 200)
    probes = [(x, r) for x in centres[::stride] for r in (lo, delta)]
    log_lo, log_hi = math.log(lo), math.log(delta)
    for _ in range(ball_samples):
        x = centres[rnd.randrange(len(centres))]
        r = math.exp(rnd.uniform(log_lo, log_hi))
        probes.append((x, r))
    for (_, r), mass in zip(probes, _ball_masses(measure, probes)):
        worst = max(worst, mass / r**s)
    return FrostmanResult(measure=measure, worst_ratio=worst, cascade=cascade, range=rng)


@dataclass(frozen=True)
class MdpEntry:
    """Verification outcome for one (delta, measure) pair."""

    delta: float
    total_mass: float
    worst_ratio: float
    violations: int
    weak: bool
    ok: bool


@dataclass(frozen=True)
class MdpReport:
    """Sampled verification of mu(U) <= c |U|**s over admissible diameters."""

    s: float
    theta: float
    a: float
    c: float
    ball_samples: int
    entries: tuple[MdpEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def worst_ratio(self) -> float:
        return max(e.worst_ratio for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "pass": self.ok,
            "s": self.s,
            "theta": self.theta,
            "a": self.a,
            "c": self.c,
            "ball_samples": self.ball_samples,
            "worst_ratio": self.worst_ratio,
            "entries": [
                {
                    "delta": e.delta,
                    "total_mass": e.total_mass,
                    "worst_ratio": e.worst_ratio,
                    "violations": e.violations,
                    "weak_band": e.weak,
                    "pass": e.ok,
                }
                for e in self.entries
            ],
        }


def check_mdp(
    measures,
    s: float,
    theta: float,
    a: float,
    c: float,
    ball_samples: int = 200,
    seed: int = 0,
) -> MdpReport:
    """Sample closed balls checking mu(B) <= c * (2r)**s with 2r in [delta, delta**theta].

    Each entry must also carry total mass >= a.  Ball centers are drawn
    from the atoms (off-support centers only lower the mass), radii
    log-uniform over the admissible band.  A band narrower than one decade
    is flagged weak: it certifies little.  theta = 0 is refused: the band
    would read [delta, 1], large balls only, not the diameters up to delta
    that unrestricted covers use.
    """
    s, a, c = (check_number(v, name, 0) for v, name in ((s, "s"), (a, "a"), (c, "c")))
    ball_samples = check_number(ball_samples, "ball_samples", 1, MAX_BALL_SAMPLES, "[]", True)
    theta = check_number(theta, "theta", 0, 1, "(]")
    measures = list(measures)
    if not measures:
        raise ValidationError("empty measure list")
    entries = []
    for index, (delta, measure) in enumerate(measures):
        delta = check_number(delta, "delta", 0, 1)
        diam_lo, diam_hi = delta, delta**theta
        rnd = random.Random(seed * 1000003 + index)
        centres = measure.points.tolist()
        worst = 0.0
        violations = 0
        probes = []
        for _ in range(ball_samples):
            x = centres[rnd.randrange(len(centres))]
            u = (
                diam_lo
                if diam_hi <= diam_lo
                else math.exp(rnd.uniform(math.log(diam_lo), math.log(diam_hi)))
            )
            probes.append((x, u))
        balls = [(x, u / 2.0) for x, u in probes]
        for (_, u), mass in zip(probes, _ball_masses(measure, balls)):
            ratio = mass / (c * u**s)
            worst = max(worst, ratio)
            if ratio > 1.0 + 1e-9:
                violations += 1
        total = measure.total
        entries.append(
            MdpEntry(
                delta=delta,
                total_mass=total,
                worst_ratio=worst,
                violations=violations,
                weak=diam_hi / diam_lo < WEAK_BAND_RATIO,
                ok=total >= a - 1e-12 and violations == 0,
            )
        )
    return MdpReport(
        s=s, theta=theta, a=a, c=c, ball_samples=ball_samples, entries=tuple(entries)
    )


def fp_witness_measure(p: float, delta: float, theta: float) -> AtomicMeasure:
    """Point masses delta**s at 1/k**p for k <= M, at the critical s = theta/(p+theta).

    M = ceil(delta**(-(s + theta(1-s))/(p+1))) makes the total mass at
    least 1 while every admissible set carries at most (1 + 1/p)|U|**s.
    """
    p, delta = check_number(p, "p", 0), check_number(delta, "delta", 0, 1)
    theta = check_number(theta, "theta", 0, 1, "(]")
    s = theta / (p + theta)
    m_count = _fp_witness_count(p, delta, theta, s)
    # Python's k ** -p, as fp_points: np.power may round differently in the last bit
    xs = np.array([k ** (-p) for k in range(1, m_count + 1)])
    return AtomicMeasure(xs[:, None], np.full(m_count, delta**s))


def separated_witness_measure(points: PointCloud, delta: float) -> AtomicMeasure:
    """Uniform probability measure on a greedy delta-separated subset.

    First-fit over lexicographic order: keep a point iff it is at distance
    >= delta from everything kept so far.  The atom count is the
    separation number driving box-counting style lower bounds.
    """
    delta = check_number(delta, "delta", 0, math.sqrt(sys.float_info.max))  # a finite square
    threshold = (delta * (1.0 - 1e-9)) ** 2
    if threshold < sys.float_info.min:  # squared distances below it would read 0
        raise ValidationError(f"delta {delta} is too small: its squared separation underflows")
    kept: list[list[float]] = []
    for p in points.array.tolist():
        if all(_squared_distance(p, q) >= threshold for q in kept):
            kept.append(p)
    return AtomicMeasure(np.array(kept), np.full(len(kept), 1.0 / len(kept)))
