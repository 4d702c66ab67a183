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
same way (_ball_masses), all probes of a call at once.  The atoms are
sorted once by row, a cell of side the largest radius on the axes after
the first, and then by their first coordinate.  Each probe reads, in the
few rows its box meets, the run of atoms whose first coordinate is
within r (1 + 1e-9) of the center, found by searchsorted.  A numpy sum
of squared coordinate differences, taken over groups of whole probes,
decides the atoms clearly inside or outside the ball, within a relative
1e-9 of r*r.  Only the atoms in between go to the exact test, an fsum of
the squared differences against r*r.  Rows, runs and pre-test agree with
the exact test, so masses are the full scan's bit for bit.  The cascade
sums each cube's masses with np.add.reduceat the same way: only a cube
whose float total, widened by its rounding bound, exceeds the cap has
its total taken exactly: as fl(k m) for k equal masses m, all such cubes
in one numpy step, and with fsum for the others.
separated_witness_measure buckets its kept points in cells of side
delta, so each point is tested against the few kept points near it.
"""

from __future__ import annotations

import itertools
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
from .covers import _DyadicTree, _cascade_tree, _fp_witness_count

# Band ratios below this certify too narrow a range of scales to mean much.
WEAK_BAND_RATIO = 10.0

# Most random probes one call draws: 500x the default of 200.
MAX_BALL_SAMPLES = 100_000

# Candidate atoms _ball_masses pre-tests at once (more only when one
# probe alone has more): its buffers, reused group after group, stay small.
# Each group costs about 25 numpy calls, so fewer groups pay: on the
# depth-8 carpet certificate (29,820 candidates) 4,096 takes 8 groups
# against 31 at 1,024, and the build and check run about 11% faster, with
# no rise in peak RSS over 40 s benchmark runs.  A size tied to the atom
# count made checks on 10 atoms about 2x slower.
GROUP_CANDIDATES = 4096


def _level_cap(level: int, s: float) -> float:
    """2**(-level s): the cascade's cap on a cube of that level, and a base cube's mass."""
    return 2.0 ** (-level * s)


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
        return _level_cap(level, self.s)


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


def _grid(y: np.ndarray, side: float, cells: int) -> tuple[float, float, int] | None:
    """(base, width, count) of a row of cells over the values y, or None if their extent overflows.

    Cell i holds the v with floor(fl(fl(v - base) / width)) = i, base =
    min(y), and _cells clips the index to [0, count - 1]: a monotone
    function of v, so a value between two others has its cell between
    theirs.  The width is side, or wider where more than `cells` cells
    would be needed to span y.
    """
    base = y.min()
    extent = y.max() - base
    if not extent < math.inf:
        return None
    width = max(side, extent / cells)
    return base, width, int(np.floor(extent / width)) + 1


def _cells(v: np.ndarray, grid: tuple[float, float, int]) -> np.ndarray:
    """The cell index of each value in v on a _grid row, clipped to its cells."""
    base, width, count = grid
    return np.clip(np.floor((v - base) / width), 0, count - 1).astype(np.int64)


def _probe_rows(points: np.ndarray, centres: np.ndarray, reach: np.ndarray, normal: np.ndarray):
    """Row of every atom, and the (probe, row) pairs the probes read, probe by probe.

    A row is a cell of side w on the axes after the first (_grid), w the
    largest reach of a normal probe, numbered by the mixed-radix number
    of its cell indices.  A normal probe reads the rows between the cells
    of fl(x_k - reach) and fl(x_k + reach) on every row axis: at most 3
    per axis, as 2 reach <= 2 w, or 4 where rounding widens the span.
    Any other probe gets row 0 only, which the caller widens to every
    atom.  An axis whose extent overflows is no row axis, and the cells
    widen where rows times atoms would pass 2**62.  Returns the atoms'
    rows, each pair's probe and row, and the pair count of every probe.
    """
    count, n = points.shape
    rows = np.zeros(count, np.int64)
    probe = np.arange(len(centres))
    pair_rows = np.zeros(len(centres), np.int64)
    side = reach[normal].max(initial=0.0)
    # cells per axis, so that (cells + 1)**(n - 1) * count < 2**62
    cells = int((2**62 // count) ** (1.0 / max(n - 1, 1))) - 2
    for k in range(1, n) if side > 0.0 and cells > 0 else ():
        grid = _grid(points[:, k], side, cells)
        if grid is None:
            continue
        rows = rows * grid[2] + _cells(points[:, k], grid)
        lo, hi = (_cells(centres[:, k] + sign * reach, grid) for sign in (-1.0, 1.0))
        lo = np.where(normal, lo, 0)
        # each pair becomes one pair per cell of its probe on this axis
        span = np.where(normal, hi - lo + 1, 1).take(probe)
        heads = np.cumsum(span) - span
        probe = np.repeat(probe, span)
        pair_rows = np.repeat(pair_rows * grid[2], span) + lo.take(probe)
        pair_rows += np.arange(len(probe)) - np.repeat(heads, span)
    return rows, probe, pair_rows, np.bincount(probe, minlength=len(centres))


def _probe_runs(points: np.ndarray, centres: np.ndarray, reach: np.ndarray, normal: np.ndarray):
    """The atoms sorted by key, row * N + rank of p_0, and the runs of that order the probes read.

    Run j holds the atoms of pair j's row (_probe_rows) whose p_0 is in
    [fl(x_0 - reach), fl(x_0 + reach)]: searchsorted finds the ranks of
    the two ends among the sorted p_0, then the keys of the row at those
    ranks among the sorted keys.  A probe whose r*r is not normal reads
    every atom.  Laid end to end, the runs number the candidates.
    Returns the order; first, probe i's runs being first[i]:first[i + 1];
    start, its candidates being start[i]:start[i + 1]; and each run's
    length and shift, candidate c of run j being atom c + shift[j].
    """
    count = len(points)
    rows, probe, pair_rows, per_probe = _probe_rows(points, centres, reach, normal)
    by_x = np.argsort(points[:, 0], kind="stable")
    axis0 = points[:, 0].take(by_x)
    rows *= count
    rows[by_x] += np.arange(count)
    order = np.argsort(rows)
    rows = rows.take(order)
    pair_rows *= count
    begins, ends = (
        rows.searchsorted(pair_rows + axis0.searchsorted(end, side).take(probe))
        for end, side in ((centres[:, 0] - reach, "left"), (centres[:, 0] + reach, "right"))
    )
    wide = ~normal.take(probe)
    begins[wide], ends[wide] = 0, count
    lengths = ends - begins
    heads = np.cumsum(lengths) - lengths
    first = np.append(0, np.cumsum(per_probe))
    start = np.append(heads, heads[-1] + lengths[-1]).take(first)
    return order, first, start, lengths, begins - heads


def _ball_masses(measure: AtomicMeasure, centres: np.ndarray, radii: np.ndarray) -> list[float]:
    """mu(B(x, r)) = fsum of the masses of atoms p with _squared_distance(p, x) <= r*r, per probe.

    Probe i has centre x = centres[i], a row of a (probes, n) float
    array, and radius r = radii[i] > 0.  The atoms are sorted once by
    (row, p_0), rows being the cells of _probe_rows, as the keys row * N
    + rank of p_0; fsum is exact, so their order does not change a mass.
    In each row a probe reads, the atoms with p_0 in [fl(x_0 - reach),
    fl(x_0 + reach)], reach = fl(r (1 + 1e-9)), are one run of keys
    (_probe_runs).  The runs of whole probes are gathered in groups of at
    most GROUP_CANDIDATES candidate atoms (or one probe's, if more), in
    buffers reused from group to group, and the squares of their
    coordinate differences summed in numpy.  Atoms whose numpy
    sum is below r*r (1 - 1e-9) are inside, those above r*r (1 + 1e-9)
    outside, and only the ones in between go to the exact test.  Both
    shortcuts agree with it:

    - The runs drop only atoms the exact test rejects.  Rounding is
      monotone, so an atom with p_k < fl(x_k - reach) has p_k < x_k -
      reach, and then |fl(p_k - x_k)| >= reach (the same from above).
      Its square, within a few ulps, is above fl(r*r), and so is the
      fsum, which is at least its largest term.  An atom inside thus
      has every p_k in [fl(x_k - reach), fl(x_k + reach)]; its p_0 is in
      the run, and, as a cell index is a monotone function of the
      coordinate, computed the same way for atoms and ends, its cell on
      each row axis lies between those of the two ends: its row is one
      the probe reads.
    - The numpy differences are the exact test's bits (both are one
      rounded subtraction), and d * d is the correctly rounded square.
      A float sum of n non-negative terms, in any order, is within
      gamma(n-1) of their exact sum, gamma(k) = k u / (1 - k u), u =
      2**-53, and fsum's rounding adds u; a `**` that is off by a few
      ulps adds a few u more.  The margin of 1e-9 covers all of that
      for n < 10**6 terms, and underflowed squares, off by at most
      2**-1075 each, are negligible against r*r >= 2**-1022.  A square
      or sum that overflows reads inf on both sides.

    So the fsum of the kept masses is the full scan's bit for bit.  It
    needs r*r normal: where r*r underflows or overflows, the probe reads
    every atom, and every atom goes to the exact test.
    """
    if not len(radii):
        return []
    points = measure.points
    n = points.shape[1]
    # past 10**6 coordinates the margin no longer covers the sum's rounding
    margin = 1e-9 if n < 10**6 else math.inf
    masses: list[float] = []
    with np.errstate(over="ignore", under="ignore"):
        # r*r and the windows' ends, rounded as Python rounds them
        r2s = radii * radii
        normal = (r2s >= sys.float_info.min) & (r2s <= sys.float_info.max)
        reach = np.where(normal, radii * (1.0 + 1e-9), np.inf)
        inner = np.where(normal, r2s * (1.0 - margin), -np.inf)
        outer = np.where(normal, r2s * (1.0 + margin), np.inf)
        order, first, start, lengths, shift = _probe_runs(points, centres, reach, normal)
        counts = np.diff(start)
        size = max(GROUP_CANDIDATES, int(counts.max()))
        coords = points.T.take(order, 1)  # one contiguous row per axis
        weights = measure.masses.take(order)
        sq, d, t = np.empty(size), np.empty(size), np.empty(size)
        keep, near = np.empty(size, bool), np.empty(size, bool)
        i = 0
        while i < len(radii):
            # whole probes, up to GROUP_CANDIDATES candidates or one probe
            j = max(i + 1, int(start.searchsorted(start[i] + GROUP_CANDIDATES, "right")) - 1)
            m = int(start[j] - start[i])
            pairs = slice(first[i], first[j])
            at = np.repeat(shift[pairs], lengths[pairs])
            at += np.arange(m)
            at += start[i]
            owner = np.repeat(np.arange(i, j), counts[i:j])
            sqs, ds, ts, keeps, nears = sq[:m], d[:m], t[:m], keep[:m], near[:m]
            for k in range(n):
                coords[k].take(at, out=ds, mode="clip")
                centres[:, k].take(owner, out=ts, mode="clip")
                np.subtract(ds, ts, out=ds)
                if k == 0:
                    np.multiply(ds, ds, out=sqs)
                else:
                    np.multiply(ds, ds, out=ds)
                    np.add(sqs, ds, out=sqs)
            inner.take(owner, out=ts, mode="clip")
            np.less(sqs, ts, out=keeps)
            outer.take(owner, out=ts, mode="clip")
            np.less_equal(sqs, ts, out=nears)
            # inner <= outer: near and not kept is near != keep
            np.not_equal(nears, keeps, out=nears)
            unsure = np.flatnonzero(nears)
            if len(unsure):
                who = owner[unsure]
                cases = zip(coords.take(at[unsure], 1).T.tolist(), centres[who].tolist(), r2s[who])
                keeps[unsure] = [_squared_distance(p, x) <= r2 for p, x, r2 in cases]
            inside = np.flatnonzero(keeps)
            kept = weights.take(at.take(inside)).tolist()
            cuts = inside.searchsorted(start[i : j + 1] - start[i]).tolist()
            masses.extend(math.fsum(kept[a:b]) for a, b in zip(cuts, cuts[1:]))
            i = j
    return masses


def _cap_runs(masses: np.ndarray, begins: np.ndarray, cap: float) -> None:
    """Scale, in place, each run of masses whose fsum exceeds cap by cap / fsum.

    Run i is masses[begins[i]:begins[i + 1]] (the last runs to the end),
    the masses non-negative and their totals finite.  np.add.reduceat sums
    every run in floats; a float sum of k non-negative terms times 1 +
    gamma(k - 1) is at least their exact sum (Higham, ch. 4), and
    gamma(k + 2), the factor used, is 3u more, which covers the rounding
    of the factor and of the product.  So a run whose widened float sum
    is at most cap has an exact sum, and an fsum, of at most cap too, and
    only the other runs, the suspects, are totalled exactly.  Below the
    normal range a product rounds by an absolute amount, not a relative
    one, so under a subnormal cap every run is a suspect.

    A suspect run of k equal masses m (its least and greatest mass, from
    reduceat over the suspects alone, are equal) is totalled as fl(k m),
    all at once: k < 2**53 is an exact float, and IEEE multiplication
    rounds the exact product k m correctly, subnormal results included,
    as fsum([m] * k) rounds the same exact sum.  Only the other suspect
    runs are summed with fsum, over a list of the masses built only when
    there is one.
    """
    ends = np.append(begins[1:], len(masses))
    if cap >= sys.float_info.min:
        g = (ends - begins + 2) * 2.0**-53
        with np.errstate(over="ignore"):  # an overflow reads inf, and is summed
            bound = np.add.reduceat(masses, begins) * (1.0 + g / (1.0 - g))
        suspect = np.flatnonzero(bound > cap)
    else:
        suspect = np.arange(len(begins))
    if not len(suspect):
        return
    # each suspect run's least and greatest mass: the even slots of a reduceat
    # over its [begin, end) pairs; reduceat refuses an index of len(masses),
    # so a last end there is dropped, and the last slot reduces to the end
    begin, end = begins[suspect], ends[suspect]
    bounds = np.stack((begin, end), 1).ravel()[: 2 * len(suspect) - (end[-1] == len(masses))]
    least = np.minimum.reduceat(masses, bounds)[::2]
    # a run of k equal masses m totals fl(k * m), its fsum; other runs take fsum
    totals = (end - begin) * least
    mixed = np.flatnonzero(least != np.maximum.reduceat(masses, bounds)[::2])
    if len(mixed):
        values = masses.tolist()
        runs = zip(begin[mixed].tolist(), end[mixed].tolist())
        totals[mixed] = [math.fsum(values[a:b]) for a, b in runs]
    # a capped run scales by cap / total, every other by 1.0 (exactly)
    capped = totals > cap
    factors = np.ones(len(begins))
    factors[suspect[capped]] = cap / totals[capped]
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
    safety factor over the probes.  Refuse, then solve: every input is
    read before the cascade tree is built, so an s for which the base mass
    2**(-m*s) or lo**s, the smallest r**s, is not a positive normal float
    is refused from the levels alone: with both normal, the masses keep
    their ratios and every ratio, at most 1 / lo**s, and the constant stay
    finite.
    """
    s = check_number(s, "s", 0)
    ball_samples = check_number(ball_samples, "ball_samples", 0, MAX_BALL_SAMPLES, "[]", True)
    theta = check_number(theta, "theta", 0, 1, "(]")  # theta = 0 is classical
    rng = ScaleRange(delta, theta)
    lo = rng.lo
    origin, scale, stop, m = _cascade_tree(points, lo, delta)
    base_mass = _level_cap(m, s)
    if min(base_mass, lo**s) < sys.float_info.min:  # 0 or subnormal
        raise ValidationError(
            f"exponent s={s} is too large for base level m={m} and band end lo={lo}: "
            f"2**(-m*s) = {base_mass} and lo**s = {lo**s} must be positive normal floats"
        )
    tree = _DyadicTree(points, origin, scale, stop, m)
    starts = tree.leaf_starts()
    # masses of the base cubes, in tree order
    masses = np.full(len(tree.first_point), base_mass)
    for level in range(m - 1, stop - 1, -1):
        _cap_runs(masses, starts[level - stop], _level_cap(level, s))

    # atoms in the order their least points appear in the sorted cloud
    order = np.argsort(tree.first_point)
    reps = points.array.take(tree.first_point[order], 0)
    masses = masses[order]
    del tree, starts  # the probes below need none of the tree

    norm = math.fsum(masses)
    measure = AtomicMeasure(reps, masses / norm)
    cascade = DyadicCascade(s=s, base_level=m, stop_level=stop, norm=norm)

    rnd = random.Random(seed)
    count = len(measure.masses)
    worst = 0.0
    # band-edge probes at every atom, thinned on large clouds; then random
    # atoms, with radii log-uniform over the band
    edge = range(0, count, max(1, count // 200))
    picks, radii = [i for i in edge for _ in (lo, delta)], [r for _ in edge for r in (lo, delta)]
    log_lo, log_hi = math.log(lo), math.log(delta)
    for _ in range(ball_samples):
        picks.append(rnd.randrange(count))
        radii.append(math.exp(rnd.uniform(log_lo, log_hi)))
    centres = measure.points.take(picks, 0)
    for r, mass in zip(radii, _ball_masses(measure, centres, np.array(radii))):
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
    that unrestricted covers use.  So are s and c for which the smallest
    bound, c * delta**s, is not a positive normal float: a ratio over it
    would divide by 0 or read inf.  Refuse, then solve: every entry's
    delta, then every entry's bound, is read before the first is probed.
    """
    s, a, c = (check_number(v, name, 0) for v, name in ((s, "s"), (a, "a"), (c, "c")))
    ball_samples = check_number(ball_samples, "ball_samples", 1, MAX_BALL_SAMPLES, "[]", True)
    theta = check_number(theta, "theta", 0, 1, "(]")
    measures = [(check_number(delta, "delta", 0, 1), measure) for delta, measure in measures]
    if not measures:
        raise ValidationError("empty measure list")
    for delta, _ in measures:
        smallest = c * delta**s
        if smallest < sys.float_info.min:  # 0 or subnormal
            raise ValidationError(
                f"exponent s={s} and constant c={c} are too far apart for delta={delta}: "
                f"c * delta**s = {smallest}, the smallest bound, must be a positive normal float"
            )
    entries = []
    for index, (delta, measure) in enumerate(measures):
        diam_lo, diam_hi = delta, delta**theta
        rnd = random.Random(seed * 1000003 + index)
        worst = 0.0
        violations = 0
        picks, diams = [], []
        for _ in range(ball_samples):
            picks.append(rnd.randrange(len(measure.masses)))
            diams.append(
                diam_lo
                if diam_hi <= diam_lo
                else math.exp(rnd.uniform(math.log(diam_lo), math.log(diam_hi)))
            )
        centres = measure.points.take(picks, 0)
        for u, mass in zip(diams, _ball_masses(measure, centres, np.array(diams) / 2.0)):
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

    The kept points are bucketed by their cells of side delta (_grid;
    wider on a cloud more than 2**40 delta across), and a point is tested
    only against the kept points in the cells between those of fl(p_k -
    delta) and fl(p_k + delta), the 3**n cells about it.  That drops only
    points that cannot reject it: a q with q_k outside [fl(p_k - delta),
    fl(p_k + delta)] has |fl(p_k - q_k)| >= delta (the argument of
    _ball_masses), so its squared distance is at least delta**2, above
    the threshold.
    """
    delta = check_number(delta, "delta", 0, math.sqrt(sys.float_info.max))  # a finite square
    threshold = (delta * (1.0 - 1e-9)) ** 2
    if threshold < sys.float_info.min:  # squared distances below it would read 0
        raise ValidationError(f"delta {delta} is too small: its squared separation underflows")
    pts = points.array
    # a PointCloud's extent is finite, so every axis has a grid; at most
    # 2**40 cells keep the indices exact and a window 3 (rarely 4) cells wide
    grids = [_grid(y, delta, 2**40) for y in pts.T]
    # each point's cell and the cells of its window's two ends, a row per point
    cells, lows, highs = (
        np.array([_cells(y + shift, grid) for y, grid in zip(pts.T, grids)]).T.tolist()
        for shift in (0.0, -delta, delta)
    )
    buckets: dict[tuple[int, ...], list[list[float]]] = {}
    kept: list[list[float]] = []
    for p, cell, low, high in zip(pts.tolist(), cells, lows, highs):
        near = itertools.product(*(range(a, b + 1) for a, b in zip(low, high)))
        if all(_squared_distance(p, q) >= threshold for c in near for q in buckets.get(c, ())):
            kept.append(p)
            buckets.setdefault(tuple(cell), []).append(p)
    return AtomicMeasure(np.array(kept), np.full(len(kept), 1.0 / len(kept)))
