"""Constructive measure machinery for certifying dimension lower bounds.

build_frostman_measure runs the dyadic cap cascade: start with mass
2**(-m s) per occupied level-m cube, then walk up the levels scaling any
cube above its cap 2**(-level s) back down to it, and finally normalize.
The result is a finite-atom probability measure whose ball masses are
bounded by c * r**s across the admissible radius band, with c measured
empirically.  check_mdp verifies such bounds by sampling; a pass
certifies dimension >= s at sampling confidence.

Both probe ball masses the same way (_ball_masses): a numpy box filter
over the atoms' coordinate array keeps the atoms within r (1 + 1e-9) of
the center on every axis, and the exact test, an fsum of squared
coordinate differences against r*r, decides among those.  The filter
drops only atoms the exact test rejects, so masses are the full scan's
bit for bit.
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
    check_theta,
)
from .covers import _cascade_tree, guarded_ceil

# Band ratios below this certify too narrow a range of scales to mean much.
WEAK_BAND_RATIO = 10.0


@dataclass(frozen=True)
class DyadicCascade:
    """Final per-level cube masses of the cap cascade, before normalization.

    Levels run from stop_level (coarsest, diameter <= delta) down to
    base_level (finest, side >= delta**(1/theta)); a level-j cube has side
    scale * 2**-j, scale being the anchor box's side, and cap 2**(-j s).
    """

    s: float
    base_level: int
    stop_level: int
    norm: float
    level_masses: dict

    def cap(self, level: int) -> float:
        return 2.0 ** (-level * self.s)

    def levels(self) -> range:
        return range(self.stop_level, self.base_level + 1)


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


def _ball_masses(atoms, probes) -> list[float]:
    """mu(B(x, r)) = fsum of the masses of atoms p with _squared_distance(p, x) <= r*r, per probe.

    atoms are (point, mass) pairs, probes (x, r) pairs with r > 0.  Each
    probe first keeps the atoms inside the box |p_i - x_i| <= r (1 + 1e-9),
    one numpy pass over the coordinates built here, then runs the exact
    test on those only.  A dropped atom has some fl(p_i - x_i)**2 above
    fl(r*r), so its fsum is above r*r too: the exact test would reject
    it, and the fsum of the kept masses is the full scan's.  This holds
    for correctly rounded squares already; the margin absorbs a `**`
    that is off by more.  It needs r*r normal: where r*r underflows, the
    box is unbounded and every atom goes to the exact test.
    """
    # one contiguous row per axis: the all() over axis 0 is then a few
    # elementwise ands, where over the atoms' rows it is a slow reduction
    coords = np.ascontiguousarray(np.array([p for p, _ in atoms]).T)
    masses = []
    for x, r in probes:
        r2 = r * r
        reach = r * (1.0 + 1e-9) if r2 >= sys.float_info.min else math.inf
        inside = np.abs(coords - np.reshape(x, (-1, 1))) <= reach
        near = np.flatnonzero(inside.all(axis=0))
        masses.append(
            math.fsum(
                m
                for p, m in map(atoms.__getitem__, near.tolist())
                if _squared_distance(p, x) <= r2
            )
        )
    return masses


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
    safety factor over the probes.
    """
    if not (math.isfinite(s) and s > 0.0):
        raise ValidationError(f"exponent s must be finite and positive, got {s}")
    if ball_samples < 0:
        raise ValidationError(f"ball_samples must be at least 0, got {ball_samples}")
    check_theta(theta)
    if theta == 0.0:
        raise ValidationError("the cascade needs theta > 0 (theta = 0 is classical)")
    rng = ScaleRange(delta, theta)
    lo = rng.lo
    tree = _cascade_tree(points, lo, delta)
    m, stop = tree.bottom, tree.top
    starts = tree.leaf_starts()
    # masses of the base cubes, in tree order
    masses = np.full(len(tree.first_point), 2.0 ** (-m * s))
    for level in range(m - 1, stop - 1, -1):
        cap = 2.0 ** (-level * s)
        # a cube's base cubes form one run; np.split returns views, so
        # scaling a run scales masses
        for members in np.split(masses, starts[level - stop][1:]):
            total = math.fsum(members)
            if total > cap:
                members *= cap / total

    # atoms in the order their least points appear in the sorted cloud
    order = np.argsort(tree.first_point)
    reps = points.array.take(tree.first_point[order], 0).tolist()
    masses = masses[order]
    level_masses: dict[int, dict[tuple[int, ...], float]] = {}
    for level, start, cells in zip(range(stop, m + 1), starts, tree.cells):
        cube = np.repeat(np.arange(len(start)), np.diff(start, append=len(masses)))[order]
        sums = np.bincount(cube, weights=masses)
        _, first_seen = np.unique(cube, return_index=True)
        seen = np.argsort(first_seen)
        level_masses[level] = dict(
            zip(map(tuple, cells[seen].tolist()), sums[seen].tolist())
        )
    del tree, starts, cells  # the probes below need none of the tree

    norm = math.fsum(masses)
    measure = AtomicMeasure.from_atoms(zip(reps, (masses / norm).tolist()))
    cascade = DyadicCascade(
        s=s, base_level=m, stop_level=stop, norm=norm, level_masses=level_masses
    )

    rnd = random.Random(seed)
    atoms = measure.atoms
    worst = 0.0
    # band-edge probes at every atom, thinned on large clouds
    stride = max(1, len(atoms) // 200)
    probes = [(p, r) for p, _ in atoms[::stride] for r in (lo, delta)]
    log_lo, log_hi = math.log(lo), math.log(delta)
    for _ in range(ball_samples):
        x = atoms[rnd.randrange(len(atoms))][0]
        r = math.exp(rnd.uniform(log_lo, log_hi))
        probes.append((x, r))
    for (_, r), mass in zip(probes, _ball_masses(atoms, probes)):
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
    for name, value in (("exponent s", s), ("mass floor a", a), ("constant c", c)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValidationError(f"{name} must be finite and positive, got {value}")
    if ball_samples < 1:
        raise ValidationError(f"ball_samples must be at least 1, got {ball_samples}")
    check_theta(theta)
    if theta == 0.0:
        raise ValidationError("check_mdp needs theta > 0 (theta = 0 is classical)")
    measures = list(measures)
    if not measures:
        raise ValidationError("empty measure list")
    entries = []
    for index, (delta, measure) in enumerate(measures):
        if not 0.0 < delta < 1.0:
            raise ValidationError(f"delta must lie in (0, 1), got {delta}")
        diam_lo, diam_hi = delta, delta**theta
        rnd = random.Random(seed * 1000003 + index)
        atoms = measure.atoms
        worst = 0.0
        violations = 0
        probes = []
        for _ in range(ball_samples):
            x = atoms[rnd.randrange(len(atoms))][0]
            u = (
                diam_lo
                if diam_hi <= diam_lo
                else math.exp(rnd.uniform(math.log(diam_lo), math.log(diam_hi)))
            )
            probes.append((x, u))
        balls = [(x, u / 2.0) for x, u in probes]
        for (_, u), mass in zip(probes, _ball_masses(atoms, balls)):
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
    if not p > 0.0:
        raise ValidationError(f"decay exponent p must be positive, got {p}")
    check_theta(theta)
    if theta == 0.0:
        raise ValidationError("witness measure needs theta > 0")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")
    s = theta / (p + theta)
    m_count = guarded_ceil(delta ** (-(s + theta * (1.0 - s)) / (p + 1.0)))
    mass = delta**s
    return AtomicMeasure.from_atoms(
        ((k ** (-p),), mass) for k in range(1, m_count + 1)
    )


def separated_witness_measure(points: PointCloud, delta: float) -> AtomicMeasure:
    """Uniform probability measure on a greedy delta-separated subset.

    First-fit over lexicographic order: keep a point iff it is at distance
    >= delta from everything kept so far.  The atom count is the
    separation number driving box-counting style lower bounds.
    """
    if not 0.0 < delta < math.sqrt(sys.float_info.max):
        raise ValidationError(f"delta must be positive with a finite square, got {delta}")
    threshold = (delta * (1.0 - 1e-9)) ** 2
    if threshold < sys.float_info.min:  # squared distances below it would read 0
        raise ValidationError(f"delta {delta} is too small: its squared separation underflows")
    kept: list[list[float]] = []
    for p in points.array.tolist():
        if all(_squared_distance(p, q) >= threshold for q in kept):
            kept.append(p)
    mass = 1.0 / len(kept)
    return AtomicMeasure.from_atoms((p, mass) for p in kept)
