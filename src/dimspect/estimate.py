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

import heapq
import itertools
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
    theta_grid,
)
from .covers import MAX_MENU, cell_solvers, guarded_ceil

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
    The bisection (_bisection) asks for as many s per solver call as the
    solver's batch_size holds: first the two endpoints and the top levels
    of the bisection tree, then the nodes of the tree below the current
    interval nearest a root guess, where log cost interpolated linearly
    between the interval's ends meets log threshold.  So the interval DP,
    at 17 values, needs 2 calls where the guess holds (one more where it
    misses) where one s per call would take about 13.  Every s and every
    comparison is that of a one-s-at-a-time bisection, so the result is
    too.  This is estimate_spectrum's solve, _critical_exponents, on one
    cell: its solver is the one covers.cell_solvers builds for the cell,
    an interval DP (over every point if the cell is dense) or its band of
    a bounding-box tree.  In a spectrum a group of dense cells shares
    each DP pass at 17 values a cell: the three serial and two dense
    cells of fp_points(1, 1e-4, theta_min=.25) take 2 passes in all, and
    each gives the bits it gives here.  The dyadic tree takes one s per
    call, and its band's two bounds settle most bisection steps with no
    call: a cover chosen at one s bounds the cost at every other from
    above, and the band's least diameter bounds it from beneath
    (_bisection).  The band costs s = 0, and every s on one level (theta
    = 1), in closed form with no tree pass, and solves n only when its
    bottom level's cells, priced at n, are above threshold: a one-level
    band takes no tree pass at all.
    Refuse, then solve: threshold and then scale_menu_size (2 to
    covers.MAX_MENU) are read first, then the band, then a dyadic cell's
    levels, all before the solver is built; so a cell the dyadic tree
    solves, which has no menu, refuses a bad menu size as the interval
    DP does.
    """
    # map is lazy: the band is read once the options are
    (found,) = _critical_exponents(
        points, map(ScaleRange, [delta], [theta]), threshold, scale_menu_size
    ).values()
    return found


def _critical_exponents(points: PointCloud, ranges, threshold, scale_menu_size) -> dict:
    """ScaleRange -> CriticalExponent for each cell of ranges, read after the options.

    threshold and then scale_menu_size are read by check_number; then
    covers.cell_solvers reads every cell's levels before it builds the
    first solver.  Each group it yields bisects in _exponents, and its
    solver is let go of before the next one is built.
    """
    threshold = check_number(threshold, "threshold", 0)
    scale_menu_size = check_number(
        scale_menu_size, "entries in the scale menu", 2, MAX_MENU, "[]", integral=True
    )
    n, found = float(points.dimension_n), {}
    for cells, solver in cell_solvers(points, ranges, scale_menu_size):
        found.update(_exponents(n, cells, solver, threshold))
        del solver  # so that the next solver is built with none alive
    return found


def _bisection(n: float, threshold: float, width: int, band=None):
    """One cell's root finder on [0, n]: yields each batch of s, is sent their costs.

    A batch holds the first width s of the walk ahead of the current
    interval (_walk_ahead), guided by a root guess (_root_guess) after
    the endpoints are known and at width above 1.  A walk reaches a node
    only through its parent, and [lo, hi]'s own s is unknown, so no s is
    asked twice.  Returns (s*, cost(s*)).

    band, when given, is a dyadic band (_DyadicBand), whose bounds settle
    a loop midpoint with no pass on either side.  Its bound(s, at) is the
    exact cost at s of the cover the solver chose at at, rounded once.
    n is asked only if the band's cover in hand there, every cell of its
    bottom level, is priced at n above threshold * (1 - 1e-6); else the
    cost at n is at most threshold, and that cover stays the cover of n.
    Before a midpoint is asked, the cover of at, the last s whose cost
    was at most threshold (n after the endpoints, asked or not), prices
    it: if that is at most threshold * (1 - 1e-6), the midpoint goes to
    hi.
    Else below, the last s asked whose cost was above threshold (0 after
    the endpoints), prices it from beneath: every cube of a cover has
    diameter at least the band's d_min, and |U|**(s - below) >=
    d_min**(s - below) for s > below, so the cost at s is at least
    known[below] * d_min**(s - below); if that is at least threshold *
    (1 + 1e-6), the midpoint goes to lo.  A settled lo has no cost, so
    below stays at the s the cost was solved at.  The margins are safe.
    The solver's cover is no worse in its own bottom-up float sums than
    any other cover, as the sums run in the same order for every cover
    and rounding is monotone; so its exact sum exceeds any other cover's
    by at most about 2 gamma(N), N at most 300,000 points x 41 levels,
    about 3e-9 relative.  known[below] is such a float cost, the power
    and the product round by a few ulps, and so does the cost a pass
    would give.  So that cost is at most threshold on the hi side and
    above it on the lo side, and every comparison is that of the
    bisection without bounds.  s = 0 and s* are always asked, and n is
    whenever the root clamps there, so (s*, cost(s*)) keep their bits.
    An interval DP has no bounds: it asks 17 s a pass, and 2 passes
    already find a cell's root.
    """
    known: dict[float, float] = {}

    def cost(lo: float, hi: float, *front: float):
        """(s, cost(s)) for the walk's next s: front[0], or the midpoint of [lo, hi]."""
        s = front[0] if front else 0.5 * (lo + hi)
        if s not in known:
            guess = None if front or width == 1 else _root_guess(lo, hi, known, threshold)
            batch = list(itertools.islice(_walk_ahead(lo, hi, front, guess), width))
            known.update(zip(batch, (yield batch)))
        return s, known[s]

    s, c = yield from cost(0.0, n, 0.0, n)
    if c <= threshold * (1.0 + 1e-12):
        return s, c
    if band is None or band.bound(n, n) > threshold * (1.0 - 1e-6):
        s, c = yield from cost(0.0, n, n)
        if c > threshold:
            return s, c
    lo, hi, at, below = 0.0, n, n, 0.0
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if band is not None:
            if band.bound(mid, at) <= threshold * (1.0 - 1e-6):
                hi = mid
                continue
            if known[below] * band.d_min ** (mid - below) >= threshold * (1.0 + 1e-6):
                lo = mid
                continue
        mid, c = yield from cost(lo, hi)
        if c > threshold:
            lo = below = mid
        else:
            hi = at = mid
    return (yield from cost(lo, hi))


def _root_guess(lo: float, hi: float, known: dict, threshold: float) -> float | None:
    """Where log cost, linear between lo and hi, crosses log threshold.

    None unless cost(lo) > threshold >= cost(hi) > 0 and the logs of the
    two costs differ (two costs an ulp apart may share one) and the guess
    is finite.
    """
    c_lo, c_hi = known[lo], known[hi]
    if not c_lo > threshold >= c_hi > 0.0:
        return None
    a, b = math.log(c_lo), math.log(c_hi)
    if not a > b:
        return None
    guess = lo + (hi - lo) * (a - math.log(threshold)) / (a - b)
    return guess if math.isfinite(guess) else None


def _exponents(n: float, cells, solver, threshold: float) -> dict:
    """ScaleRange -> CriticalExponent for cells that share solver, a lone cell a group of one.

    Each cell runs its own _bisection on [0, n], n the ambient dimension,
    at the solver's batch_size; a round gathers the next batch of every
    cell still running and solves them all in one solver call, so each
    round pays the per-state numpy calls of an interval DP once for the
    whole group.  A cell leaves the rounds once its root is found.
    """
    band = solver if hasattr(solver, "bound") else None  # a dyadic band; a DP has no bounds
    walks = [_bisection(n, threshold, solver.batch_size, band) for _ in cells]
    asks = [next(walk) for walk in walks]  # each cell's next batch, () once its root is found
    found = {}
    while len(found) < len(cells):
        costs = iter(solver.costs(*asks))
        for c, (rng, ask) in enumerate(zip(cells, asks)):
            if ask:
                try:
                    asks[c] = walks[c].send(next(costs))
                except StopIteration as done:
                    asks[c] = ()
                    found[rng] = CriticalExponent(rng.delta, rng.theta, *done.value)
    return found


def _walk_ahead(lo: float, hi: float, front, guess: float | None):
    """The s values _bisection may ask for next, in order.

    First each of front (the endpoints still to check), then the bisection
    tree below [lo, hi]: a node's s is 0.5 * (lo + hi), and it has the two
    halves as children while hi - lo > BISECTION_TOL (else its s is s*).
    The tree comes nearest guess first (every node is as near with no
    guess), then shallowest, then leftmost: every node after its parent,
    [lo, hi]'s own s first, and with no guess level by level.
    """
    yield from front
    nodes = [(0.0, 0, lo, hi)]  # (distance to guess, depth, the node's interval)
    while nodes:
        _, depth, a, b = heapq.heappop(nodes)
        mid = 0.5 * (a + b)
        yield mid
        if b - a > BISECTION_TOL:
            for x, y in ((a, mid), (mid, b)):
                far = 0.0 if guess is None else max(x - guess, guess - y, 0.0)
                heapq.heappush(nodes, (far, depth + 1, x, y))


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

    Refuse, then solve: every refusal of an input comes before the first
    solver is built.  The grid and the deltas are read first.  Per theta
    > 0, deltas whose band would dip below MIN_SCALE are skipped, and a
    theta with no admissible delta raises ScaleRangeTooDeepError as soon
    as its row is built, wherever the row sits.  Then every cell is
    solved in one call of _critical_exponents, which reads threshold and
    scale_menu_size, and each dyadic cell's levels (DepthLimitError past
    MAX_DEPTH), before the first solver is built; then the rows are
    folded into samples in theta order.  The theta = 0 entry uses
    unrestricted dyadic covers (floored at MAX_DEPTH) and raw exponents:
    its finite-resolution bias does not follow the drift model.  covers.cell_solvers builds every
    cell's solver: the interval-DP cells (1-D, theta > 0) first, the
    dense ones, whose DP keeps at least half of the states, in groups that
    share one DP pass a round, and the sparse ones alone, with at most one
    DP alive at a time; then every dyadic cell (theta = 0, and any theta
    in R^2 and R^3) on its band of levels in one bounding-box tree, which
    stores levels only down to where every point is alone, however deep
    the bands reach.  Each cell gives the bits critical_exponent gives.
    A row whose lower or upper value falls below the running max of the
    rows before it (theta > 0) by more than TOL_MONO_ESTIMATED raises
    EstimateNotMonotoneError: the deltas are too coarse for the cloud.
    """
    thetas = theta_grid(grid)
    deltas = [check_number(d, "delta", 0, 1) for d in delta_sequence]
    if len(deltas) < 3:
        raise ValidationError("need at least 3 deltas")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValidationError("delta sequence must be strictly decreasing")

    n = float(points.dimension_n)
    rows = []  # per theta, the bands of its admissible deltas
    for theta in thetas:
        rows.append([])
        for delta in deltas:
            try:
                rows[-1].append(ScaleRange(delta, theta))
            except ScaleRangeTooDeepError:
                continue
        if not rows[-1]:
            raise ScaleRangeTooDeepError(
                f"no admissible delta at theta={theta}: "
                f"delta**(1/theta) falls below MIN_SCALE for every delta"
            )
    found = _critical_exponents(points, itertools.chain(*rows), threshold, scale_menu_size)
    samples = []
    peaks = [-math.inf, -math.inf]  # running max of the lower and upper columns over theta > 0
    for theta, ranges in zip(thetas, rows):
        row = [found[rng] for rng in ranges]
        values = _drift_corrected(row) if theta > 0.0 else {c.delta: c.s_star for c in row}
        picked = [values[d] for d in sorted(values)[:2]]
        lower = max(0.0, min(min(picked), n))
        upper = max(lower, min(max(picked), n))
        columns = (("lower", lower), ("upper", upper)) if theta > 0.0 else ()
        # theta = 0 is exempt, as in DimensionSpectrum
        for i, (column, v) in enumerate(columns):
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
