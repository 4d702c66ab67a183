"""Restricted-cover optimization: minimal-cost covers with diameters in a band.

Two optimizers: an exact dynamic program over interval covers drawn from a
geometric diameter menu (1-D), and an exact bottom-up pass over dyadic-cube
covers (any ambient dimension) on _DyadicTree, the dyadic cell tree the
Frostman cap cascade shares; covers anchor it at the bounding box.  Both
return the full cover, not just its cost, so admissibility and coverage
can be checked directly; cover_cost_function gives a cell's solver of
cost(s), built once per cell, that evaluates a list of s per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MAX_DEPTH,
    MIN_SCALE,
    DepthLimitError,
    PointCloud,
    RangeTooNarrowError,
    ScaleRange,
    ValidationError,
    check_number,
    check_theta,
)

# Most entries a diameter menu may hold, 64 times the default 16: the
# interval DP's jump table is points x menu entries.
MAX_MENU = 1024
# Bytes the interval DP's cost table (states x s values, float64) may take
# at its wide batch: 16 MiB, 32,263 states at 65 values.  The 252,385
# states of fp_points(1, 1e-6, theta_min=.25) would need 131 MB at 65.
TABLE_BUDGET = 16 * 2**20


def guarded_ceil(x: float) -> int:
    """Ceiling with a tolerance for values sitting just above an integer."""
    nearest = round(x)
    if abs(x - nearest) < 1e-9 * max(1.0, abs(x)):
        return max(int(nearest), 1)
    return max(int(math.ceil(x)), 1)


def cover_cost(diameters, s: float) -> float:
    """Canonical cost sum(d**s): exactly-rounded, order-independent."""
    return math.fsum(d**s for d in diameters)


@dataclass(frozen=True)
class CoverSet:
    """One covering set, fixed by its center and side: an interval or an axis-aligned cube.

    Its diameter is side * sqrt(n).  A dyadic cube's side is scale *
    2**-level, and scaling by a power of two is exact, so that is the
    tree's level diameter bit for bit; an interval's is its side.
    """

    center: tuple[float, ...]
    side: float

    def __post_init__(self) -> None:
        if not self.side > 0.0:
            raise ValidationError("cover sets need positive side")

    @property
    def diameter(self) -> float:
        return self.side * math.sqrt(len(self.center))

    def contains(self, point, tol: float = 1e-12):
        """Whether point, or each row of an (N, n) array of points, is in the set up to tol."""
        return (np.abs(np.subtract(point, self.center)) <= self.side / 2.0 + tol).all(-1)


@dataclass(frozen=True)
class RestrictedCover:
    """A finite cover with every diameter inside the admissible band.

    effective_lo is the lower end actually enforced, range.lo if not
    given; the dyadic optimizer may snap a band narrower than one dyadic
    step down to the single admissible level just below hi.  cost is
    cover_cost of the diameters at s, computed on construction.
    """

    sets: tuple[CoverSet, ...]
    range: ScaleRange
    s: float
    effective_lo: float | None = None
    cost: float = field(init=False)

    def __post_init__(self) -> None:
        sets = tuple(self.sets)
        if not sets:
            raise ValidationError("a cover needs at least one set")
        lo = self.range.lo if self.effective_lo is None else self.effective_lo
        hi = self.range.hi
        for c in sets:
            if c.diameter < lo * (1.0 - 1e-12) or c.diameter > hi * (1.0 + 1e-12):
                raise ValidationError(
                    f"set diameter {c.diameter} outside admissible band [{lo}, {hi}]"
                )
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "effective_lo", lo)
        object.__setattr__(self, "cost", cover_cost(self.diameters(), self.s))

    def diameters(self) -> tuple[float, ...]:
        return tuple(c.diameter for c in self.sets)

    def covers(self, points: PointCloud, tol: float = 1e-12) -> bool:
        covered = np.zeros(len(points), dtype=bool)
        for c in self.sets:
            covered |= c.contains(points.array, tol)
        return bool(covered.all())


def geometric_menu(lo: float, hi: float, size: int) -> tuple[float, ...]:
    """size log-uniform diameters spanning [lo, hi], endpoints included."""
    size = check_number(size, "entries in the scale menu", 2, MAX_MENU, "[]", integral=True)
    if not 0.0 < lo <= hi:
        raise ValidationError(f"need 0 < lo <= hi, got [{lo}, {hi}]")
    if hi / lo < 1.0 + 1e-12:
        return (hi,)
    # lo * 2**(i * octaves / (size - 1)): exact when the band spans a whole
    # number of octaves per step, where (hi / lo)**(1 / (size - 1)) rounds
    # (64**(1/3) is 3.9999999999999996) and an entry lands an ulp under a
    # gap it should span.
    octaves = math.log2(hi / lo)
    menu = [lo * 2.0 ** (octaves * i / (size - 1)) for i in range(size)]
    menu[0], menu[-1] = lo, hi
    return tuple(sorted(set(menu)))


class _IntervalDP:
    """Left-to-right DP over sorted points with a fixed diameter menu.

    State i = first uncovered point; transition places one interval of
    each menu diameter starting at point i.  An optimal interval cover can
    be shifted so each interval starts at the leftmost point it covers, so
    this explores a superset of canonical optimal covers.  The jump table
    is s-independent and built once, over the states reachable from point
    0 only: states[k] is the point index of kept state k (the last is the
    terminal len(xs)), and jump[k, j] the kept state that menu entry j
    leads to from state k.  One pass (table) gives the optimal cost from
    every state; the estimator reads state 0's, and optimal_cover_1d reads
    the cover off the whole table.

    A state reads only states to its right, the nearest of them jump[k, 0]
    (the menu ascends), and jump[:, 0] is non-decreasing in k.  So the
    states split, greedily from the right, into runs [a, b) of at most
    max_run states whose jumps all land at or past b: a run reads only
    finished costs, and the pass fills it with one take, add and minimum.
    blocks lists the runs of two or more states, right to left; every
    other state is a run of its own, which the pass fills as a (menu, s)
    array, cheaper to index than a (menu, 1, s) one.  Serial cells, whose
    smallest diameter is below the gaps between points, have no blocks,
    and there every state is reachable: the build skips the walk.

    batch_size, the s values one costs() call should carry, is wide_batch
    while the cost table fits TABLE_BUDGET, else narrow_batch.
    """

    # A pass costs about as much for 65 values of s as for one on a serial
    # cell (per-state numpy calls dominate).  critical_exponent's first call
    # holds the 2 endpoints and bisection depths 0..k-1, 2**k + 1 values,
    # and a bisection ends at depth 10 (1 / 2**10 <= 1e-3): k = 6 gives 65
    # values and 2 calls (the second holds depths 6..10, 31 values); k = 4
    # gives 17 and 3 calls (17, 15 and 7 values).
    wide_batch, narrow_batch = 65, 17
    # States one run holds at most.  The pass's temporary is menu x the
    # cell's longest run x batch_size floats: none on a serial cell, at
    # most 532 KB at the default 16 x 64 x 65.
    max_run = 64

    def __init__(self, xs: np.ndarray, menu: tuple[float, ...]):
        self.menu = menu
        # point-major, so that take reads it without a contiguous copy
        jump = np.empty((len(xs), len(menu)), dtype=np.intp)
        for j, d in enumerate(menu):  # one (N,) float temporary at a time
            jump[:, j] = np.searchsorted(xs, xs + d, side="right")
        if (jump[:, 0] == np.arange(1, len(xs) + 1)).all():
            # serial: each point leads to the next, so every point is a state, its own rank
            self.states, self.jump = np.arange(len(xs) + 1), jump
        else:
            reach = np.zeros(len(xs) + 1, dtype=bool)
            reach[0] = True
            for i in range(len(xs)):
                if reach[i]:
                    reach[jump[i]] = True
            self.states = np.flatnonzero(reach)
            rank = np.cumsum(reach) - 1
            self.jump = jump.take(self.states[:-1], 0)
            # in place: each entry is read once, just before it is written
            rank.take(self.jump, out=self.jump, mode="clip")
        del jump
        self.batch_size = self.batch_for(len(self.states))
        # The run that ends at b starts at first[b], the first state whose
        # nearest jump lands at or past b, or max_run back.  first[b] ==
        # b - 1 is a run of one state; skip[b] is where a walk through such
        # runs from b stops, so the walk steps once per block.
        ends = np.arange(len(self.jump) + 1)
        first = np.searchsorted(self.jump[:, 0], ends)
        skip = np.maximum.accumulate(np.where(first == ends - 1, 0, ends)).tolist()
        first = first.tolist()
        self.blocks, b = [], skip[-1]
        while b:
            a = max(first[b], b - self.max_run)
            self.blocks.append((a, b))
            b = skip[a]

    @classmethod
    def batch_for(cls, states: int) -> int:
        """batch_size for this many kept states: wide while the table fits TABLE_BUDGET."""
        return cls.wide_batch if states * cls.wide_batch * 8 <= TABLE_BUDGET else cls.narrow_batch

    def table(self, ss) -> np.ndarray:
        """Optimal cost from each kept state at each s in ss, in one right-to-left pass.

        cost[k] = min over j of cost[jump[k, j]] + menu[j]**s, a
        (states, len(ss)) array, filled run by run.  No unreachable state
        feeds a kept one, so each cost equals the scalar DP's over every
        point bit for bit: the sums are the same sums, and a minimum is
        exact in any order.
        """
        powers = np.array([[d**s for s in ss] for d in self.menu])
        size, width = powers.shape
        cost = np.zeros((len(self.states), width))
        one, column = np.empty_like(powers), powers[:, None]
        buf = np.empty(size * max((b - a for a, b in self.blocks), default=0) * width)
        top = len(self.jump)
        for a, b in self.blocks + [(0, 0)]:  # the empty last block ends the pass at state 0
            for k in range(top - 1, b - 1, -1):  # the one-state runs above the block
                cost.take(self.jump[k], 0, one, "clip")
                np.add(one, powers, one)
                np.minimum.reduce(one, 0, out=cost[k])
            if a < b:  # menu-major, so the minimum runs over contiguous (b - a, s) blocks
                cand = buf[: size * (b - a) * width].reshape(size, b - a, width)
                cost.take(self.jump[a:b].T, 0, cand, "clip")
                np.add(cand, column, cand)
                np.minimum.reduce(cand, 0, out=cost[a:b])
            top = a
        return cost

    def costs(self, ss) -> list[float]:
        """Optimal cover cost at each s in ss."""
        return self.table(ss)[0].tolist()


def optimal_cover_1d(
    points: PointCloud, rng: ScaleRange, s: float, scale_menu_size: int = 16
) -> RestrictedCover:
    """Minimal-cost interval cover with diameters from a geometric menu.

    Exact over the menu; relative to the continuum optimum over interval
    covers the cost is within a factor (hi/lo)**(s/(menu-1)).  The cover
    is read off the DP's cost table walking forward from state 0: at each
    state, the largest diameter whose sum cost[jump] + diameter**s equals
    the state's cost.  Those are the pass's own float sums, and the
    minimum it stored is one of them, so the test is exact; ties go to the
    larger set, as in optimal_cover_dyadic.
    """
    if points.dimension_n != 1:
        raise ValidationError("optimal_cover_1d needs a 1-D point cloud")
    s = check_number(s, "s", 0, 1, "[]")  # s = 0 minimizes the set count
    if rng.theta == 0.0:
        raise ValidationError("theta=0 has no finite menu; use optimal_cover_dyadic")
    xs = points.array[:, 0]
    menu = geometric_menu(rng.lo, rng.hi, scale_menu_size)
    dp = _IntervalDP(xs, menu)
    cost, powers = dp.table([s])[:, 0], np.array([d**s for d in menu])
    sets = []
    k = 0
    while k < len(dp.jump):
        j = np.flatnonzero(cost.take(dp.jump[k]) + powers == cost[k])[-1]
        d, x = menu[j], xs[dp.states[k]].item()
        sets.append(CoverSet(center=(x + d / 2.0,), side=d))
        k = dp.jump[k, j]
    return RestrictedCover(sets, rng, s)


class _DyadicTree:
    """Occupied dyadic cells of a point cloud on levels top..bottom, built once.

    A point x lies in the level-j cell with integer code
    floor((x - origin) / scale * 2**j), clamped to 2**j - 1.  cells[i]
    holds the cells of level top + i in depth-first order (the top level
    lexicographic, then grouped by parent with siblings lexicographic), and
    parents[i] maps each cell of level top + i + 1 to its parent's row in
    cells[i].  Dyadic covers anchor the tree at the bounding box
    (_bbox_tree); the Frostman cap cascade at the unit box when the points
    lie in it (_cascade_tree).  dyadic_levels picks the levels of both.

    The build sorts the points once, stably, into depth-first order; in
    that order every cell of every level is one run of consecutive points,
    so each level is read off its run starts, and first_point (each bottom
    cell's least row in points) off the bottom level's.  Its integer work
    is shifts, sums and takes only: numpy's int64 comparison and bitwise
    loops are code nothing else in a dyadic solve runs, and paging it in
    cost about 0.3 MB of peak RSS.
    """

    def __init__(self, points: PointCloud, origin, scale: float, top: int, bottom: int):
        n = self.n = points.dimension_n
        self.scale, self.top, self.bottom = scale, top, bottom
        count, side = len(points), 2**bottom
        flat = points.array - origin  # then in place, rounded as (x - origin) / scale * side
        flat /= scale
        flat *= side
        codes = flat.astype(np.int64)
        del flat
        np.minimum(codes, side - 1, out=codes)
        # Sort keys, most significant first: one bit string of each axis's
        # top-level code, then each lower level's child bits (its code less
        # twice its parent's), axes in order; each field goes whole into an
        # int64 word of at most 63 bits.
        keys, free = [np.zeros(count, dtype=np.int64)], 63
        for level in range(top, bottom + 1):
            cell = codes >> (bottom - level)
            if level == top:
                fields, width = cell, top
            else:
                fields, width = parent, 1
                fields <<= 1
                np.subtract(cell, fields, out=fields)
            for field in fields.T:
                if width > free:
                    keys.append(np.zeros(count, dtype=np.int64))
                    free = 63
                keys[-1] <<= width
                keys[-1] += field
                free -= width
            parent = cell
        del cell, parent, fields
        order = np.lexsort(keys[::-1])
        del keys
        codes = codes.take(order, 0)
        self.cells, self.parents = [], []
        for level in range(top, bottom + 1):
            cell = codes >> (bottom - level)
            # a run starts where the level's code changes on some axis; the
            # copy puts each axis in one row, which any(0) reduces fast
            moved = (cell[1:] - cell[:-1]).astype(bool).T.copy()
            starts = np.ones(count, dtype=bool)
            starts[1:] = moved.any(0)
            rows = np.flatnonzero(starts)
            if level > top:  # the parent is the last parent run started so far
                self.parents.append(np.cumsum(parent_starts.take(rows)))
                self.parents[-1] -= 1
            self.cells.append(cell.take(rows, 0))
            parent_starts = starts
        # the sort is stable, so each bottom run starts at its cell's least row
        self.first_point = order.take(rows)

    def diameter(self, level: int) -> float:
        return self.scale * math.sqrt(self.n) * 2.0**-level

    def leaf_starts(self) -> list[np.ndarray]:
        """Per level, the first bottom-level row of each cell's (contiguous) descendants."""
        starts = [np.arange(len(self.cells[-1]))]
        for parent in reversed(self.parents):
            starts.insert(0, starts[0][np.flatnonzero(np.diff(parent, prepend=-1))])
        return starts

    def chosen(self, s: float) -> tuple[list[float], list[np.ndarray]]:
        """diam**s per level and the rows an optimal cover takes whole.

        Bottom-up, a cell costs min(diam**s, sum of its children's costs in
        row order); ties go to the larger cube.  Top-down, a cell is taken
        if diam**s is the smaller and no ancestor was taken.
        """
        powers = [self.diameter(self.top + i) ** s for i in range(len(self.cells))]
        cost = np.full(len(self.cells[-1]), powers[-1])
        takes = [np.ones(len(cost), dtype=bool)]
        for i in range(len(self.parents) - 1, -1, -1):
            split = np.bincount(self.parents[i], weights=cost)
            takes.insert(0, powers[i] <= split)
            cost = np.where(takes[0], powers[i], split)
        rows, open_ = [np.flatnonzero(takes[0])], ~takes[0]
        for parent, take in zip(self.parents, takes[1:]):
            open_ = open_[parent]
            rows.append(np.flatnonzero(open_ & take))
            open_ &= ~take
        return powers, rows

    def cost(self, s: float) -> float:
        """cover_cost of the optimal cover at s, without building its sets.

        With each diam**s written a / d (d a power of two), the sum of
        count * a / d over levels is an integer over the largest d; the
        integer true division rounds it once, correctly, as fsum does.
        """
        powers, rows = self.chosen(s)
        ratios = [p.as_integer_ratio() for p in powers]
        den = max(d for _, d in ratios)
        return sum(len(r) * a * (den // d) for (a, d), r in zip(ratios, rows)) / den

    # Every s is a full pass, so a bisection asks for one s per call.
    batch_size = 1

    def costs(self, ss) -> list[float]:
        return [self.cost(s) for s in ss]


def dyadic_levels(size: float, lo: float, hi: float) -> tuple[int, int]:
    """(top, bottom): coarsest level j with size * 2**-j <= hi (1 + 1e-12), finest with >= lo.

    bottom allows 1e-9 in log2, and is below top when no level fits.  size
    is a level-0 cube's side or diameter, whichever the band bounds.
    Differences of logarithms keep a ratio past the float range finite.
    """
    top = max(0, math.ceil(math.log2(size) - math.log2(hi) - 1e-9))
    while size * 2.0**-top > hi * (1.0 + 1e-12):
        top += 1
    return top, math.floor(math.log2(size) - math.log2(lo) + 1e-9)


def _bbox_tree(points: PointCloud, rng: ScaleRange) -> _DyadicTree:
    """The tree of optimal_cover_dyadic: bounding-box anchor, levels admissible for rng.

    Level j has diameter scale * sqrt(n) * 2**-j.
    """
    scale = points.side
    root_diam = scale * math.sqrt(points.dimension_n)
    top, bottom = dyadic_levels(root_diam, max(rng.lo, MIN_SCALE), rng.hi)
    if top > MAX_DEPTH:
        raise DepthLimitError(
            f"covering at diameter <= {rng.hi} needs dyadic level {top} > {MAX_DEPTH}"
        )
    # A band narrower than one dyadic step contains no dyadic diameter:
    # snap to the single level just below hi.
    bottom = max(min(bottom, MAX_DEPTH), top)
    return _DyadicTree(points, points.bbox[0], scale, top, bottom)


def _rescale(points: PointCloud):
    """The cap cascade's (origin, scale): the unit box if it holds the points, else the bbox."""
    mins, maxs = points.bbox
    if all(0.0 <= lo and hi <= 1.0 for lo, hi in zip(mins, maxs)):
        return (0.0,) * points.dimension_n, 1.0
    return mins, points.side


def _cascade_tree(points: PointCloud, lo: float, delta: float) -> _DyadicTree:
    """The cap cascade's tree, anchored by _rescale.

    Levels run from the coarsest of diameter <= delta to the finest of side >= lo.
    """
    origin, scale = _rescale(points)
    stop = dyadic_levels(scale * math.sqrt(points.dimension_n), lo, delta)[0]
    base = dyadic_levels(scale, lo, delta)[1]
    if stop > base:
        raise RangeTooNarrowError(
            f"no dyadic level fits: base level {base} (side >= {lo}) is coarser than stop {stop}"
        )
    if base > MAX_DEPTH:
        raise DepthLimitError(f"the cascade needs dyadic level {base} > {MAX_DEPTH}")
    return _DyadicTree(points, origin, scale, stop, base)


def optimal_cover_dyadic(
    points: PointCloud, rng: ScaleRange, s: float
) -> RestrictedCover:
    """Minimal-cost cover by dyadic cubes anchored at the bounding box.

    Exact over the dyadic family: cost(cube) = min(diam**s, sum over
    occupied children), evaluated bottom-up over levels whose diameters
    lie in the band.  theta=0 means unrestricted: levels run down to
    MAX_DEPTH / MIN_SCALE, whichever binds first.  Sets come in
    depth-first order, siblings lexicographic.
    """
    s = check_number(s, "s", 0, points.dimension_n, "[]")  # s = 0 minimizes the set count
    tree = _bbox_tree(points, rng)
    _, rows = tree.chosen(s)
    picks = []  # (first bottom-level row, set): sorting gives depth-first order
    for i, (start, r) in enumerate(zip(tree.leaf_starts(), rows)):
        side = tree.scale * 2.0 ** -(tree.top + i)
        for key, cell in zip(start[r].tolist(), tree.cells[i][r].tolist()):
            center = tuple(lo + (c + 0.5) * side for c, lo in zip(cell, points.bbox[0]))
            picks.append((key, CoverSet(center, side)))
    sets = [cube for _, cube in sorted(picks, key=lambda pick: pick[0])]
    return RestrictedCover(sets, rng, s, min(rng.lo, tree.diameter(tree.bottom)))


def cover_cost_function(points: PointCloud, rng: ScaleRange, scale_menu_size: int = 16):
    """One (delta, theta) cell's cover-cost solver, its structure built once.

    The solver's costs(ss) gives the optimal cover cost at each s in a
    list, and its batch_size how many s values one call should carry.
    1-D with theta > 0: the interval DP over the geometric menu, as in
    optimal_cover_1d, one pass for a batch of s.  Otherwise the dyadic
    tree, giving the cost optimal_cover_dyadic reports, one pass per s.
    """
    if points.dimension_n == 1 and rng.theta > 0.0:
        menu = geometric_menu(rng.lo, rng.hi, scale_menu_size)
        return _IntervalDP(points.array[:, 0], menu)
    return _bbox_tree(points, rng)


def refine_cover(cover: RestrictedCover, phi: float, new_delta: float) -> RestrictedCover:
    """Refit a cover to the narrower band of a larger restriction parameter.

    Sets already inside [new_delta**(1/phi), new_delta] are kept; larger
    sets are tiled by coordinate cubes of diameter new_delta, at most
    4**n * n**(n/2) * |U|**n * new_delta**(-n) pieces per set.
    """
    check_theta(phi)
    if phi <= cover.range.theta:
        raise ValidationError(
            f"need phi > cover theta, got phi={phi}, theta={cover.range.theta}"
        )
    new_rng = ScaleRange(new_delta, phi)
    if new_rng.lo > cover.effective_lo * (1.0 + 1e-9):
        raise ValidationError(
            "new band's lower end exceeds the old one; refinement only shrinks "
            "the upper end (derive new_delta from the same underlying delta)"
        )
    n = len(cover.sets[0].center)
    new_hi = new_rng.hi
    side = new_hi / math.sqrt(n)
    out = []
    for c in cover.sets:
        if c.diameter <= new_hi * (1.0 + 1e-12):
            out.append(c)
            continue
        starts = [x - c.side / 2.0 for x in c.center]
        for index in itertools.product(range(guarded_ceil(c.side / side)), repeat=n):
            center = tuple(x + (i + 0.5) * side for x, i in zip(starts, index))
            out.append(CoverSet(center, side))
    return RestrictedCover(out, new_rng, cover.s, min(new_rng.lo, cover.effective_lo))


def fp_witness_cover(
    p: float, delta: float, theta: float, s: float
) -> RestrictedCover:
    """Explicit near-optimal cover of {0} u {1/k**p} with diameters in [delta, delta**theta].

    M = ceil(delta**(-(s + theta(1-s))/(p+1))) intervals of length delta
    centred on the M largest points, plus intervals of length delta**theta
    tiling [0, M**-p].  Its cost stays bounded iff s >= theta/(p+theta).
    """
    p, s = check_number(p, "p", 0), check_number(s, "s", 0, 1)
    delta, theta = check_number(delta, "delta", 0, 1), check_number(theta, "theta", 0, 1, "(]")
    rng = ScaleRange(delta**theta, theta)  # band [delta, delta**theta]
    m_count = guarded_ceil(delta ** (-(s + theta * (1.0 - s)) / (p + 1.0)))
    sets = [CoverSet((k ** (-p),), delta) for k in range(1, m_count + 1)]
    tail_len = m_count ** (-p)
    big = delta**theta
    sets += [CoverSet(((j + 0.5) * big,), big) for j in range(guarded_ceil(tail_len / big))]
    # rng.lo is (delta**theta)**(1/theta), which can miss delta by an ulp
    return RestrictedCover(sets, rng, s, effective_lo=delta)
