"""Restricted-cover optimization: minimal-cost covers with diameters in a band.

Two optimizers: an exact dynamic program over interval covers drawn from a
geometric diameter menu (1-D), and an exact bottom-up pass over dyadic-cube
covers (any ambient dimension) on _DyadicTree, the dyadic cell tree the
Frostman cap cascade shares; covers anchor it at the bounding box.  Both
return the full cover, not just its cost, so admissibility and coverage
can be checked directly.  A cell's solver of cost(s) evaluates a batch
of s per call, and cell_solvers builds every cell's: an interval DP for
each group of dense cells and for each sparse cell, then for each dyadic
cell its band of levels in one bounding-box tree.  Every solver's
costs(*batches) takes one batch of s per cell and returns one list of
costs per nonempty batch.  A dyadic band also has bound(s, at), the cost
at s of the cover it chose at at, which bounds its cost at s from above,
and d_min, its least diameter, with which the cost at one s bounds the
cost at every larger s from beneath: the bisection settles most of its
steps with the two.  A band costs s = 0, and every s on a one-level
band, in closed form with no tree pass, and holds a cover at s = n from
the start, every cell of its bottom level, so that the bisection solves
n only when that cover is priced above the threshold.
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
)

# Most entries a diameter menu may hold, 64 times the default 16: the
# interval DP's jump table is points x menu entries.
MAX_MENU = 1024
# Bytes a dense group's cost table (every point's state x cells x 17
# values of s, float64) may take: 16 MiB, 3 cells of 41,120 states or 1
# of 123,361.  Its int32 jumps take another 64 bytes a state and cell at
# the default menu of 16, about 47% more.  A group holds at least one
# cell, so the 252,386 states of fp_points(1, 1e-6, theta_min=.25) take
# 34 MB alone.
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


def _menu_jumps(xs: np.ndarray, menu: tuple[float, ...]) -> np.ndarray:
    """Each point's jumps under menu, a (len(xs), len(menu)) int32 array.

    [i, j] is the first point an interval of diameter menu[j] from point i
    leaves uncovered: searchsorted(xs, xs + menu[j], side="right"), found
    by one stable argsort of xs followed by xs + menu[j], two sorted runs
    that timsort merges in linear time.  Ties keep xs first, so the
    position of xs[i] + menu[j] in the merge, less the i shifted points
    before it, counts the points at or below it.  Each entry's merge
    holds 2N floats and 2N indexes at a time.
    """
    n = len(xs)
    jumps, pair, shift = np.empty((n, len(menu)), dtype=np.int32), np.empty(2 * n), np.arange(n)
    pair[:n] = xs
    for j, d in enumerate(menu):
        np.add(xs, d, out=pair[n:])
        rank = np.flatnonzero(pair.argsort(kind="stable") >= n)
        np.subtract(rank, shift, jumps[:, j], casting="unsafe")
    return jumps


def _serial(xs: np.ndarray, menu: tuple[float, ...]) -> bool:
    """Whether menu's smallest diameter is below every gap between points.

    Then entry 0 leads from each point to the next, as a searchsorted of
    it would show: xs[i] + menu[0] < xs[i + 1], rounded alike.
    """
    return bool((xs[:-1] + menu[0] < xs[1:]).all())


def _reached(jumps: np.ndarray, enough: int | None = None) -> np.ndarray:
    """Which of the states 0..len(jumps) a menu's jumps reach from point 0, as a bool mask.

    With enough, the walk may stop once that many states are reached.
    It widens the jumps 64 rows at a time, as the pass does: an int32
    index costs a conversion on every call.  It steps from one reached
    state to the next, over a run of unreached ones with one argmax,
    which stops at the first reached state: every jump lands to the right
    of its state, so one always lies ahead.
    """
    reach = np.zeros(len(jumps) + 1, dtype=bool)
    reach[0] = True
    i = base = end = 0  # wide holds rows base..end - 1, as intp
    while i < len(jumps):
        if i >= end:
            if enough and np.count_nonzero(reach) >= enough:
                break
            base, end = i, i + 64
            wide = jumps[base:end].astype(np.intp)
        reach[wide[i - base]] = True
        i += 1
        if not reach[i]:
            i += int(reach[i:].argmax())
    return reach


class _IntervalDP:
    """Left-to-right DP over sorted points with one or more fixed diameter menus.

    State i = first uncovered point; transition places one interval of
    each menu diameter starting at point i.  An optimal interval cover can
    be shifted so each interval starts at the leftmost point it covers, so
    this explores a superset of canonical optimal covers.  Each menu is
    one cell's; a lone cell is a group of one.  The jumps are
    s-independent and built once.  A lone menu given its reach mask (a
    sparse cell's) keeps the states it reaches from point 0, so every
    jump of a kept state lands on a kept state; otherwise, a group or a
    dense cell alone, every point is kept.  states[k] is the point index of kept state k (the last is the
    terminal len(xs)), and jumps[c][k, j] is cells times the kept state
    entry j of menu c leads to from state k, plus c, the row of that
    state's menu-c costs in the pass's cost table read as (states *
    cells, s values); a lone menu's is the kept state.  Each menu's jumps
    are one int32 array, 4 bytes an entry, and a group's are its members'
    arrays as _menu_jumps computed them, not copied into one table: the
    pass widens them to one intp array 64 rows at a time (_rows), since
    take converts an int32 index on every call.  A menu shorter than the
    longest is padded with its last entry: the repeat adds a candidate
    equal to one already there, so every minimum keeps its bits.  One
    pass (table) gives each menu's optimal cost from every state; the
    estimator reads state 0's, and optimal_cover_1d reads the cover off
    the whole table.  columns and reach are what cell_solvers has
    computed once: each menu's _menu_jumps (None for a serial menu,
    computed here) and, for a lone menu that keeps only the states it
    reaches, its _reached mask; the build empties columns.

    A state reads only states to its right, the nearest of them its least
    entry-0 jump (the menus ascend), which is non-decreasing in k.  So the
    states split, greedily from the right, into runs [a, b) of at most
    max_run states whose jumps all land at or past b: a run reads only
    finished costs, and the pass fills it with one take, add and minimum.
    blocks lists the runs of two or more states, right to left; every
    other state is a run of its own, which the pass fills as a (menu x
    cells, s) array, cheaper to index than a (menu x cells, 1, s) one.
    Serial cells, whose smallest diameter is below the gaps between
    points, have no blocks, and there every state is reachable: the build
    skips the walk.  Dense cells, whose own DP keeps at least half of the
    states (every serial cell), share groups (cell_solvers), one pass a
    round for all the cells of a group.  A state a member does not reach
    feeds none it does, so each member's costs are those of its own DP
    bit for bit, and it at most doubles its states.

    A chain is a lone menu of one entry (theta = 1) whose every kept state
    leads to the next kept state: a sparse cell's, whose walk keeps only
    the states it steps on, or a serial cell's.  Its pass would add
    menu[0]**s to one state's costs at a time, right to left; a chain
    makes the same sums in one add.accumulate, which sums in order.  The
    build tells a chain by its jumps, not by its menu: a dense one-entry
    cell keeps every point, and a point it skips need not lead to the next.

    batch_size, the s values one table() call should carry per menu, is
    17 for every cell, alone or in a group.
    """

    # On a serial cell per-state numpy calls dominate a pass: at 17 values
    # of s it costs about 1.3 times one at a single s.  A bisection's
    # first batch holds the 2 endpoints and bisection depths 0..3 (17
    # values); from there it ends at depth 10 (1 / 2**10 <= 1e-3), a path
    # of 7 nodes, and the next batch holds the 17 nodes nearest the root
    # guessed from the costs in hand (estimate._walk_ahead), so a cell
    # takes 2 passes where the guess holds.  Narrower batches miss more:
    # against a 65-value level walk (2 passes), a guided walk took an
    # extra pass on 41 of 144 cell solves at 9 values and on 2 at 17 (12
    # cells each of fp_points(p, 1e-3, theta_min=.25), p = .5, 1 and 2,
    # and flog_points(1e-3), at thresholds .5, 1 and 3).
    batch_size = 17
    # States one run holds at most, and rows the pass widens at a time.
    # The pass's temporary is menu x the cell's longest run x batch_size
    # floats: none on a serial cell, at most 136 KiB at the default 16 x
    # 64 x 17.
    max_run = 64

    def __init__(self, xs: np.ndarray, *menus: tuple[float, ...], columns: list, reach=None):
        size, cells = max(map(len, menus)), len(menus)
        self.menus = tuple(menu + menu[-1:] * (size - len(menu)) for menu in menus)
        if reach is not None:  # a lone menu's own states
            self.states = np.flatnonzero(reach)
            jumps = columns.pop().take(self.states[:-1], 0)
            # in place: each entry is read once, just before it is written
            (np.cumsum(reach, dtype=np.int32) - 1).take(jumps, out=jumps, mode="clip")
            self.jumps = [jumps]
        else:  # every point is a state, its own rank
            self.states, self.jumps = np.arange(len(xs) + 1), []
            for c, menu in enumerate(menus):
                jumps = columns.pop(0)
                if jumps is None:
                    jumps = _menu_jumps(xs, menu)
                if len(menu) < size:  # padded with its last entry
                    jumps = jumps.take(np.minimum(np.arange(size), len(menu) - 1), 1)
                if cells > 1:
                    jumps *= cells
                    jumps += c
                self.jumps.append(jumps)
        # A chain: one menu of one entry, each kept state leading to the next
        chain = self.jumps[0][:, 0] == np.arange(1, len(self.states))
        self.chain = cells == size == 1 and bool(chain.all())
        # The run that ends at b starts at first[b], the first state whose
        # nearest jump lands at or past b, or max_run back.  first[b] ==
        # b - 1 is a run of one state; skip[b] is where a walk through such
        # runs from b stops, so the walk steps once per block.
        nearest = np.minimum.reduce([jumps[:, 0] for jumps in self.jumps]) // cells
        ends = np.arange(len(nearest) + 1)
        first = np.searchsorted(nearest, ends)
        skip = np.maximum.accumulate(np.where(first == ends - 1, 0, ends)).tolist()
        first = first.tolist()
        self.blocks, b = [], skip[-1]
        while b:
            a = max(first[b], b - self.max_run)
            self.blocks.append((a, b))
            b = skip[a]
        self._flat = np.empty(0)  # the passes' cost table, grown to the largest pass

    def _rows(self, live, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, menu, live menus) intp: the cost rows the jumps of states lo..hi - 1 read."""
        if len(self.jumps) == 1:
            return self.jumps[0][lo:hi, :, None].astype(np.intp)
        rows = np.empty((hi - lo, len(self.menus[0]), len(live)), dtype=np.intp)
        np.stack([self.jumps[c][lo:hi] for c in live], 2, rows)
        if len(live) < len(self.menus):  # renumber the live menus' rows
            rows //= len(self.menus)
            rows *= len(live)
            rows += np.arange(len(live))
        return rows

    def table(self, *batches) -> np.ndarray:
        """Optimal cost from each kept state at each s of each batch, in one right-to-left pass.

        One batch of s per menu; a menu whose batch is empty is left out.
        The others are padded with their last s to the longest batch,
        width values, and take width columns each, in menu order: a
        (states, cells * width) array, (states, len(ss)) for a lone menu.
        cost[k] = min over j of cost[jump[k, j]] + menu[j]**s, filled run
        by run.  No unreachable state feeds a kept one, so each cost
        equals the scalar DP's over every point bit for bit: the sums are
        the same sums, and a minimum is exact in any order.  The table is
        the DP's one buffer, which the next pass overwrites, so no pass
        leaves a hole in the heap that a later large table cannot use.
        """
        live = [c for c, ss in enumerate(batches) if len(ss)]
        width, cells, size = max(map(len, batches)), len(live), len(self.menus[0])
        padded = [list(batches[c]) + [batches[c][-1]] * (width - len(batches[c])) for c in live]
        menus = [self.menus[c] for c in live]
        powers = np.array(
            [[menu[j] ** s for s in ss] for j in range(size) for menu, ss in zip(menus, padded)]
        )
        need = len(self.states) * cells * width
        if self._flat.size < need:
            self._flat = np.empty(need)
        cost = self._flat[:need].reshape(len(self.states), -1)
        cost[-1] = 0.0  # the terminal state; the pass writes every other row
        if self.chain:  # the pass's sums cost[k + 1] + menu[0]**s, right to left
            np.add.accumulate(np.broadcast_to(powers, cost[:-1].shape), 0, out=cost[-2::-1])
            return cost
        rows = cost.reshape(-1, width)  # (states * cells, width): row k * cells + c is menu c's
        by_cell = cost.reshape(len(cost), cells, width)
        one, column = np.empty_like(powers), powers.reshape(size, 1, cells, width)
        by_menu = one.reshape(size, -1)  # row j: entry j of every live menu
        buf = np.empty(powers.size * max((b - a for a, b in self.blocks), default=0))
        top = base = len(cost) - 1  # wide holds the rows of states base and up
        for a, b in self.blocks + [(0, 0)]:  # the empty last block ends the pass at state 0
            for k in range(top - 1, b - 1, -1):  # the one-state runs above the block
                if k < base:
                    base = max(b, k + 1 - self.max_run)
                    wide = self._rows(live, base, k + 1).reshape(k + 1 - base, -1)
                rows.take(wide[k - base], 0, one, "clip")
                np.add(one, powers, one)
                np.minimum.reduce(by_menu, 0, out=cost[k])
            if a < b:  # entry-major, so the minimum runs over contiguous (b - a, cells, s) blocks
                cand = buf[: powers.size * (b - a)].reshape(size, b - a, cells, width)
                rows.take(self._rows(live, a, b).transpose(1, 0, 2), 0, cand, "clip")
                np.add(cand, column, cand)
                np.minimum.reduce(cand, 0, out=by_cell[a:b])
            top = a
        return cost

    def costs(self, *batches) -> list[list[float]]:
        """Each nonempty batch's optimal cover costs, in menu order: table's state-0 row."""
        width = max(map(len, batches))
        # lists, so that no view keeps this table alive while the next one is filled
        rows = self.table(*batches)[0].reshape(-1, width).tolist()
        return [row[: len(ss)] for row, ss in zip(rows, filter(len, batches))]


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
    larger set, as in optimal_cover_dyadic.  The DP is the cell's solver
    from cell_solvers, the one critical_exponent bisects on.
    """
    if points.dimension_n != 1:
        raise ValidationError("optimal_cover_1d needs a 1-D point cloud")
    s = check_number(s, "s", 0, 1, "[]")  # s = 0 minimizes the set count
    if rng.theta == 0.0:
        raise ValidationError("theta=0 has no finite menu; use optimal_cover_dyadic")
    xs = points.array[:, 0]
    ((_, dp),) = cell_solvers(points, [rng], scale_menu_size)
    (menu,), (jump,) = dp.menus, dp.jumps
    cost, powers = dp.table([s])[:, 0], np.array([d**s for d in menu])
    sets = []
    k = 0
    while k < len(jump):
        j = np.flatnonzero(cost.take(jump[k]) + powers == cost[k])[-1]
        d, x = menu[j], xs[dp.states[k]].item()
        sets.append(CoverSet(center=(x + d / 2.0,), side=d))
        k = jump[k, j]
    return RestrictedCover(sets, rng, s)


class _DyadicTree:
    """Occupied dyadic cells of a point cloud on levels top..bottom, built once.

    A point x lies in the level-j cell with integer code
    floor((x - origin) / scale * 2**j), clamped to 2**j - 1.  Dyadic
    covers anchor the tree at the bounding box (_bbox_tree); the Frostman
    cap cascade at the unit box when the points lie in it (_cascade_tree).
    dyadic_levels picks the levels of both.

    The tree stops at alone, the first level whose cells hold one point
    each (bottom if none does).  cells[i] holds the cells of level top + i
    <= alone in depth-first order (the top level lexicographic, then
    grouped by parent with siblings lexicographic), and parents[i] maps
    each cell of level top + i + 1 to its parent's row in cells[i].  Below
    alone every cell is a one-point chain down to bottom, so those levels
    are derived: level_cells shifts them from codes, the points' bottom
    codes in tree order, and each has the rows of the level above.

    The build sorts the points once, stably, into depth-first order; in
    that order every cell of every level is one run of consecutive points,
    so each level is read off its run starts, and first_point (each bottom
    cell's least row in points) off the last level's.  Its integer work
    is shifts, sums and takes only: numpy's int64 comparison and bitwise
    loops are code nothing else in a dyadic solve runs, and paging it in
    cost about 0.3 MB of peak RSS.

    One tree serves every band of levels inside its own: chosen and counts
    take any top..bottom within top..bottom, and give what a tree built
    on just those levels gives, bit for bit (see counts).
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
        self.codes = codes = codes.take(order, 0)
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
            if len(rows) == count:  # every point alone: the levels below are chains
                break
        self.alone = level
        # the sort is stable, so each run starts at its cell's least row
        self.first_point = order.take(rows)

    def diameter(self, level: int) -> float:
        return self.scale * math.sqrt(self.n) * 2.0**-level

    def width(self, level: int) -> int:
        """How many cells a level has: below alone, one a point, as at alone."""
        return len(self.cells[min(level, self.alone) - self.top])

    def level_cells(self, level: int) -> np.ndarray:
        """The cells of a level, in tree order: stored down to alone, shifted from codes below."""
        if level <= self.alone:
            return self.cells[level - self.top]
        return self.codes >> (self.bottom - level)

    def leaf_starts(self) -> list[np.ndarray]:
        """Per level, the first bottom-level row of each cell's (contiguous) descendants."""
        starts = [np.arange(len(self.first_point))] * (self.bottom - self.alone + 1)
        for parent in reversed(self.parents):
            starts.insert(0, starts[0][np.flatnonzero(np.diff(parent, prepend=-1))])
        return starts

    def chosen(self, s: float, top=None, bottom=None) -> tuple[list[float], list[np.ndarray]]:
        """diam**s per level top..bottom and a mask of the level_cells an optimal cover takes whole.

        The levels default to the tree's own.  Bottom-up, a cell costs
        min(diam**s, sum of its children's costs in row order); ties go to
        the larger cube.  Top-down, a cell is taken if diam**s is the
        smaller and no ancestor was taken.  The pass starts at leaf: the
        coarser of the band's bottom and alone, or the band's top if that
        is finer still.  Each leaf heads a chain of lone children down to
        bottom, which costs the least diam**s on it (a lone child's sum is
        its cost) and is taken at the topmost level attaining it, so the
        leaves' open rows go to that level.
        """
        top = self.top if top is None else top
        bottom = self.bottom if bottom is None else bottom
        powers = [self.diameter(level) ** s for level in range(top, bottom + 1)]
        leaf = max(top, min(bottom, self.alone))
        chain = powers[leaf - top :]
        least = min(chain)
        count = self.width(leaf)
        cost = np.full(count, least)
        parents = self.parents[top - self.top : leaf - self.top]
        takes = [np.ones(count, dtype=bool)]
        for i in range(len(parents) - 1, -1, -1):
            split = np.bincount(parents[i], weights=cost)
            takes.insert(0, powers[i] <= split)
            cost = np.where(takes[0], powers[i], split)
        masks, open_ = [takes[0]], ~takes[0]
        for parent, take in zip(parents, takes[1:]):
            open_ = open_[parent]
            masks.append(open_ & take)
            open_ &= ~take
        masks += [np.zeros(count, dtype=bool)] * (bottom - leaf)  # below leaf, count cells a level
        pick = leaf - top + chain.index(least)
        masks[leaf - top], masks[pick] = masks[pick], masks[leaf - top]
        return powers, masks

    def counts(self, s: float, top=None, bottom=None) -> tuple[list[float], list[int]]:
        """diam**s per level top..bottom and how many cells of each the optimal cover at s takes.

        _level_sum of the two is the cover's cover_cost, without building
        its sets.  A band's counts are those of a tree built on the band:
        a cell's children, and their order, are the same in both, and
        only the order of the band's top level differs.
        """
        powers, masks = self.chosen(s, top, bottom)
        return powers, [int(np.count_nonzero(mask)) for mask in masks]


def _level_sum(powers, counts) -> float:
    """sum of count * power over levels, rounded once, as fsum rounds it.

    With each power written a / d (d a power of two), the sum is an
    integer over the largest d, and the integer true division rounds it
    once, correctly.
    """
    ratios = [p.as_integer_ratio() for p in powers]
    den = max(d for _, d in ratios)
    return sum(n * a * (den // d) for (a, d), n in zip(ratios, counts)) / den


@dataclass(frozen=True)
class _DyadicBand:
    """A dyadic cell's cover-cost solver: the levels top..bottom of a _DyadicTree.

    level_counts holds, by s, the per-level counts of the cover each
    costs() call chose, so that bound can price that cover at any other s.
    A fresh band holds one cover already, at s = float(n): every cell of
    its bottom level, a cover whatever the cost there; a pass at n
    replaces it.  Every cube of the band has diameter at least d_min, so
    for s > s' the cost at s is at least d_min**(s - s') times the cost at
    s'.  With bound, this settles a bisection step on either side of the
    threshold with no pass (estimate._bisection).  At s = 0 and on a
    one-level band costs() takes no pass either, so the dyadic-2d
    spectrum takes 10 tree passes where the bound-free bisection asks 84
    s, and a one-level band (theta = 1) takes none.
    """

    tree: _DyadicTree
    top: int
    bottom: int
    level_counts: dict = field(default_factory=dict, repr=False, compare=False)

    # Every s is a full pass, so a bisection asks for one s per call.
    batch_size = 1

    def __post_init__(self) -> None:
        # the cover in hand at s = n before any pass: every cell of the bottom level
        bottom_cells = [0] * (self.bottom - self.top) + [self.tree.width(self.bottom)]
        self.level_counts[float(self.tree.n)] = bottom_cells

    def costs(self, ss) -> list[list[float]]:
        """costs(*batches) of a lone cell: [its costs at the s in ss].

        At s = 0, and at every s on a one-level band, the optimal cover is
        the top level's cells (ties go to the larger cube), so no tree pass
        runs: its count is priced once, as counts and bound price it.
        """
        out = []
        for s in ss:
            if s == 0.0 or self.top == self.bottom:
                powers = [self.tree.diameter(self.top) ** s]
                counts = [self.tree.width(self.top)] + [0] * (self.bottom - self.top)
            else:
                powers, counts = self.tree.counts(s, self.top, self.bottom)
            self.level_counts[s] = counts
            out.append(_level_sum(powers, counts))
        return [out]

    def bound(self, s: float, at: float) -> float:
        """The cost at s of the cover costs() chose at at: an upper bound on the cost at s.

        Rounded once, as the cost is, so bound(at, at) is cost(at) bit
        for bit; a level the cover leaves empty adds nothing, so its
        diam**s is not computed.
        """
        counts = self.level_counts[at]
        powers = [self.tree.diameter(self.top + i) ** s if n else 0.0 for i, n in enumerate(counts)]
        return _level_sum(powers, counts)

    @property
    def d_min(self) -> float:
        """The band's least diameter, its bottom level's."""
        return self.tree.diameter(self.bottom)


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


def _bbox_levels(points: PointCloud, rng: ScaleRange) -> tuple[int, int]:
    """(top, bottom): the levels of optimal_cover_dyadic's tree, those admissible for rng.

    Level j has diameter points.side * sqrt(n) * 2**-j.
    """
    root_diam = points.side * math.sqrt(points.dimension_n)
    top, bottom = dyadic_levels(root_diam, max(rng.lo, MIN_SCALE), rng.hi)
    if top > MAX_DEPTH:
        raise DepthLimitError(
            f"covering at diameter <= {rng.hi} needs dyadic level {top} > {MAX_DEPTH}"
        )
    # A band narrower than one dyadic step contains no dyadic diameter:
    # snap to the single level just below hi.
    return top, max(min(bottom, MAX_DEPTH), top)


def _bbox_tree(points: PointCloud, rng: ScaleRange) -> _DyadicTree:
    """The tree of optimal_cover_dyadic: bounding-box anchor, levels admissible for rng."""
    return _DyadicTree(points, points.bbox[0], points.side, *_bbox_levels(points, rng))


def _rescale(points: PointCloud):
    """The cap cascade's (origin, scale): the unit box if it holds the points, else the bbox."""
    mins, maxs = points.bbox
    if all(0.0 <= lo and hi <= 1.0 for lo, hi in zip(mins, maxs)):
        return (0.0,) * points.dimension_n, 1.0
    return mins, points.side


def _cascade_tree(points: PointCloud, lo: float, delta: float) -> tuple:
    """The cap cascade's tree as _DyadicTree's arguments after points: (origin, scale, top, bottom).

    The anchor is _rescale's.  Levels run from the coarsest of diameter
    <= delta to the finest of side >= lo.
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
    return origin, scale, stop, base


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
    _, masks = tree.chosen(s)
    picks = []  # (first bottom-level row, set): sorting gives depth-first order
    for level, start, r in zip(itertools.count(tree.top), tree.leaf_starts(), masks):
        side = tree.scale * 2.0**-level
        for key, cell in zip(start[r].tolist(), tree.level_cells(level)[r].tolist()):
            center = tuple(lo + (c + 0.5) * side for c, lo in zip(cell, points.bbox[0]))
            picks.append((key, CoverSet(center, side)))
    sets = [cube for _, cube in sorted(picks, key=lambda pick: pick[0])]
    return RestrictedCover(sets, rng, s, min(rng.lo, tree.diameter(tree.bottom)))


def cell_solvers(points: PointCloud, ranges, scale_menu_size: int = 16):
    """Every cell's cover-cost solver, built once: (cells, solver) for each group that shares one.

    1-D cells with theta > 0 solve on interval DPs over their geometric
    menus, and come first.  A cell is serial when its smallest diameter
    is below every gap between points (_serial): its DP keeps every point
    as a state.  It is dense when its own DP keeps at least half of the
    len(xs) + 1 states, as every serial cell does.  Dense cells share
    groups, serial ones first, each of as many cells as fit TABLE_BUDGET
    at batch_size (17) values of s on every point, and at least one: 19
    at 6,341 points, 3 at 40,001, 1 above 61,679.  A group keeps every
    point as a state, so a dense cell's walk (_reached) stops once it has
    reached half of them.  Every other cell is sparse: its walk runs to
    the end, and it comes alone, as soon as the walk shows it, on a DP
    over the states it reaches.  A cell's jumps (_menu_jumps) and walk are
    computed once and serve both the decision and its DP; a serial cell
    needs no walk, and its jumps are computed when its group's DP is
    built.  At most one open group's jumps are held at a time, and a DP
    is built only once the caller has let go of the last one, as
    estimate._critical_exponents does: at most one DP is alive at a time.

    Every other cell is dyadic.  Its levels are read in the first loop
    over ranges, so a cell past MAX_DEPTH raises DepthLimitError before
    any solver is built.  After the DP groups, one bounding-box tree is
    built over the levels of every dyadic cell, from the coarsest top to
    the finest bottom, and each cell comes alone, in order, as its band
    of levels in it, giving the cost optimal_cover_dyadic reports, one
    pass per s.
    """
    xs, menus, dyadic = points.array[:, 0], {}, {}
    for rng in ranges:
        if points.dimension_n > 1 or rng.theta == 0.0:
            dyadic[rng] = _bbox_levels(points, rng)  # past MAX_DEPTH: DepthLimitError
        else:
            menus[rng] = geometric_menu(rng.lo, rng.hi, scale_menu_size)
    serial = {rng for rng, menu in menus.items() if _serial(xs, menu)}
    half = (len(xs) + 2) // 2  # half of the len(xs) + 1 states, rounded up
    size = max(1, TABLE_BUDGET // ((len(xs) + 1) * _IntervalDP.batch_size * 8))
    group, columns = [], []  # the open group: its cells, their jumps (None: built with its DP)
    for rng in sorted(menus, key=lambda rng: rng not in serial):
        if rng in serial:
            columns.append(None)
        else:
            columns.append(_menu_jumps(xs, menus[rng]))
            reach = _reached(columns[-1], half)
            if np.count_nonzero(reach) < half:  # sparse: the walk ran to its end
                yield [rng], _IntervalDP(xs, menus[rng], columns=[columns.pop()], reach=reach)
                continue
        group.append(rng)
        if len(group) == size:
            yield group, _IntervalDP(xs, *map(menus.get, group), columns=columns)
            group = []
    if group:
        yield group, _IntervalDP(xs, *map(menus.get, group), columns=columns)
    if dyadic:
        tops, bottoms = zip(*dyadic.values())
        tree = _DyadicTree(points, points.bbox[0], points.side, min(tops), max(bottoms))
    for rng, (top, bottom) in dyadic.items():
        yield [rng], _DyadicBand(tree, top, bottom)


def refine_cover(cover: RestrictedCover, phi: float, new_delta: float) -> RestrictedCover:
    """Refit a cover to the narrower band of a larger restriction parameter.

    Sets already inside [new_delta**(1/phi), new_delta] are kept; larger
    sets are tiled by coordinate cubes of diameter new_delta, at most
    4**n * n**(n/2) * |U|**n * new_delta**(-n) pieces per set.
    """
    phi = check_number(phi, "phi", 0, 1, "[]")
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


def _fp_witness_count(p: float, delta: float, theta: float, s: float) -> int:
    """M = ceil(delta**(-(s + theta(1-s))/(p+1))), the points 1/k**p the fp witnesses single out."""
    return guarded_ceil(delta ** (-(s + theta * (1.0 - s)) / (p + 1.0)))


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
    m_count = _fp_witness_count(p, delta, theta, s)
    sets = [CoverSet((k ** (-p),), delta) for k in range(1, m_count + 1)]
    tail_len = m_count ** (-p)
    big = delta**theta
    sets += [CoverSet(((j + 0.5) * big,), big) for j in range(guarded_ceil(tail_len / big))]
    # rng.lo is (delta**theta)**(1/theta), which can miss delta by an ulp
    return RestrictedCover(sets, rng, s, effective_lo=delta)
