"""Independent oracles and reference implementations used by the test suite.

The carpet oracles recompute every closed form with 60-digit mpmath
arithmetic from the raw digit set; the menu oracle enumerates all
partition-based interval covers.  Neither shares code with the library
paths they check.  The reference implementations are the straightforward
loop forms of vectorized or batched library code (tuple-of-tuples point
ingestion, the per-word carpet corners, the scalar interval DP over
every point, the per-state pass of the batched interval DP, the
recursive dyadic solver, the per-level np.unique dyadic cell tree, the
one-s-at-a-time bisection, the dict-grouped cap cascade, the full-scan
ball mass) and second closed-form routes to carpet quantities; the
library must match them exactly or to rounding.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np

from dimspect import CoverSet, RestrictedCover, mcmullen_weights
from dimspect.carpet import row_depth
from dimspect.covers import _bbox_tree
from dimspect.estimate import BISECTION_TOL

mp.mp.dps = 60


def tuple_from_points(points):
    """Reference ingestion: (rows, bbox) of PointCloud.from_points as tuples.

    float per coordinate, a set for deduplication (it keeps the first of
    rows equal up to zero signs), sorted for order, and Python's min and
    max per axis over the sorted rows for the bounding box.
    """
    pts = sorted(set(tuple(float(c) for c in p) for p in points))
    n = len(pts[0])
    mins = tuple(min(p[i] for p in pts) for i in range(n))
    maxs = tuple(max(p[i] for p in pts) for i in range(n))
    return tuple(pts), (mins, maxs)


def loop_carpet_points(spec, depth: int) -> list[tuple[float, float]]:
    """Reference carpet corners: one word of digits at a time, in word order."""
    pts = []
    for word in itertools.product(spec.digits, repeat=depth):
        x = y = 0.0
        mw = nw = 1.0
        for p, q in word:
            mw /= spec.m
            nw /= spec.n
            x += p * mw
            y += q * nw
        pts.append((x, y))
    return pts


def mp_carpet(m: int, n: int, digits):
    """High-precision box dimension, Hausdorff dimension and entropy."""
    m_mp, n_mp = mp.mpf(m), mp.mpf(n)
    counts = {}
    for p, _ in digits:
        counts[p] = counts.get(p, 0) + 1
    m0 = len(counts)
    size = len(digits)
    L = mp.log(m_mp) / mp.log(n_mp)
    box = mp.log(m0) / mp.log(m_mp) + (mp.log(size) - mp.log(m0)) / mp.log(n_mp)
    total = mp.fsum(mp.mpf(c) ** L for c in counts.values())
    d = mp.log(total) / mp.log(m_mp)
    md = m_mp**d
    weights = [mp.mpf(counts[p]) ** (L - 1) / md for p, _ in digits]
    H = -mp.fsum(b * mp.log(b) for b in weights)
    identity = mp.fsum(mp.mpf(counts[p]) ** (L - 1) for p, _ in digits)
    return {
        "box": box,
        "hausdorff": d,
        "entropy": H,
        "weight_sum": mp.fsum(weights),
        "identity_lhs": identity,
        "identity_rhs": md,
    }


def brute_force_menu_cost(xs, menu, s: float) -> float:
    """Exhaustive minimum of sum(d**s) over partition-based menu covers.

    Every cover of collinear points can be normalized so each interval
    starts at the leftmost point it covers, splitting the sorted points
    into consecutive runs; enumerate all 2**(n-1) run structures and every
    admissible menu diameter per run (for s > 0 the cheapest admissible
    diameter per run is the smallest one).
    """
    xs = sorted(xs)
    n = len(xs)
    best = None
    for mask in range(1 << (n - 1)):
        runs, start = [], 0
        for i in range(n - 1):
            if mask & (1 << i):
                runs.append((start, i))
                start = i + 1
        runs.append((start, n - 1))
        diams = []
        feasible = True
        for a, b in runs:
            span = xs[b] - xs[a]
            options = [d for d in menu if d >= span - 1e-15]
            if not options:
                feasible = False
                break
            diams.append(min(options))
        if not feasible:
            continue
        cost = math.fsum(d**s for d in diams)
        key = (cost, len(diams), tuple(-d for d in sorted(diams, reverse=True)))
        if best is None or key < best:
            best = key
    if best is None:
        raise AssertionError("no feasible cover in brute force")
    return best[0]


class ScalarIntervalDP:
    """Reference interval DP: one s per pass over every point, reachable or not.

    State i = first uncovered point; transition places one interval of
    each menu diameter starting at point i.  jump[j][i] is the state menu
    entry j leads to from state i.
    """

    def __init__(self, xs, menu):
        self.xs = xs
        self.menu = menu
        arr = np.asarray(xs)
        self.jump = [
            np.searchsorted(arr, arr + d, side="right").tolist() for d in menu
        ]

    def solve(self, s: float) -> tuple[float, list[int]]:
        """Return (optimal cost, chosen menu index per DP state).

        Ties broken toward the larger diameter.
        """
        n = len(self.xs)
        powers = [d**s for d in self.menu]
        cost = [0.0] * (n + 1)
        choice = [-1] * (n + 1)
        for i in range(n - 1, -1, -1):
            best = None
            for j in range(len(self.menu) - 1, -1, -1):
                cand = (cost[self.jump[j][i]] + powers[j], -self.menu[j])
                if best is None or cand < best:
                    best = cand
                    choice[i] = j
            cost[i] = best[0]
        return cost[0], choice

    def cost(self, s: float) -> float:
        return self.solve(s)[0]

    def cover(self, s: float) -> list[tuple[float, float]]:
        """(left end, diameter) of each interval of the tie-broken optimal cover."""
        _, choice = self.solve(s)
        picks, i = [], 0
        while i < len(self.xs):
            picks.append((self.xs[i], self.menu[choice[i]]))
            i = self.jump[choice[i]][i]
        return picks


def serial_interval_table(dp, ss) -> np.ndarray:
    """Reference pass of covers._IntervalDP.table: one kept state at a time, right to left.

    Each state's costs take one take, add and minimum over the menu, from
    the costs of the states its jumps land on, all already final.
    """
    powers = np.array([[d**s for s in ss] for d in dp.menu])
    cost = np.zeros((len(dp.states), len(ss)))
    cand = np.empty_like(powers)
    for k in range(len(dp.jump) - 1, -1, -1):
        cost.take(dp.jump[k], 0, cand, "clip")
        np.add(cand, powers, cand)
        np.minimum.reduce(cand, 0, out=cost[k])
    return cost


def sequential_critical_exponent(cost, n: float, threshold: float) -> tuple[float, float]:
    """Reference root finder: (s*, cost(s*)) by bisection, one cost(s) call at a time."""
    if cost(0.0) <= threshold * (1.0 + 1e-12):
        return 0.0, cost(0.0)
    if cost(n) > threshold:
        return n, cost(n)
    lo, hi = 0.0, n
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if cost(mid) > threshold:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    return s_star, cost(s_star)


def unique_dyadic_tree(points, origin, scale: float, top: int, bottom: int):
    """Reference dyadic cell tree: np.unique per level, then a stable sort per level.

    Returns (cells, parents, first_point) as covers._DyadicTree holds them:
    cells[i] the occupied cells of level top + i in depth-first order,
    parents[i] each level top + i + 1 cell's parent row in cells[i], and
    first_point the least row in points of each bottom cell.
    """
    side = 2**bottom
    codes = (np.asarray(points.points) - np.asarray(origin)) / scale * side
    leaves, first = np.unique(
        np.minimum(codes.astype(np.int64), side - 1), axis=0, return_index=True
    )
    cells, parents = [leaves], []
    for _ in range(bottom - top):
        up, parent = np.unique(cells[0] >> 1, axis=0, return_inverse=True)
        cells.insert(0, up)
        parents.insert(0, parent.reshape(-1))
    # np.unique leaves each level lexicographic; a stable sort by the
    # reordered parent rows makes it depth-first, top-down.
    order = np.arange(len(cells[0]))
    for i in range(1, len(cells)):
        row = np.empty_like(order)
        row[order] = np.arange(len(order))
        parent = row[parents[i - 1]]
        order = np.argsort(parent, kind="stable")
        cells[i], parents[i - 1] = cells[i][order], parent[order]
    return cells, parents, first[order]


def recursive_dyadic_cover(points, rng, s: float):
    """Reference dyadic solver: the top-down recursion with per-call grouping.

    cost(cube) = min(diam**s, sum over occupied children, summed in
    lexicographic child order); ties go to the single larger cube.  It
    takes only the bounding-box anchor and the admissible levels from
    optimal_cover_dyadic's tree, so covers and costs must match exactly.
    """
    n = points.dimension_n
    mins = points.bbox[0]
    tree = _bbox_tree(points, rng)
    scale, j_top, j_bot = tree.scale, tree.top, tree.bottom

    def diam(level: int) -> float:
        return scale * math.sqrt(n) * 2.0**-level

    top = 2**j_bot
    scaled = (np.asarray(points.points) - np.asarray(mins)) / scale
    grid_idx = np.minimum((scaled * top).astype(np.int64), top - 1)
    cells_bot = [tuple(map(int, row)) for row in grid_idx]

    def solve(level, ids):
        cell = tuple(c >> (j_bot - level) for c in cells_bot[ids[0]])
        take = (diam(level) ** s, 1, [(level, cell)])
        if level == j_bot:
            return take
        groups = {}
        shift = j_bot - level - 1
        for i in ids:
            groups.setdefault(tuple(c >> shift for c in cells_bot[i]), []).append(i)
        split_cost, split_count, split_sets = 0.0, 0, []
        for key in sorted(groups):
            c_cost, c_count, c_sets = solve(level + 1, groups[key])
            split_cost += c_cost
            split_count += c_count
            split_sets.extend(c_sets)
        if (take[0], take[1]) <= (split_cost, split_count):
            return take
        return split_cost, split_count, split_sets

    groups_top = {}
    shift = j_bot - j_top
    for i in range(len(points.points)):
        groups_top.setdefault(tuple(c >> shift for c in cells_bot[i]), []).append(i)
    chosen = []
    for key in sorted(groups_top):
        chosen.extend(solve(j_top, groups_top[key])[2])

    sets = []
    for level, cell in chosen:
        side = scale * 2.0**-level
        center = tuple(lo + (c + 0.5) * side for c, lo in zip(cell, mins))
        sets.append(CoverSet(center, side))
    return RestrictedCover(sets, rng, s, effective_lo=min(rng.lo, diam(j_bot)))


def entropy_displayed(spec) -> float:
    """Carpet entropy by the displayed closed form.

    -m**-d * sum a**(L-1) ((L-1) log a - d log m), a second route to
    dimspect.entropy from the same McMullen weights.
    """
    der = mcmullen_weights(spec)
    md = spec.m**der.d
    return -math.fsum(
        a ** (der.L - 1.0) * ((der.L - 1.0) * math.log(a) - der.d * math.log(spec.m))
        for a in der.a_ell
    ) / md


def rectangle_measure(derived, word) -> float:
    """Measure of the level-k rectangle addressed by a digit word: product of weights."""
    measure = 1.0
    for digit in word:
        measure *= derived.weight(tuple(digit))
    return measure


def approx_square_measure_alt(spec, word) -> float:
    """Approximate-square measure by the rectangle-count route.

    m**(-k d) * prod_j a_j**(L-1) * prod_{j > l(k)} a_j, a second route to
    dimspect.approx_square_measure.
    """
    word = [tuple(digit) for digit in word]
    der = mcmullen_weights(spec)
    digit_index = {digit: i for i, digit in enumerate(spec.digits)}
    a_seq = [der.a_ell[digit_index[digit]] for digit in word]
    k = len(word)
    l_k = row_depth(k, der.L)
    log_mu = -k * der.d * math.log(spec.m)
    log_mu += (der.L - 1.0) * math.fsum(math.log(a) for a in a_seq)
    log_mu += math.fsum(math.log(a) for a in a_seq[l_k:])
    return math.exp(log_mu)


def loop_cap_cascade(points, s: float, base: int, stop: int, origin, scale: float):
    """Reference cap cascade: dict-grouped loops over the base cubes.

    Returns (atoms, norm, level_masses) as build_frostman_measure builds
    them: one atom per occupied base cube at its least point, in the order
    those points appear in the sorted cloud.
    """
    top = 2**base
    cells = {}
    reps, cell_idx = [], []
    for p in points.points:
        idx = tuple(min(int((c - o) / scale * top), top - 1) for c, o in zip(p, origin))
        if idx not in cells:
            cells[idx] = len(reps)
            reps.append(p)
            cell_idx.append(idx)
    masses = [2.0 ** (-base * s)] * len(reps)
    for level in range(base - 1, stop - 1, -1):
        groups = {}
        for i, idx in enumerate(cell_idx):
            groups.setdefault(tuple(c >> (base - level) for c in idx), []).append(i)
        cap = 2.0 ** (-level * s)
        for members in groups.values():
            total = math.fsum(masses[i] for i in members)
            if total > cap:
                for i in members:
                    masses[i] *= cap / total
    level_masses = {}
    for level in range(stop, base + 1):
        agg = {}
        for i, idx in enumerate(cell_idx):
            key = tuple(c >> (base - level) for c in idx)
            agg[key] = agg.get(key, 0.0) + masses[i]
        level_masses[level] = agg
    norm = math.fsum(masses)
    atoms = [(p, m / norm) for p, m in zip(reps, masses)]
    return atoms, norm, level_masses


def full_scan_ball_mass(atoms, x, r: float) -> float:
    """Reference ball mass: the exact distance test on every atom."""
    r2 = r * r
    return math.fsum(
        m for p, m in atoms if math.fsum((a - b) ** 2 for a, b in zip(p, x)) <= r2
    )
