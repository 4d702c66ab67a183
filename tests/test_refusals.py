"""Refuse, then solve: every refusal of an input comes before the first solver, tree or probe.

Each test draws inputs, some of them invalid, for one entry point on 1-D
and 2-D clouds, and compares what it raises with what a validate-first
reference raises.  A reference reads every input in the entry point's
documented order and builds nothing: no interval DP, no dyadic tree, no
ball-mass probe.  A call that raises must raise the reference's error,
type and message, and must have run no _IntervalDP.table,
_DyadicTree.__init__ or frostman._ball_masses.
"""

from __future__ import annotations

import collections
import contextlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspect import (
    AtomicMeasure,
    DimspectError,
    EstimateNotMonotoneError,
    PointCloud,
    ScaleRange,
    ScaleRangeTooDeepError,
    ValidationError,
    build_frostman_measure,
    check_mdp,
    critical_exponent,
    estimate_spectrum,
)
from dimspect import covers, frostman
from dimspect.core import check_number, theta_grid
from dimspect.covers import MAX_MENU, _bbox_levels, _cascade_tree
from dimspect.frostman import MAX_BALL_SAMPLES
from conftest import point_clouds

# 1-D and 2-D clouds
CLOUDS = st.integers(1, 2).flatmap(lambda n: point_clouds(max_points=12, dimension=n))
# and some of them widened to a side of 4, on which a cascade's base level
# can pass MAX_DEPTH
WIDE_CLOUDS = st.one_of(
    CLOUDS,
    CLOUDS.map(lambda c: PointCloud.from_points([*c.points, tuple(x + 4.0 for x in c.bbox[0])])),
)
THRESHOLDS = st.one_of(st.just(1.0), st.sampled_from([0.5, 3.0, 0.0, -1.0, math.nan, math.inf]))
MENUS = st.one_of(st.just(16), st.sampled_from([4, 2, 1, 0, MAX_MENU + 1, 3.5]))
# theta = 0.05 leaves a row of deltas of at most 0.1 empty, 0.001 every
# row; delta = 1e-13 and 1e-14 lie past MAX_DEPTH at theta = 0 on a box of
# side above 0.1.  One strategy in three always puts theta = 0 in the
# grid, and one always ends the delta list at a deep delta.
VALID_THETAS = [0.0, 0.05, 0.001, 0.5, 1.0, 0.25]
VALID_DELTAS = [0.5, 0.1, 0.03, 1e-2, 1e-3]
DEEP_DELTAS = [1e-13, 1e-14]
GRIDS = st.one_of(
    st.lists(st.sampled_from(VALID_THETAS[1:]), min_size=1, max_size=2, unique=True).map(
        lambda grid: [0.0, *grid]
    ),
    st.lists(st.sampled_from(VALID_THETAS), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, -0.1, 1.5, math.nan]), min_size=1, max_size=3),
)
DELTA_LISTS = st.one_of(
    st.tuples(
        st.lists(st.sampled_from(VALID_DELTAS), min_size=2, max_size=3, unique=True),
        st.sampled_from(DEEP_DELTAS),
    ).map(lambda t: [*sorted(t[0], reverse=True), t[1]]),
    st.lists(st.sampled_from(VALID_DELTAS), min_size=3, max_size=4, unique=True).map(
        lambda deltas: sorted(deltas, reverse=True)
    ),
    st.lists(st.sampled_from([0.5, 0.1, 1e-3, 0.0, 1.2, math.nan]), min_size=1, max_size=4),
)
CELLS = st.one_of(
    st.tuples(st.sampled_from(DEEP_DELTAS), st.just(0.0)),
    st.tuples(st.sampled_from(VALID_DELTAS), st.sampled_from(VALID_THETAS)),
    st.tuples(
        st.sampled_from([*VALID_DELTAS, *DEEP_DELTAS, 0.0, 1.2]),
        st.sampled_from([*VALID_THETAS, -0.1, 1.5, math.nan]),
    ),
)
# (delta, theta) for a cascade: its band, one too narrow for a dyadic level
# (delta = 0.05 at theta = 1), one below MIN_SCALE (theta = 0.45), and one
# whose base level passes MAX_DEPTH on a box of side above 2 (delta = 1e-6)
CASCADES = st.one_of(
    st.tuples(st.sampled_from([0.5, 0.05, 1e-3]), st.sampled_from([0.5, 0.9])),
    st.sampled_from([(0.05, 1.0), (1e-6, 0.45), (1e-6, 0.5), (0.0, 0.5), (0.05, 0.0)]),
)


@contextlib.contextmanager
def counted_builds():
    """A Counter of the interval-DP passes, dyadic trees and ball-mass probes run inside."""
    counts = collections.Counter()

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        patch.setattr(owner, name, wrapper)

    with pytest.MonkeyPatch.context() as patch:
        counting(covers._IntervalDP, "table")
        counting(covers._DyadicTree, "__init__")
        counting(frostman, "_ball_masses")
        yield counts


def refused(reference, *args) -> DimspectError | None:
    """The error reference(*args) raises, or None."""
    try:
        reference(*args)
    except DimspectError as exc:
        return exc
    return None


def assert_refuses_first(call, expected: DimspectError | None, *allowed) -> None:
    """call raises expected, type and message, having built nothing; or, with expected None,
    succeeds or raises one of allowed (a refusal of what the solve found)."""
    with counted_builds() as counts:
        try:
            call()
        except DimspectError as exc:
            if expected is None and isinstance(exc, allowed):
                return
            assert (type(exc), str(exc)) == (type(expected), str(expected))
            assert counts == {}
            return
    assert expected is None


def read_options(threshold, menu) -> None:
    check_number(threshold, "threshold", 0)
    check_number(menu, "entries in the scale menu", 2, MAX_MENU, "[]", integral=True)


def read_levels(points, cells) -> None:
    """Each dyadic cell's levels: DepthLimitError for one past MAX_DEPTH."""
    for rng in cells:
        if points.dimension_n > 1 or rng.theta == 0.0:
            _bbox_levels(points, rng)


def estimate_reference(points, grid, deltas, threshold, menu) -> None:
    """estimate_spectrum's refusals in order: grid, deltas, each row, options, levels."""
    thetas = theta_grid(grid)
    deltas = [check_number(d, "delta", 0, 1) for d in deltas]
    if len(deltas) < 3:
        raise ValidationError("need at least 3 deltas")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValidationError("delta sequence must be strictly decreasing")
    cells = []
    for theta in thetas:
        row = []
        for delta in deltas:
            with contextlib.suppress(ScaleRangeTooDeepError):
                row.append(ScaleRange(delta, theta))
        if not row:
            raise ScaleRangeTooDeepError(
                f"no admissible delta at theta={theta}: "
                f"delta**(1/theta) falls below MIN_SCALE for every delta"
            )
        cells += row
    read_options(threshold, menu)
    read_levels(points, cells)


def critical_reference(points, delta, theta, threshold, menu) -> None:
    """critical_exponent's refusals in order: the options, the band, the levels."""
    read_options(threshold, menu)
    read_levels(points, [ScaleRange(delta, theta)])


def frostman_reference(points, s, delta, theta, samples) -> None:
    """build_frostman_measure's refusals in order: s, samples, theta, the band, its levels,
    the base mass."""
    s = check_number(s, "s", 0)
    check_number(samples, "ball_samples", 0, MAX_BALL_SAMPLES, "[]", True)
    theta = check_number(theta, "theta", 0, 1, "(]")
    lo = ScaleRange(delta, theta).lo
    m = _cascade_tree(points, lo, delta)[3]
    if min(2.0 ** (-m * s), lo**s) < sys.float_info.min:
        raise ValidationError(
            f"exponent s={s} is too large for base level m={m} and band end lo={lo}: "
            f"2**(-m*s) = {2.0 ** (-m * s)} and lo**s = {lo**s} must be positive normal floats"
        )


def mdp_reference(measures, s, theta, a, c, samples) -> None:
    """check_mdp's refusals in order: s, a, c, samples, theta, every entry's delta, the list,
    then every entry's smallest bound."""
    s, a, c = (check_number(v, name, 0) for v, name in ((s, "s"), (a, "a"), (c, "c")))
    check_number(samples, "ball_samples", 1, MAX_BALL_SAMPLES, "[]", True)
    check_number(theta, "theta", 0, 1, "(]")
    deltas = [check_number(delta, "delta", 0, 1) for delta, _ in measures]
    if not deltas:
        raise ValidationError("empty measure list")
    for delta in deltas:
        if c * delta**s < sys.float_info.min:
            raise ValidationError(
                f"exponent s={s} and constant c={c} are too far apart for delta={delta}: "
                f"c * delta**s = {c * delta**s}, the smallest bound, must be a positive "
                f"normal float"
            )


class TestRefuseThenSolve:
    @settings(max_examples=150, deadline=None)
    @given(
        cloud=CLOUDS,
        grid=GRIDS,
        deltas=DELTA_LISTS,
        threshold=THRESHOLDS,
        menu=MENUS,
    )
    def test_estimate_spectrum(self, cloud, grid, deltas, threshold, menu):
        expected = refused(estimate_reference, cloud, grid, deltas, threshold, menu)
        assert_refuses_first(
            lambda: estimate_spectrum(cloud, grid, deltas, threshold, menu),
            expected,
            EstimateNotMonotoneError,
        )

    @settings(max_examples=100, deadline=None)
    @given(cloud=CLOUDS, cell=CELLS, threshold=THRESHOLDS, menu=MENUS)
    def test_critical_exponent(self, cloud, cell, threshold, menu):
        delta, theta = cell
        expected = refused(critical_reference, cloud, delta, theta, threshold, menu)
        assert_refuses_first(
            lambda: critical_exponent(cloud, delta, theta, threshold, menu), expected
        )

    @settings(max_examples=150, deadline=None)
    @given(
        cloud=WIDE_CLOUDS,
        # s = 300 underflows the base mass 2**(-m * s) once m > 3
        s=st.one_of(st.sampled_from([300.0, 0.3, 0.8, 1.5]), st.sampled_from([-1.0, math.nan])),
        cascade=CASCADES,
        samples=st.sampled_from([10, 10, 10, 0, -1]),
    )
    def test_build_frostman_measure(self, cloud, s, cascade, samples):
        delta, theta = cascade
        expected = refused(frostman_reference, cloud, s, delta, theta, samples)
        assert_refuses_first(
            lambda: build_frostman_measure(cloud, s, delta, theta, samples), expected
        )

    @settings(max_examples=150, deadline=None)
    @given(
        cloud=CLOUDS,
        # delta = 1e-200 puts the smallest bound c * delta**s below the normal range
        deltas=st.lists(
            st.sampled_from([0.5, 1e-200, 0.1, 1e-3, 0.0, 1.5]), min_size=1, max_size=3
        ),
        s=st.sampled_from([1.0, 2.0, 0.5, -1.0]),
        theta=st.sampled_from([0.5, 1.0, 0.5, 0.0]),
        c=st.sampled_from([1.0, 1e-300, 1.0, 0.0]),
        samples=st.sampled_from([5, 5, 5, 0]),
    )
    def test_check_mdp(self, cloud, deltas, s, theta, c, samples):
        # a later entry's bad delta or bound is refused before the first entry is probed
        measure = AtomicMeasure(cloud.array.copy(), np.full(len(cloud), 1.0 / len(cloud)))
        measures = [(delta, measure) for delta in deltas]
        expected = refused(mdp_reference, measures, s, theta, 0.5, c, samples)
        assert_refuses_first(lambda: check_mdp(measures, s, theta, 0.5, c, samples), expected)
