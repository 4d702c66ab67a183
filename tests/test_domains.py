"""The one refusal rule for numeric parameters, core.check_number, at every public site.

Each row names a public function and one of its parameters, with a call
that passes the value under test in that parameter's place and fixed
legal values everywhere else.  NaN, both infinities, the excluded ends of
the parameter's interval, a bool, text and, for a count, a fractional
number must each raise ValidationError: never TypeError, never a result.
"""

import math

import pytest

from dimspect import (
    AtomicMeasure,
    CarpetSpec,
    PointCloud,
    ScaleRange,
    ValidationError,
    assouad_lower_bound,
    build_frostman_measure,
    check_mdp,
    default_theta_grid,
    estimate_spectrum,
    fp_points,
    sequence_dim,
)
from dimspect.carpet import carpet_points, log_upper_excess
from dimspect.core import check_number
from dimspect.covers import (
    fp_witness_cover,
    geometric_menu,
    optimal_cover_1d,
    optimal_cover_dyadic,
)
from dimspect.estimate import coupled_truncation, critical_exponent, flog_points
from dimspect.formulas import BoundInputs
from dimspect.frostman import fp_witness_measure

SPEC = CarpetSpec.create(2, 3, [(0, 0), (0, 2), (1, 1)])
INPUTS = BoundInputs(dim_H=0.5, dim_B_lower=0.6, dim_B_upper=0.6, dim_A=1.0, ambient_n=1)
CLOUD = PointCloud.from_points([(0.1,), (0.5,), (0.9,)])
SQUARE = PointCloud.from_points([(0.1, 0.2), (0.5, 0.5), (0.9, 0.7)])
MEASURE = AtomicMeasure.from_atoms([((0.25,), 0.5), ((0.75,), 0.5)])
FP = fp_points(1.0, 0.01)

# Values every parameter refuses; each row adds the ends its interval leaves out.
ALWAYS = [math.nan, math.inf, -math.inf, True, "0.5"]

# (row id, call, values beyond ALWAYS)
ROWS = [
    # theta > 0
    ("log_upper_excess.theta", lambda v: log_upper_excess(SPEC, v), [0.0, 1.0]),
    ("assouad_lower_bound.theta", lambda v: assouad_lower_bound(INPUTS, v), [0.0]),
    ("fp_witness_cover.theta", lambda v: fp_witness_cover(1.0, 0.01, v, 0.5), [0.0]),
    ("fp_witness_measure.theta", lambda v: fp_witness_measure(1.0, 0.01, v), [0.0]),
    ("build_frostman_measure.theta", lambda v: build_frostman_measure(FP, 0.3, 0.01, v), [0.0]),
    ("check_mdp.theta", lambda v: check_mdp([(1e-3, MEASURE)], 0.5, v, 1.0, 100.0), [0.0]),
    ("fp_points.theta_min", lambda v: fp_points(1.0, 0.01, v), [0.0]),
    # delta in (0, 1)
    ("ScaleRange.delta", lambda v: ScaleRange(v, 0.5), [0.0, 1.0]),
    ("check_mdp.delta", lambda v: check_mdp([(v, MEASURE)], 0.5, 0.5, 1.0, 100.0), [0.0, 1.0]),
    ("fp_witness_cover.delta", lambda v: fp_witness_cover(1.0, v, 0.5, 0.5), [0.0, 1.0]),
    ("fp_witness_measure.delta", lambda v: fp_witness_measure(1.0, v, 0.5), [0.0, 1.0]),
    ("flog_points.delta", flog_points, [0.0, 1.0]),
    ("estimate_spectrum.delta", lambda v: estimate_spectrum(CLOUD, [0.5], [v, 1e-3, 1e-4]),
     [0.0, 1.0]),
    # finite p > 0
    ("sequence_dim.p", lambda v: sequence_dim(v, 0.5), [0.0]),
    ("fp_witness_cover.p", lambda v: fp_witness_cover(v, 0.01, 0.5, 0.5), [0.0]),
    ("fp_witness_measure.p", lambda v: fp_witness_measure(v, 0.01, 0.5), [0.0]),
    ("fp_points.p", lambda v: fp_points(v, 0.01), [0.0]),
    ("coupled_truncation.p", lambda v: coupled_truncation(v, 0.01), [0.0]),
    # finite positive s, a, c and threshold
    ("build_frostman_measure.s", lambda v: build_frostman_measure(FP, v, 0.01, 0.5), [0.0]),
    ("check_mdp.s", lambda v: check_mdp([(1e-3, MEASURE)], v, 0.5, 1.0, 100.0), [0.0]),
    ("check_mdp.a", lambda v: check_mdp([(1e-3, MEASURE)], 0.5, 0.5, v, 100.0), [0.0]),
    ("check_mdp.c", lambda v: check_mdp([(1e-3, MEASURE)], 0.5, 0.5, 1.0, v), [0.0]),
    ("critical_exponent.threshold", lambda v: critical_exponent(CLOUD, 0.01, 0.5, v), [0.0]),
    # s in the two optimizers, [0, 1] and [0, n], and the witness cover, (0, 1)
    ("optimal_cover_1d.s", lambda v: optimal_cover_1d(CLOUD, ScaleRange(0.01, 0.5), v),
     [-0.5, 1.5]),
    ("optimal_cover_dyadic.s", lambda v: optimal_cover_dyadic(SQUARE, ScaleRange(0.01, 0.5), v),
     [-0.5, 2.5]),
    ("fp_witness_cover.s", lambda v: fp_witness_cover(1.0, 0.01, 0.5, v), [0.0, 1.0]),
    # counts: the smallest legal count less one, and a fractional count
    ("build_frostman_measure.ball_samples",
     lambda v: build_frostman_measure(FP, 0.3, 0.01, 0.5, ball_samples=v), [-1, 2.5]),
    ("check_mdp.ball_samples",
     lambda v: check_mdp([(1e-3, MEASURE)], 0.5, 0.5, 1.0, 100.0, ball_samples=v), [0, 2.5]),
    ("geometric_menu.size", lambda v: geometric_menu(1e-4, 1e-2, v), [1, 2.5]),
    ("carpet_points.depth", lambda v: carpet_points(SPEC, v), [0, 2.5]),
    ("default_theta_grid.count", default_theta_grid, [1, 2.5]),
]

CASES = [
    pytest.param(call, value, id=f"{name}={value!r}")
    for name, call, extra in ROWS
    for value in ALWAYS + extra
]


@pytest.mark.parametrize("call, value", CASES)
def test_out_of_domain_value_refused(call, value):
    with pytest.raises(ValidationError):
        call(value)


class TestCheckNumber:
    def test_returns_float_or_int(self):
        assert check_number(1, "p", 0) == 1.0 and type(check_number(1, "p", 0)) is float
        assert type(check_number(2.0, "n", 2, 4, "[]", integral=True)) is int
        with pytest.raises(ValidationError):  # past the float range, read as inf
            check_number(10**400, "n", 0, ends="[)", integral=True)

    def test_open_and_closed_ends(self):
        assert check_number(0.0, "s", 0, 1, "[]") == 0.0
        assert check_number(1.0, "theta", 0, 1, "(]") == 1.0
        assert check_number(math.inf, "delta", 0, math.inf, "(]") == math.inf
        for value, ends in ((0.0, "(]"), (1.0, "[)"), (-(10**400), "[]")):
            with pytest.raises(ValidationError):
                check_number(value, "x", 0, 1, ends)

    def test_wording(self):
        with pytest.raises(ValidationError, match=r"^need p finite and positive, got inf$"):
            check_number(math.inf, "p", 0)
        with pytest.raises(ValidationError, match=r"^need delta in \(0, 1\), got '0.5'$"):
            check_number("0.5", "delta", 0, 1)
        with pytest.raises(ValidationError, match=r"^need 2 to 8 entries, got 2.5$"):
            check_number(2.5, "entries", 2, 8, "[]", integral=True)
        with pytest.raises(ValidationError, match=r"^need at least 1 levels, got True$"):
            check_number(True, "levels", 1, ends="[)", integral=True)
