"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import random
import time

import pytest

from dimspect import (
    CarpetSpec,
    box_dim,
    build_frostman_measure,
    carpet_spectrum,
    check_mdp,
    default_theta_grid,
    entropy,
    envelope_bound,
    estimate_spectrum,
    example_spectrum_curve,
    fp_points,
    fp_witness_measure,
    geometric_menu,
    hausdorff_dim,
    log_upper_excess,
    lower_bound_theta,
    mcmullen_weights,
    optimal_cover_1d,
    product_bounds,
    sequence_spectrum,
    PointCloud,
    ScaleRange,
)
from conftest import random_carpet
from oracles import brute_force_menu_cost, cascade_level_masses, mp_carpet

DELTAS = [1e-2, 1e-3, 1e-4]
THETAS = [0.25, 0.5, 0.75, 1.0]

# unequal-column carpets the two-sided bounds are exercised on
TEST_CARPETS = [
    CarpetSpec.create(2, 3, [(0, 0), (0, 2), (1, 1)]),  # worked example
    CarpetSpec.create(2, 3, [(0, 0), (0, 1), (0, 2), (1, 1)]),
    CarpetSpec.create(2, 3, [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)]),
    CarpetSpec.create(2, 4, [(0, 0), (0, 3), (1, 2)]),
    CarpetSpec.create(3, 4, [(0, 0), (0, 2), (1, 1), (2, 3)]),
    CarpetSpec.create(3, 5, [(0, 0), (0, 2), (0, 4), (1, 1), (2, 3)]),
]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {name}{suffix}")
    assert ok, f"criterion {num} failed {suffix}"


@pytest.fixture(scope="module")
def estimated_spectra():
    """Criterion-1 estimator runs, reused by criteria 2 and 8."""
    started = time.perf_counter()
    spectra = {}
    for p in (1.0, 2.0):
        cloud = fp_points(p, min(DELTAS), theta_min=min(THETAS))
        spectra[p] = estimate_spectrum(cloud, THETAS, DELTAS)
    return spectra, time.perf_counter() - started


def test_criterion_1_sequence_formula(estimated_spectra):
    spectra, elapsed = estimated_spectra
    worst = 0.0
    for p, spectrum in spectra.items():
        for sample in spectrum.samples:
            expected = sample.theta / (p + sample.theta)
            worst = max(worst, abs(sample.lower - expected), abs(sample.upper - expected))
    ok = worst <= 0.05 and elapsed < 60.0
    _report(
        1,
        "estimator reproduces theta/(p+theta) within 0.05",
        ok,
        f"worst error {worst:.4f}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_box_dimension_endpoint(estimated_spectra):
    spectra, _ = estimated_spectra
    sample = spectra[1.0].samples[-1]
    assert sample.theta == 1.0
    worst = max(abs(sample.lower - 0.5), abs(sample.upper - 0.5))
    _report(
        2,
        "theta=1 estimate for the harmonic sequence is 0.5 +/- 0.03",
        worst <= 0.03,
        f"lower {sample.lower:.4f}, upper {sample.upper:.4f}",
    )


def test_criterion_3_carpet_closed_forms(worked_carpet):
    rnd = random.Random(2024)
    specs = [worked_carpet] + [random_carpet(rnd) for _ in range(20)]
    worst = 0.0
    for spec in specs:
        oracle = mp_carpet(spec.m, spec.n, spec.digits)
        worst = max(
            worst,
            abs(box_dim(spec) - float(oracle["box"])),
            abs(hausdorff_dim(spec) - float(oracle["hausdorff"])),
            abs(entropy(spec) - float(oracle["entropy"])),
            abs(float(oracle["identity_lhs"] - oracle["identity_rhs"])),
        )
        der = mcmullen_weights(spec)
        identity = math.fsum(a ** (der.L - 1.0) for a in der.a_ell)
        worst = max(worst, abs(identity - spec.m**der.d))
    _report(
        3,
        "box/hausdorff/entropy match a 60-digit oracle to 1e-10",
        worst <= 1e-10,
        f"worst deviation {worst:.2e} over {len(specs)} carpets",
    )


def test_criterion_4_carpet_bound_sandwich():
    grid = default_theta_grid(101)
    worst_gap = 0.0
    continuity_ok = True
    for spec in TEST_CARPETS:
        assert not spec.columns_equal()
        spectrum = carpet_spectrum(spec, grid)
        d = hausdorff_dim(spec)
        uppers = {s.theta: s.upper for s in spectrum.samples}
        for theta in grid:
            if theta == 0.0:
                continue
            gap = lower_bound_theta(spec, theta) - uppers[theta]
            worst_gap = max(worst_gap, gap)
        first = spectrum.samples[0]
        assert first.theta == 0.0 and first.lower == d == first.upper
        # continuity at 0: the raw excess coef/(-log theta) stays below a
        # fifth of its coefficient throughout (0, 1e-4]
        coef = log_upper_excess(spec, math.exp(-1.0))
        for theta in (1e-4, 1e-5, 1e-6, 1e-8):
            excess = log_upper_excess(spec, theta)
            if not excess < 0.2 * coef:
                continuity_ok = False
            if abs(excess * (-math.log(theta)) - coef) > 1e-12 * coef:
                continuity_ok = False
    ok = worst_gap <= 0.0 and continuity_ok
    _report(
        4,
        "lower bound below upper column on the 101-grid; both meet dim_H at 0; "
        "log-bound excess vanishes as theta -> 0",
        ok,
        f"worst lower-upper gap {worst_gap:.2e} over {len(TEST_CARPETS)} carpets",
    )


def test_criterion_5_frostman_certificate():
    cloud = fp_points(1.0, 0.01)
    result = build_frostman_measure(cloud, s=0.3, delta=0.01, theta=0.5, seed=0)
    mass_ok = abs(result.measure.total - 1.0) <= 1e-9
    report = check_mdp(
        [(result.range.lo, result.measure)],
        s=0.3,
        theta=0.5,
        a=1.0 - 1e-9,
        c=result.constant,
        ball_samples=200,
        seed=0,
    )
    cascade, level_masses = result.cascade, cascade_level_masses(cloud, result)
    caps_ok = all(
        mass <= cascade.cap(level) * (1 + 1e-12)
        for level in range(cascade.stop_level, cascade.base_level + 1)
        for mass in level_masses[level].values()
    )
    attain_ok = True
    base = cascade.base_level
    for idx in level_masses[base]:
        hit = False
        for level in range(cascade.stop_level, cascade.base_level + 1):
            ancestor = tuple(c >> (base - level) for c in idx)
            mass = level_masses[level][ancestor]
            if abs(mass - cascade.cap(level)) <= 1e-12 * cascade.cap(level):
                hit = True
                break
        attain_ok = attain_ok and hit
    ok = mass_ok and report.ok and caps_ok and attain_ok
    _report(
        5,
        "cap-cascade measure is a verified probability measure",
        ok,
        f"total {result.measure.total:.12f}, worst ball ratio {report.worst_ratio:.3f}",
    )


def test_criterion_6_witness_measure_proof_constant():
    total_violations = 0
    for p in (1.0, 2.0):
        for theta in (0.25, 0.5, 0.75):
            s = theta / (p + theta)
            # delta chosen so the atom count formula lands on an integer
            delta = 50.0 ** (-(p + 1.0) / (s + theta * (1.0 - s)))
            measure = fp_witness_measure(p, delta, theta)
            report = check_mdp(
                [(delta, measure)],
                s=s,
                theta=theta,
                a=1.0 - 1e-9,
                c=1.0 + 1.0 / p,
                ball_samples=200,
                seed=0,
            )
            total_violations += sum(e.violations for e in report.entries)
            assert report.ok
    _report(
        6,
        "sequence witness measures pass at the proof constant 1 + 1/p",
        total_violations == 0,
        f"{total_violations} violations over 6 (p, theta) pairs x 200 balls",
    )


def test_criterion_7_dp_equals_exhaustive_search():
    rnd = random.Random(12345)
    mismatches = 0
    for _ in range(200):
        cloud = PointCloud.from_points(
            [(round(rnd.uniform(0.0, 1.0), 6),) for _ in range(rnd.randint(1, 8))]
        )
        rng = ScaleRange(rnd.uniform(0.05, 0.5), rnd.uniform(0.3, 1.0))
        s = rnd.uniform(0.05, 1.0)
        size = rnd.randint(2, 4)
        cover = optimal_cover_1d(cloud, rng, s, scale_menu_size=size)
        menu = geometric_menu(rng.lo, rng.hi, size)
        reference = brute_force_menu_cost([p[0] for p in cloud.points], menu, s)
        if cover.cost != reference:
            mismatches += 1
    _report(
        7,
        "interval DP matches exhaustive enumeration exactly",
        mismatches == 0,
        f"{mismatches} mismatches over 200 random instances",
    )


def test_criterion_8_envelope_and_monotonicity(estimated_spectra, worked_carpet):
    grid = default_theta_grid(101)
    closed_forms = [
        sequence_spectrum(0.5, grid),
        sequence_spectrum(1.0, grid),
        sequence_spectrum(2.0, grid),
        example_spectrum_curve(1, grid),
        example_spectrum_curve(2, grid),
        example_spectrum_curve(3, grid),
        example_spectrum_curve(4, grid),
        carpet_spectrum(worked_carpet, grid),
        product_bounds(
            sequence_spectrum(1.0, grid), example_spectrum_curve(1, grid), 1.0
        ),
    ]
    spectra, _ = estimated_spectra
    checked = 0

    def check(spectrum, slack):
        nonlocal checked
        for values in (spectrum.lowers(), spectrum.uppers()):
            assert all(a <= b + slack for a, b in zip(values, values[1:]))
        samples = spectrum.samples
        for i, low in enumerate(samples):
            for high in samples[i + 1 :]:
                bound = envelope_bound(
                    low.upper, low.theta, high.theta, spectrum.ambient_n
                )
                assert high.upper <= bound + slack + 1e-12
        checked += 1

    for spectrum in closed_forms:
        check(spectrum, 0.0)
    for spectrum in spectra.values():
        check(spectrum, 0.05)
    _report(
        8,
        "every emitted spectrum is monotone and inside the continuity envelope",
        True,
        f"{checked} spectra checked (exact for closed forms, slack 0.05 estimated)",
    )


def test_criterion_9_product_example():
    grid = default_theta_grid(101)
    product = product_bounds(
        sequence_spectrum(1.0, grid), example_spectrum_curve(1, grid), 1.0
    )
    worst = 0.0
    for sample in product.samples:
        if sample.theta == 0.0:
            continue
        expected = sample.theta / (1.0 + sample.theta) + 1.0
        worst = max(worst, abs(sample.lower - expected), abs(sample.upper - expected))
    _report(
        9,
        "product of harmonic and log sequences gives theta/(1+theta) + 1",
        worst == 0.0,
        f"max deviation {worst:.2e} on the 101-grid",
    )
