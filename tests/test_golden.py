"""Golden outputs: estimate samples, frostman JSON and critical exponents, compared exactly.

The files under tests/golden/ pin the numbers the CLI printed before the
dyadic solvers were rebuilt on a shared cell tree, the frostman JSON of
an R^3 cloud from the full-scan ball masses, the per-cell
(s_star, cost_at_s_star) of the sequential-bisection interval DP, the
theta = 0 covers, critical exponents and deep cascade of an R^3 cloud
from the per-level np.unique cell tree, the CSV bytes of the estimate on
the interval-dp benchmark cloud from the level-walk bisection batches,
the CSV bytes of the same estimate on an fp p = 2 and a flog cloud from
the serial-only interval-DP groups, the worked carpet's estimates on
bands its depth-8 and depth-10 clouds resolve (ROADMAP item 10), and,
from the dyadic bisection that solved every midpoint, the per-cell
(s_star, cost_at_s_star) of dyadic cells as float.hex and the CSV bytes
of the depth-8 carpet's estimate with a theta = 0 row, and the sha256 of
the frostman certificate on that carpet that the benchmark builds, and,
from the dyadic bisection whose bound settled steps on the hi side only,
the CSV bytes of the same estimate on the depth-10 carpet and the samples
and per-cell (s_star, cost_at_s_star) of the F x F spectrum, and, from the
cascade that summed every suspect cube with fsum, the sha256 of a
certificate on the depth-10 carpet; any
change to summation order, tie-breaking, cell order or the bisection's
midpoints shows up here as an inequality, not a tolerance.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dimspect import (
    CarpetSpec,
    PointCloud,
    ScaleRange,
    ScaleRangeTooDeepError,
    carpet_points,
    critical_exponent,
    estimate_spectrum,
    fp_points,
    optimal_cover_1d,
    optimal_cover_dyadic,
)
from dimspect.cli import main
from dimspect.core import EstimateNotMonotoneError

GOLDEN = Path(__file__).parent / "golden"


def _sequence_text() -> str:
    """{0} u {1/k : k <= 80}, one coordinate per line."""
    return "\n".join(repr(1.0 / k) for k in range(1, 81)) + "\n0.0\n"


def _carpet_text() -> str:
    """The worked 2x3 carpet at depth 5: 243 points in the unit square."""
    spec = CarpetSpec.create(2, 3, [(0, 0), (0, 2), (1, 1)])
    return "\n".join(f"{x!r} {y!r}" for x, y in carpet_points(spec, 5).points) + "\n"


def _shifted_cloud_text() -> str:
    """120 seeded points in [2, 3.5] x [-1, 0], outside the unit box."""
    rnd = random.Random(3)
    return "\n".join(
        f"{2.0 + 1.5 * rnd.random()!r} {-rnd.random()!r}" for _ in range(120)
    ) + "\n"


def _cube_cloud_text() -> str:
    """150 points in the unit cube: one close pair, 148 seeded points 0.1 apart.

    The pair is 0.0625 = delta**(1/theta) apart up to rounding: fsum of the
    three squared differences is above 0.0625**2 and a plain left-to-right
    sum is not, so the builder's band-edge probes around the pair, its
    worst ratio and everything after it depend on summing exactly.
    """
    pair = [
        (0.5525792573086941, 0.5538350338697383, 0.5455178874522701),
        (0.5779351300111953, 0.6010722229729097, 0.5776422969429639),
    ]
    rnd = random.Random(5)
    pts = list(pair)
    while len(pts) < 150:
        p = (rnd.random(), rnd.random(), rnd.random())
        if all(math.dist(p, q) >= 0.1 for q in pts):
            pts.append(p)
    return "\n".join(" ".join(map(repr, p)) for p in pts) + "\n"


def _deep_cloud_points() -> list[tuple[float, float, float]]:
    """Seeded points in the unit cube, clustered at scales 1e-2 down to 1e-11.

    Each of 24 seeded centers carries satellites nested at random offsets,
    so cells split apart on levels down to about 37: a theta = 0 tree and
    a cascade with m - stop > 21 both hold more levels than one int64 word
    of three-bit child codes.
    """
    rnd = random.Random(17)
    pts = []
    for _ in range(24):
        center = [0.1 + 0.8 * rnd.random() for _ in range(3)]
        pts.append(tuple(center))
        for _ in range(rnd.randint(0, 3)):
            size = 10.0 ** -rnd.randint(2, 11)
            center = [c + size * (rnd.random() - 0.5) for c in center]
            pts.append(tuple(center))
    return pts


def _deep_cloud_text() -> str:
    return "\n".join(" ".join(map(repr, p)) for p in _deep_cloud_points()) + "\n"


# (delta, s) at theta = 0: the chosen cubes lie on levels 2 to 40
DEEP_COVER_CASES = [(0.5, 0.02), (0.5, 0.05), (0.05, 0.08), (0.05, 0.5)]
DEEP_CRITICAL_DELTAS = (0.5, 0.005)
DEEP_FROSTMAN_ARGS = ["--s", "0.4", "--delta", "0.05", "--theta", "0.125", "--seed", "4"]


def _deep_3d(workdir: Path) -> dict:
    """Theta = 0 covers and critical exponents, and a deep cascade, of one R^3 cloud."""
    cloud = PointCloud.from_points(_deep_cloud_points())
    covers = []
    for delta, s in DEEP_COVER_CASES:
        cover = optimal_cover_dyadic(cloud, ScaleRange(delta, 0.0), s)
        sets = [[list(c.center), c.side] for c in cover.sets]
        covers.append({"delta": delta, "s": s, "cost": cover.cost, "sets": sets})
    critical = []
    for delta in DEEP_CRITICAL_DELTAS:
        ce = critical_exponent(cloud, delta, 0.0)
        critical.append(
            {"delta": delta, "s_star": ce.s_star, "cost_at_s_star": ce.cost_at_s_star}
        )
    frostman = json.loads(_run("frostman", _deep_cloud_text, DEEP_FROSTMAN_ARGS, workdir))
    return {"covers": covers, "critical": critical, "frostman": frostman}


ESTIMATE_CASES = {
    "estimate_1d": (_sequence_text, ["--grid", "0,0.5,1", "--deltas", "1e-2,1e-3,1e-4"]),
    "estimate_2d": (_carpet_text, ["--grid", "0,0.5,1", "--deltas", "0.2,0.1,0.05"]),
}
FROSTMAN_CASES = {
    "frostman_1d": (
        _sequence_text,
        ["--s", "0.3", "--delta", "0.01", "--theta", "0.5", "--seed", "7"],
    ),
    "frostman_2d": (
        _carpet_text,
        ["--s", "0.8", "--delta", "0.05", "--theta", "0.5", "--seed", "0"],
    ),
    "frostman_3d": (
        _cube_cloud_text,
        ["--s", "2.0", "--delta", "0.5", "--theta", "0.25", "--seed", "2"],
    ),
    "frostman_shifted": (
        _shifted_cloud_text,
        ["--s", "1.2", "--delta", "0.1", "--theta", "0.5", "--seed", "1"],
    ),
}


# (theta, delta, threshold) cells of fp_points(1, 1e-3, theta_min=0.25):
# the 1-D DP on every theta > 0, one dyadic (theta = 0) cell, and one clamp
# at each end of [0, n].
CRITICAL_CELLS = [
    *[(theta, delta, 1.0) for theta in (0.25, 0.5, 0.75, 1.0) for delta in (1e-2, 1e-3)],
    (0.0, 1e-2, 1.0),
    (0.5, 1e-2, 1e4),
    (0.5, 1e-2, 1e-3),
]


def _critical_cells() -> list[dict]:
    cloud = fp_points(1.0, 1e-3, theta_min=0.25)
    out = []
    for theta, delta, threshold in CRITICAL_CELLS:
        ce = critical_exponent(cloud, delta, theta, threshold)
        out.append(
            {
                "theta": theta,
                "delta": delta,
                "threshold": threshold,
                "s_star": ce.s_star,
                "cost_at_s_star": ce.cost_at_s_star,
            }
        )
    return out


# The interval-dp benchmark cloud, fp_points(1, 1e-4, theta_min=0.25), as the
# CLI writes it, and the estimate CI runs on it.
INTERVAL_DP_GEN = ["gen", "--family", "fp", "--p", "1", "--delta", "1e-4", "--theta-min", "0.25"]
INTERVAL_DP_ARGS = ["--grid", "0.25,0.5,0.75,1", "--deltas", "1e-2,1e-3,1e-4"]
# Two more clouds CI estimates the same way, each with dense interval-DP
# cells that are not serial: golden file -> the gen arguments.  Two cells
# of the fp p = 2 cloud (305 points) keep 87.6% and 74.5% of its states,
# one of the flog cloud (240 points) 91.3%.
INTERVAL_DP_CLOUDS = {
    "estimate_interval_dp.csv": INTERVAL_DP_GEN,
    "estimate_fp_p2.csv": [
        "gen", "--family", "fp", "--p", "2", "--delta", "1e-4", "--theta-min", "0.25"
    ],
    "estimate_flog.csv": ["gen", "--family", "flog", "--delta", "1e-3"],
}


# The interval-dp cloud with a theta = 0 row: a 1-D spectrum whose dyadic
# cells share one tree, and whose other cells solve on interval DPs.
FP_MIXED_ARGS = ["--grid", "0,0.25,0.5,1", "--deltas", "1e-2,1e-3,1e-4"]


def _interval_dp_csv(workdir: Path, gen=INTERVAL_DP_GEN, args=INTERVAL_DP_ARGS) -> bytes:
    points, out = workdir / "points.txt", workdir / "estimate.csv"
    assert main([*gen, "--out", str(points)]) == 0
    assert main(["estimate", "--points", str(points), *args, "--out", str(out)]) == 0
    return out.read_bytes()


# (theta, delta) cells of fp_points(1, 1e-3, theta_min=0.25) (1,009 points):
# a serial cell, a dense cell that is not serial (its menu reaches 712 of
# the 1,010 DP states) and a sparse one (184), each covered at every s.
COVER_1D_CELLS = [(0.25, 1e-2), (0.5, 1e-2), (0.75, 1e-2)]
COVER_1D_S = (0.0, 0.5, 1.0)


def _cover_1d() -> list[dict]:
    """Per cell and s, optimal_cover_1d's cost and sets as [center, side], each float.hex."""
    cloud = fp_points(1.0, 1e-3, theta_min=0.25)
    out = []
    for theta, delta in COVER_1D_CELLS:
        for s in COVER_1D_S:
            cover = optimal_cover_1d(cloud, ScaleRange(delta, theta), s)
            sets = [[c.center[0].hex(), c.side.hex()] for c in cover.sets]
            out.append({"theta": theta, "delta": delta, "s": s, "cost": cover.cost.hex(), "sets": sets})
    return out


# The worked carpet at depths 8 and 10 on bands its cloud resolves (the
# x-resolution at depth 10 is 2**-10): (depth, deltas).  Depth 10 at
# .2/.1/.05 raises EstimateNotMonotoneError at theta = .75.
CARPET_TABLE_CASES = [
    (10, (0.3, 0.1, 0.032)),
    (8, (0.3, 0.1, 0.032)),
    (8, (0.2, 0.1, 0.05)),
    (10, (0.1, 0.03, 0.01)),
    (10, (0.2, 0.1, 0.05)),
]
CARPET_TABLE_GRID = [0.25, 0.5, 0.75, 1.0]


def _carpet_table() -> list[dict]:
    """Per case its samples as [theta, lower, upper], or the refusal's message."""
    spec = CarpetSpec.create(2, 3, [(0, 0), (0, 2), (1, 1)])
    clouds = {depth: carpet_points(spec, depth) for depth in {d for d, _ in CARPET_TABLE_CASES}}
    out = []
    for depth, deltas in CARPET_TABLE_CASES:
        row = {"depth": depth, "deltas": list(deltas)}
        try:
            spectrum = estimate_spectrum(clouds[depth], CARPET_TABLE_GRID, deltas)
        except EstimateNotMonotoneError as refused:
            row["refused"] = str(refused)
        else:
            row["samples"] = [[x.theta, x.lower, x.upper] for x in spectrum.samples]
        out.append(row)
    return out


# Dyadic cells: the worked carpet at depths 5 and 8 at every theta, and an
# fp cloud at theta = 0, each at every delta and threshold below.
DYADIC_THETAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DYADIC_DELTAS = (0.1, 0.03, 0.01)
DYADIC_THRESHOLDS = (0.5, 1.0, 3.0)


def _critical_dyadic() -> list[list]:
    """[cloud, theta, delta, threshold, s_star.hex(), cost_at_s_star.hex()] per dyadic cell."""
    spec = CarpetSpec.create(2, 3, [(0, 0), (0, 2), (1, 1)])
    clouds = [
        *[(f"carpet{depth}", carpet_points(spec, depth), DYADIC_THETAS) for depth in (5, 8)],
        ("fp", fp_points(1.0, 1e-3, theta_min=0.25), (0.0,)),
    ]
    out = []
    for name, cloud, thetas in clouds:
        for theta in thetas:
            for delta in DYADIC_DELTAS:
                for threshold in DYADIC_THRESHOLDS:
                    ce = critical_exponent(cloud, delta, theta, threshold)
                    hexes = [ce.s_star.hex(), ce.cost_at_s_star.hex()]
                    out.append([name, theta, delta, threshold, *hexes])
    return out


# The depth-8 carpet (6,561 points) as the CLI writes it, and the estimate
# with a theta = 0 row CI runs on it; CI runs the same estimate on the
# depth-10 carpet (59,049 points), whose cells take 42 tree passes.
CARPET_ARGS = ["--grid", "0,0.5,1", "--deltas", "0.1,0.03,0.01"]


# The certificate CI builds on the same cloud: its 385,598 bytes are pinned
# by their sha256, in frostman_carpet8.sha256.
CARPET8_FROSTMAN_ARGS = ["--s", "0.8", "--delta", "0.05", "--theta", "0.5"]
# The certificate CI builds on the depth-10 carpet (59,049 atoms, a 12-level
# cascade in which the float pre-test clears every cube): its 7,872,991
# bytes are pinned by their sha256, in frostman_carpet10.sha256.
CARPET10_FROSTMAN_ARGS = ["--s", "0.8", "--delta", "0.05", "--theta", "0.25"]


def _carpet_output(workdir: Path, command: str, args, depth: int = 8) -> bytes:
    """The bytes of command on the worked carpet at depth, as the CLI writes them."""
    spec, points = workdir / "c.json", workdir / f"c{depth}.txt"
    out = workdir / f"{command}.out"
    spec.write_text('{"m":2,"n":3,"digits":[[0,0],[0,2],[1,1]]}')
    gen = ["gen", "--family", "carpet-points", "--depth", str(depth)]
    assert main([*gen, "--spec", str(spec), "--out", str(points)]) == 0
    assert main([command, "--points", str(points), *args, "--out", str(out)]) == 0
    return out.read_bytes()


def _carpet_csv(workdir: Path, depth: int = 8) -> bytes:
    return _carpet_output(workdir, "estimate", CARPET_ARGS, depth)


def _carpet_frostman_sha256(workdir: Path, depth: int = 8) -> str:
    args = CARPET8_FROSTMAN_ARGS if depth == 8 else CARPET10_FROSTMAN_ARGS
    return hashlib.sha256(_carpet_output(workdir, "frostman", args, depth)).hexdigest()


# The product F x F of F = fp_points(1, 3e-3, theta_min=.25) with itself
# (177,241 points in R^2, a second 2-D yardstick next to the carpet, ROADMAP
# item 10), and the spectrum estimated on it.
FXF_GRID = (0.25, 0.5, 0.75, 1.0)
FXF_DELTAS = (0.03, 0.01, 0.003)


def _fxf_cloud() -> PointCloud:
    f = fp_points(1.0, 3e-3, theta_min=0.25).array[:, 0]
    return PointCloud.from_points(np.stack([np.repeat(f, len(f)), np.tile(f, len(f))], 1))


def _estimate_fxf() -> dict:
    """The F x F spectrum's samples and each admissible cell's (s_star, cost_at_s_star), float.hex."""
    cloud = _fxf_cloud()
    spectrum = estimate_spectrum(cloud, FXF_GRID, FXF_DELTAS)
    cells = []
    for theta in FXF_GRID:
        for delta in FXF_DELTAS:
            try:
                ScaleRange(delta, theta)
            except ScaleRangeTooDeepError:
                continue
            ce = critical_exponent(cloud, delta, theta)
            cells.append([theta, delta, ce.s_star.hex(), ce.cost_at_s_star.hex()])
    samples = [[x.theta, x.lower.hex(), x.upper.hex()] for x in spectrum.samples]
    return {"points": len(cloud), "samples": samples, "cells": cells}


def _run(command: str, make_points, args, workdir: Path) -> str:
    points = workdir / "points.txt"
    points.write_text(make_points())
    out = workdir / "out.txt"
    extra = ["--format", "json"] if command == "estimate" else []
    code = main([command, "--points", str(points), *args, *extra, "--out", str(out)])
    assert code == 0
    return out.read_text()


def _samples(text: str) -> dict:
    doc = json.loads(text)
    return {"ambient_n": doc["ambient_n"], "samples": doc["samples"]}


@pytest.mark.parametrize("name", sorted(ESTIMATE_CASES))
def test_estimate_samples_match_golden(name, tmp_path):
    make_points, args = ESTIMATE_CASES[name]
    got = _samples(_run("estimate", make_points, args, tmp_path))
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert got == expected


@pytest.mark.parametrize("name", sorted(FROSTMAN_CASES))
def test_frostman_json_matches_golden(name, tmp_path):
    make_points, args = FROSTMAN_CASES[name]
    got = _run("frostman", make_points, args, tmp_path)
    assert got == (GOLDEN / f"{name}.json").read_text()


def test_critical_exponents_match_golden():
    expected = json.loads((GOLDEN / "critical_1d.json").read_text())
    assert _critical_cells() == expected


def test_interval_dp_estimate_csv_matches_golden(tmp_path):
    assert _interval_dp_csv(tmp_path) == (GOLDEN / "estimate_interval_dp.csv").read_bytes()


@pytest.mark.parametrize("name", ["estimate_fp_p2.csv", "estimate_flog.csv"])
def test_dense_cell_estimate_csv_matches_golden(name, tmp_path):
    expected = (GOLDEN / name).read_bytes()
    assert _interval_dp_csv(tmp_path, INTERVAL_DP_CLOUDS[name]) == expected


def test_fp_mixed_estimate_csv_matches_golden(tmp_path):
    got = _interval_dp_csv(tmp_path, args=FP_MIXED_ARGS)
    assert got == (GOLDEN / "estimate_fp_mixed.csv").read_bytes()


def test_cover_1d_matches_golden():
    expected = json.loads((GOLDEN / "cover_1d.json").read_text())
    assert len(expected) == len(COVER_1D_CELLS) * len(COVER_1D_S)
    assert _cover_1d() == expected


def test_carpet_table_matches_golden():
    expected = json.loads((GOLDEN / "carpet_table.json").read_text())
    assert [row.get("refused") is not None for row in expected] == [False] * 4 + [True]
    assert _carpet_table() == expected


def test_critical_dyadic_match_golden():
    expected = json.loads((GOLDEN / "critical_dyadic.json").read_text())
    assert len(expected) == 2 * 5 * 9 + 9
    assert _critical_dyadic() == expected


def test_carpet8_estimate_csv_matches_golden(tmp_path):
    assert _carpet_csv(tmp_path) == (GOLDEN / "estimate_carpet8.csv").read_bytes()


def test_carpet10_estimate_csv_matches_golden(tmp_path):
    assert _carpet_csv(tmp_path, 10) == (GOLDEN / "estimate_carpet10.csv").read_bytes()


def test_fxf_spectrum_and_cells_match_golden():
    expected = json.loads((GOLDEN / "estimate_fxf.json").read_text())
    assert expected["points"] == 421**2 and len(expected["cells"]) == 12
    assert _estimate_fxf() == expected


def test_carpet8_certificate_matches_golden_digest(tmp_path):
    expected = (GOLDEN / "frostman_carpet8.sha256").read_text().strip()
    assert _carpet_frostman_sha256(tmp_path) == expected


def test_carpet10_certificate_matches_golden_digest(tmp_path):
    expected = (GOLDEN / "frostman_carpet10.sha256").read_text().strip()
    assert _carpet_frostman_sha256(tmp_path, 10) == expected


def test_deep_3d_matches_golden(tmp_path):
    expected = json.loads((GOLDEN / "dyadic_3d_deep.json").read_text())
    assert _deep_3d(tmp_path) == expected


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, (make_points, args) in ESTIMATE_CASES.items():
            doc = _samples(_run("estimate", make_points, args, workdir))
            (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
        for name, (make_points, args) in FROSTMAN_CASES.items():
            (GOLDEN / f"{name}.json").write_text(_run("frostman", make_points, args, workdir))
        doc = _deep_3d(workdir)
        (GOLDEN / "dyadic_3d_deep.json").write_text(json.dumps(doc, indent=1) + "\n")
        for name, gen in INTERVAL_DP_CLOUDS.items():
            (GOLDEN / name).write_bytes(_interval_dp_csv(workdir, gen))
        (GOLDEN / "estimate_carpet8.csv").write_bytes(_carpet_csv(workdir))
        (GOLDEN / "estimate_carpet10.csv").write_bytes(_carpet_csv(workdir, 10))
        for depth in (8, 10):
            digest = _carpet_frostman_sha256(workdir, depth)
            (GOLDEN / f"frostman_carpet{depth}.sha256").write_text(digest + "\n")
        (GOLDEN / "estimate_fp_mixed.csv").write_bytes(_interval_dp_csv(workdir, args=FP_MIXED_ARGS))
    (GOLDEN / "carpet_table.json").write_text(json.dumps(_carpet_table(), indent=1) + "\n")
    (GOLDEN / "critical_1d.json").write_text(json.dumps(_critical_cells(), indent=2) + "\n")
    (GOLDEN / "critical_dyadic.json").write_text(json.dumps(_critical_dyadic(), indent=1) + "\n")
    (GOLDEN / "cover_1d.json").write_text(json.dumps(_cover_1d(), indent=1) + "\n")
    (GOLDEN / "estimate_fxf.json").write_text(json.dumps(_estimate_fxf(), indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
