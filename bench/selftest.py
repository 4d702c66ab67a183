#!/usr/bin/env python3
"""Self-test of the benchmark harness on shrunken inputs (about ten seconds).

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the correctness gate catches a deliberately wrong reference, that
tracing leaves outputs unchanged, and that estimator outputs do not
depend on the shuffle seed. Exits 0 and prints "selftest: ok" when all
hold.
"""

from __future__ import annotations

import contextlib
import copy
import json
import random
import sys
from dataclasses import replace

import capture_reference
import run

SMALL = {
    "interval-dp": dict(cloud=("fp", 1.0, 1e-3, 0.25)),
    "dyadic-2d": dict(cloud=("carpet", 4), deltas=(0.3, 0.1, 0.03)),
    "certificate": dict(cloud=("carpet", 5), certificate=(0.8, 0.1, 0.5)),
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def declared(bench: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in bench[key]}


def untraced(ds, wl: run.Workload, cloud, seed: int):
    """The workload's outputs with no span recorded and no library name wrapped."""
    return run._calls(ds, wl, cloud, seed, lambda name: contextlib.nullcontext())


def wrong(wl: run.Workload, reference: dict) -> dict:
    """A copy of reference that a correct run must fail against."""
    bad = copy.deepcopy(reference)
    if wl.is_estimate:
        row = bad["samples"][0]
        row["lower"] += 10.0 * row["tol"]
    else:
        bad["atoms"] += 1
    return bad


def main() -> int:
    ds = run.load_dimspect()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads match the harness",
    )
    bisection_tol = run.load_reference()["bisection_tol"]
    est = ds.estimate
    public = {name: getattr(est, name) for name in ("critical_exponent", "optimal_cover_dyadic")}

    for name, small in SMALL.items():
        wl = replace(run.WORKLOADS[name], **small)
        reference = capture_reference.capture(ds, wl, bisection_tol)

        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(ds, wl, 7, 0.0, trace, reference)
            out = run.summary(result, trace)
            emitted = {m: v["unit"] for m, v in out["metrics"].items()}
            expect(emitted == declared(bench, key), f"{name}: {key} metrics and units as declared")
            expect(out["correct"] and out["failed"] == 0, f"{name}: trace={trace} run is correct")
            expect(
                all(isinstance(v["value"], (int, float)) for v in out["metrics"].values()),
                f"{name}: metric values are numbers",
            )
        expect(
            all(getattr(est, n) is f for n, f in public.items()),
            f"{name}: tracing restored the wrapped library names",
        )

        result = run.measure(ds, wl, 7, 0.0, False, wrong(wl, reference))
        out = run.summary(result, False)
        expect(
            not out["correct"] and 0 < out["failed"] <= out["attempted"],
            f"{name}: the gate rejects a wrong reference",
        )

        clouds = [run.set_up(ds, wl, random.Random(seed))[0] for seed in (1, 2)]
        _, tracer, traced = run.solve(ds, wl, clouds[0], seed=1)
        plain = untraced(ds, wl, clouds[0], seed=1)
        expect(plain == traced, f"{name}: tracing leaves outputs unchanged")
        parts = run.parts_of(tracer)
        calls = ["estimate.spectrum"] if wl.is_estimate else ["frostman.build", "frostman.check"]
        expect(
            abs(sum(parts.values()) - sum(d for c in calls for d in tracer.durations(c))) < 1e-9,
            f"{name}: the timed parts add up to the library calls",
        )
        if name == "dyadic-2d":
            expect(
                any(key != "rest" and isinstance(key[2], int) for key in parts),
                f"{name}: each optimal_cover_dyadic call is a timed part",
            )
        if wl.is_estimate:
            _, _, other = run.solve(ds, wl, clouds[1], seed=2)
            expect(plain == other, f"{name}: outputs identical under two seeds")
        print(f"selftest: {name} ok")

    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
