#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --runs 10 --first-seed 501 --out bench/baseline.json
    python3 bench/baseline.py --runs 5 --first-seed 701 --trace 1 --out bench/baseline_trace.json
    python3 bench/baseline.py --runs 5 --workloads dyadic-2d

Each run is a separate `bench/run.py` process, started as from the command
line. Seeds go round-robin over the workloads so that slow spells of
a shared machine fall on all workloads alike. For every workload and
metric the summary holds the median, the quartiles (statistics.quantiles
with n=4) and the spread, (q3 - q1) / median. The spread of each
end-to-end metric is compared with a third of its bound in
BENCHMARK.json; the exit code is 1 if any exceeds it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    parser.add_argument("--machine", default="", help="a description of the machine, kept in --out")
    args = parser.parse_args()

    seeds = range(args.first_seed, args.first_seed + args.runs)
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in seeds:
        for w in args.workloads:
            out = one_run(w, seed, args.seconds, args.trace)
            runs[w].append(out)
            shown = {k: round(v["value"], 6) for k, v in out["metrics"].items()}
            print(f"{w} seed {seed}: correct={out['correct']} {shown}", flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    steady = True
    for w, outs in runs.items():
        metrics = {}
        for name in outs[0]["metrics"]:
            s = summarise([o["metrics"][name]["value"] for o in outs])
            s["unit"] = outs[0]["metrics"][name]["unit"]
            if name in bounds:
                s["bound"] = bounds[name]
                s["steady"] = s["spread"] < bounds[name] / 3
                steady = steady and s["steady"]
            metrics[name] = s
        summary[w] = {
            "runs": len(outs),
            "all_correct": all(o["correct"] for o in outs),
            "attempted": sum(o["attempted"] for o in outs),
            "failed": sum(o["failed"] for o in outs),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            flag = "" if s.get("steady", True) else "  NOT STEADY"
            print(
                f"{w:<13} {name:<24} median {s['median']:.6g} {s['unit']}  "
                f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}{flag}"
            )

    if args.out:
        doc = {
            "machine": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "nproc": os.cpu_count(),
                "platform": platform.platform(),
                "description": args.machine,
            },
            "seconds": args.seconds,
            "trace": args.trace,
            "seeds": list(seeds),
            "workloads": summary,
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
