#!/usr/bin/env python3
"""Benchmark harness for dimspect.

Runs one named workload through dimspect's public library API, with
default arguments and in one thread, for a fixed time budget. It checks
every output and prints the metrics that BENCHMARK.json names. The last
line of standard output is one JSON object with the keys "correct",
"attempted", "failed" and "metrics".

    python3 bench/run.py --workload interval-dp --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all   # one process per workload

A solve is one pass of a workload's library calls after set-up. It is
timed in parts, from spans around the public names estimate_spectrum
looks up: each optimal_cover_dyadic call, the rest of each
critical_exponent call (one per cell; for the 1-D interval DP this is the
whole cell), and the rest of estimate_spectrum. A certificate solve has
two parts, its build_frostman_measure and check_mdp calls.

A shared virtual machine runs everything 1.3-2x slower for spells from
milliseconds to many minutes, longer than a run. So every 20 ms of a run
a timer signal runs one of two fixed pure-Python kernels in turn, twice,
and times the second, warm run: a ball-count scan over a few hundred
points (ball_kernel) and a min-plus sweep over jump tables a few thousand
states long (sweep_kernel). A kernel's time over its reference time
(PROBE_REF_S) is the machine's slowdown at that moment. Over a stretch of
the run, a kernel's slowdown is the harmonic mean of its probes'
slowdowns, so that speeds, not times, are averaged; the machine's
slowdown is the geometric mean of the two kernels'. Workloads slow by
different factors in the same spell, and two kernels of different kinds
follow them more closely than either alone. Times are taken on a clock
that leaves out the kernels' runs. Each solve's time is divided by the
slowdown over that solve, and each set-up's by the slowdown over its step
(the set-ups before a solve and the solve): they are seconds on a machine
where the kernels take PROBE_REF_S. wall_s is the sum over the parts of
each part's median such time in the run; setup_s is the median such
set-up. A change to the program moves them; a change of the machine's
speed mostly does not. The report also prints the raw median solve and
the slowdown.

--seed draws the shuffle of the point list before each ingest and seeds
the probes of build_frostman_measure and check_mdp. Estimator outputs must
not depend on it.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones, summed from the same median parts, and the
spans, kept in memory, are written to
bench/out/spans-<workload>-seed<n>.jsonl when the run ends.

The library is imported from the src/ directory of the checkout that holds
this file; the harness exits with code 2 if it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"

# The worked carpet of the README: 2 columns, 3 rows, digits (0,0),(0,2),(1,1).
CARPET = (2, 3, ((0, 0), (0, 2), (1, 1)))
# Set-ups before each solve. Each shuffles the point list with its own
# draw from the seed; the solve uses the last cloud.
SETUPS_PER_SOLVE = 5
# Tolerance of the interval-dp gate against theta/(1+theta); it is the
# acceptance suite's estimator tolerance.
SEQUENCE_GATE = 0.05
# Largest accepted distance of the certificate measure's total mass from 1.
MASS_TOL = 1e-12
# Seconds between the end of one run of a speed probe kernel and the next.
PROBE_PERIOD_S = 0.02
# Each probe kernel's reference time: about its fastest time on the machine
# of the committed baseline (Intel Xeon, Python 3.11.7). Times are reported
# as seconds on a machine where the kernels take this long.
PROBE_REF_S = {"ball": 0.6e-3, "sweep": 0.7e-3}
# The points the ball kernel scans.
_BALL_POINTS = tuple((i * 0.001, (i * 7 % 13) * 0.01) for i in range(300))
# The sweep kernel's states, diameters and jump tables (state -> next state).
_SWEEP_STATES = 4000
_SWEEP_MENU = tuple(0.1 * (j + 1) for j in range(6))
_SWEEP_JUMP = tuple(
    [min(_SWEEP_STATES, i + 1 + i * j * 7919 % 13) for i in range(_SWEEP_STATES)]
    for j in range(len(_SWEEP_MENU))
)


@dataclass(frozen=True)
class Workload:
    """One set of inputs. cloud is ("fp", p, delta, theta_min) or ("carpet", depth)."""

    name: str
    cloud: tuple
    thetas: tuple = ()
    deltas: tuple = ()
    certificate: tuple = ()  # (s, delta, theta) for the frostman workload
    sequence_gate: float | None = None  # largest error against theta/(p+theta)

    @property
    def is_estimate(self) -> bool:
        return not self.certificate


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "interval-dp",
            ("fp", 1.0, 1e-4, 0.25),
            thetas=(0.25, 0.5, 0.75, 1.0),
            deltas=(1e-2, 1e-3, 1e-4),
            sequence_gate=SEQUENCE_GATE,
        ),
        Workload(
            "dyadic-2d", ("carpet", 8), thetas=(0.5, 1.0), deltas=(0.1, 0.03, 0.01)
        ),
        Workload("certificate", ("carpet", 8), certificate=(0.8, 0.05, 0.5)),
    )
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "carpet.points_s": "s",
    "estimate.fp_points_s": "s",
    "core.ingest_s": "s",
    "core.points": "count",
    "estimate.spectrum_s": "s",
    "estimate.cells": "count",
    "estimate.cell_s": "s",
    "estimate.cell_s_sum": "s",
    "estimate.fit_s": "s",
    "estimate.evals_per_cell": "count",
    "covers.eval_s": "s",
    "covers.eval_s_sum": "s",
    "covers.evals": "count",
    "covers.busy_s": "s",
    "covers.cover_sets": "count",
    "frostman.build_s": "s",
    "frostman.check_s": "s",
    "frostman.atoms": "count",
    "frostman.probes": "count",
    "frostman.pair_evals": "count",
    "frostman.probe_us": "us",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "machine.slowdown": "ratio",
    "machine.raw_wall_s": "s",
}


def load_dimspect():
    """Import dimspect from this checkout's src/, with numeric libraries on one thread."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "dimspect" / "__init__.py").is_file():
        print(f"error: no dimspect package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import dimspect

    if Path(dimspect.__file__).resolve().parent != (src / "dimspect").resolve():
        print(f"error: dimspect was imported from {dimspect.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return dimspect


# ---------------------------------------------------------------- machine speed


def ball_kernel() -> None:
    """A fixed ball-count scan, like the certificate's ball-mass probes."""
    x = (0.5, 0.5)
    for _ in range(3):
        math.fsum(
            1.0 for p in _BALL_POINTS if math.fsum((a - b) ** 2 for a, b in zip(p, x)) <= 0.1
        )


def sweep_kernel() -> None:
    """A fixed right-to-left min-plus sweep over jump tables, like the interval DP."""
    powers = [d**0.5 for d in _SWEEP_MENU]
    cost = [0.0] * (_SWEEP_STATES + 1)
    count = [0] * (_SWEEP_STATES + 1)
    for i in range(_SWEEP_STATES - 1, -1, -6):
        best = None
        for j in range(len(_SWEEP_MENU) - 1, -1, -1):
            nxt = _SWEEP_JUMP[j][i]
            cand = (cost[nxt] + powers[j], count[nxt] + 1, -_SWEEP_MENU[j])
            if best is None or cand < best:
                best = cand
        cost[i], count[i] = best[0], best[1]


PROBE_KERNELS = {"ball": ball_kernel, "sweep": sweep_kernel}


class SpeedProbe:
    """Times the PROBE_KERNELS in turn from a timer signal every PROBE_PERIOD_S while active.

    The signal's handler runs between two bytecodes of whatever the run is
    doing, library calls included, so the probes sample the machine's
    speed all through the run. Each probe runs its kernel twice and times
    the second run, so that the kernel, like the library's hot loops it
    stands for, runs on data already in the caches. clock() is perf_counter less the time spent
    in the handler, so spans and set-ups timed with it hold only their own
    work.
    """

    def __init__(self, period: float = PROBE_PERIOD_S) -> None:
        self.period = period
        self.times: list[tuple[str, float]] = []  # (kernel, seconds) in order
        self.paused = 0.0
        self._kernels = list(PROBE_KERNELS.items())
        self._active = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        t0 = time.perf_counter()
        name, kernel = self._kernels[len(self.times) % len(self._kernels)]
        kernel()  # untimed: brings the kernel's data back into the caches
        t1 = time.perf_counter()
        kernel()
        self.times.append((name, time.perf_counter() - t1))
        signal.setitimer(signal.ITIMER_REAL, self.period)
        self.paused += time.perf_counter() - t0

    def clock(self) -> float:
        """Seconds of perf_counter outside the probe's handler."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if self.paused == paused:  # no probe ran in between
                return now - paused

    def slowdown(self, since: int, until: int | None = None) -> float:
        """The machine's slowdown from the since-th probe to before the until-th.

        A probe's slowdown is its kernel's time over the kernel's
        PROBE_REF_S, and the machine's speed at that moment is its inverse.
        Probes come at even steps of time, so the mean speed over a stretch
        is the mean of those inverses: each kernel's slowdown over the
        stretch is the harmonic mean of its probes' slowdowns. The machine's
        is the geometric mean over the kernels. A kernel with no probe in
        that range uses all its probes so far; with none at all, the
        slowdown is 1.
        """
        ratios = []
        for name in PROBE_KERNELS:
            times = [t for k, t in self.times[since:until] if k == name]
            times = times or [t for k, t in self.times if k == name]
            if times:
                ratios.append(statistics.harmonic_mean(times) / PROBE_REF_S[name])
        return statistics.geometric_mean(ratios) if ratios else 1.0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# ---------------------------------------------------------------- tracing


class Tracer:
    """Spans (name, start, end, parent) of one solve, kept in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(
            {"id": sid, "name": name, "start": self.clock(), "end": None, "parent": parent}
        )
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = self.clock()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    @contextlib.contextmanager
    def wrapping(self, module, attr: str, span_name: str, note=None):
        """Record a span around every call of module.attr made while active.

        note(result) returns fields stored on the span. A public name that
        the module no longer looks up is left alone; its spans are then
        absent.
        """
        original = getattr(module, attr, None)
        if original is None:
            yield
            return

        def traced(*args, **kwargs):
            with self.span(span_name):
                result = original(*args, **kwargs)
                if note is not None:
                    self.spans[self._stack[-1]].update(note(result))
                return result

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)


# ---------------------------------------------------------------- set-up


def set_up(ds, wl: Workload, rnd: random.Random, clock=time.perf_counter):
    """Generate the point list, shuffle it and ingest it.

    Returns (cloud, generation seconds, ingest seconds); the shuffle is not
    timed.
    """
    t0 = clock()
    if wl.cloud[0] == "fp":
        _, p, delta, theta_min = wl.cloud
        base = ds.fp_points(p, delta, theta_min=theta_min)
    else:
        m, n, digits = CARPET
        base = ds.carpet_points(ds.CarpetSpec.create(m, n, list(digits)), wl.cloud[1])
    t1 = clock()
    pts = list(base.points)
    rnd.shuffle(pts)
    t2 = clock()
    cloud = ds.PointCloud.from_points(pts, dimension_n=base.dimension_n)
    t3 = clock()
    return cloud, t1 - t0, t3 - t2


# ---------------------------------------------------------------- solving


def solve(ds, wl: Workload, cloud, seed: int, clock=time.perf_counter):
    """Run the workload's library calls once. Returns (seconds, tracer, outputs).

    Estimator outputs are ((theta, lower, upper), ...). Certificate outputs
    are a dict of the measure's shape and the checker's verdict. Spans are
    recorded around the harness's calls and around each call of the public
    names critical_exponent and optimal_cover_dyadic, as estimate_spectrum
    looks them up; parts_of() times the solve's parts from them.
    """
    tracer = Tracer(clock)
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            tracer.wrapping(ds.estimate, "critical_exponent", "estimate.cell", _cell_fields)
        )
        stack.enter_context(tracer.wrapping(ds.estimate, "optimal_cover_dyadic", "covers.dyadic"))
        gc.collect()
        t0 = clock()
        out = _calls(ds, wl, cloud, seed, tracer.span)
        return clock() - t0, tracer, out


def parts_of(tracer: Tracer) -> dict:
    """Seconds of each timed part of one solve.

    The parts of an estimator solve are each optimal_cover_dyadic call,
    keyed (theta, delta, i) for the i-th call of its cell; the rest of each
    critical_exponent call, keyed (theta, delta, "self"); and "rest", the
    time of estimate_spectrum outside critical_exponent (drift fit and row
    assembly, or the whole call if it no longer calls critical_exponent
    through its module). A certificate solve has one part per call.
    """
    parts = {}
    cells = {}
    calls = {}
    for span in tracer.spans:
        seconds = span["end"] - span["start"]
        if span["name"] == "estimate.cell":
            cell = (span["theta"], span["delta"])
            cells[span["id"]] = cell
            parts[(*cell, "self")] = seconds
        elif span["name"] == "covers.dyadic" and span["parent"] in cells:
            cell = cells[span["parent"]]
            calls[cell] = calls.get(cell, -1) + 1
            parts[(*cell, calls[cell])] = seconds
            parts[(*cell, "self")] -= seconds
    spectrum = tracer.durations("estimate.spectrum")
    if spectrum:
        parts["rest"] = sum(spectrum) - sum(parts.values())
    for name in ("frostman.build", "frostman.check"):
        parts.update({name: d for d in tracer.durations(name)})
    return parts


def median_parts(solves) -> dict:
    """Each part's median seconds over the given solves."""
    seen = {}
    for got in solves:
        for key, seconds in got.parts.items():
            seen.setdefault(key, []).append(seconds)
    return {key: statistics.median(values) for key, values in seen.items()}


def span_cost(repeats: int = 5, calls: int = 2000) -> float:
    """Seconds one recorded span adds to a call: the fastest of several timings."""
    def bare():
        return None

    holder = type("Holder", (), {"f": staticmethod(bare)})
    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        with tracer.wrapping(holder, "f", "probe"):
            t0 = time.perf_counter()
            for _ in range(calls):
                holder.f()
            wrapped = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        costs.append((wrapped - (time.perf_counter() - t0)) / calls)
    return min(costs)


def _cell_fields(result) -> dict:
    return {"theta": result.theta, "delta": result.delta, "s_star": result.s_star}


def _calls(ds, wl: Workload, cloud, seed: int, span):
    if wl.is_estimate:
        with span("estimate.spectrum"):
            spectrum = ds.estimate_spectrum(cloud, wl.thetas, wl.deltas)
        return tuple((s.theta, s.lower, s.upper) for s in spectrum.samples)
    s, delta, theta = wl.certificate
    with span("frostman.build"):
        result = ds.build_frostman_measure(cloud, s, delta, theta, seed=seed)
    with span("frostman.check"):
        report = ds.check_mdp(
            [(result.range.lo, result.measure)],
            s=s,
            theta=theta,
            a=1.0 - MASS_TOL,
            c=result.constant,
            seed=seed,
        )
    return {
        "atoms": len(result.measure.atoms),
        "base_level": result.cascade.base_level,
        "stop_level": result.cascade.stop_level,
        "total_mass": result.measure.total,
        "ok": report.ok,
        "violations": sum(e.violations for e in report.entries),
    }


def admissible_cells(ds, wl: Workload) -> dict[float, list[float]]:
    """theta -> the deltas estimate_spectrum solves for it (the others are too deep)."""
    cells = {}
    for theta in wl.thetas:
        row = []
        for delta in wl.deltas:
            try:
                ds.ScaleRange(delta, theta)
            except ds.ScaleRangeTooDeepError:
                continue
            row.append(delta)
        cells[theta] = row
    return cells


# ---------------------------------------------------------------- checking


def exact_band(ds, wl: Workload) -> dict[float, tuple[float, float]]:
    """theta -> the known [lower, upper] values an estimate is compared with."""
    if wl.cloud[0] == "fp":
        spectrum = ds.sequence_spectrum(wl.cloud[1], wl.thetas)
    else:
        m, n, digits = CARPET
        spectrum = ds.carpet_spectrum(ds.CarpetSpec.create(m, n, list(digits)), wl.thetas)
    return {s.theta: (s.lower, s.upper) for s in spectrum.samples}


def abs_error(ds, wl: Workload, outputs) -> float:
    """Largest distance of an estimate from the exact value or known band."""
    bands = exact_band(ds, wl)
    return max(
        max(0.0, bands[theta][0] - v, v - bands[theta][1])
        for theta, lower, upper in outputs
        for v in (lower, upper)
    )


def check_outputs(wl: Workload, outputs, reference, first) -> list[tuple[object, str]]:
    """Failed checks on one solve's outputs as (where, message); empty when correct.

    where is the theta row of an estimator sample, "build" or "check" for
    a certificate call, or None for the whole solve. reference is the
    workload's entry in reference.json; first is the outputs of the run's
    first solve, which used another shuffle of the points, so estimator
    outputs must equal it exactly.
    """
    problems = []
    if wl.is_estimate:
        ref = {row["theta"]: row for row in reference["samples"]}
        thetas = [row[0] for row in outputs]
        if thetas != sorted(ref):
            return [(None, f"thetas {thetas} != reference {sorted(ref)}")]
        for i, (theta, lower, upper) in enumerate(outputs):
            row = ref[theta]
            for label, value in (("lower", lower), ("upper", upper)):
                if abs(value - row[label]) > row["tol"]:
                    problems.append((theta, (
                        f"theta={theta} {label}={value!r} differs from reference "
                        f"{row[label]!r} by more than {row['tol']:.3g}"
                    )))
                if wl.sequence_gate is not None:
                    exact = theta / (wl.cloud[1] + theta)
                    if abs(value - exact) > wl.sequence_gate:
                        problems.append((theta, (
                            f"theta={theta} {label}={value!r} is not within "
                            f"{wl.sequence_gate} of theta/(p+theta)={exact!r}"
                        )))
            if first is not None and outputs[i] != first[i]:
                problems.append((theta, f"theta={theta} differs between two shuffles of the points"))
        return problems
    for key in ("atoms", "base_level", "stop_level"):
        if outputs[key] != reference[key]:
            problems.append(("build", f"{key}={outputs[key]} != reference {reference[key]}"))
    if abs(outputs["total_mass"] - 1.0) > MASS_TOL:
        problems.append(
            ("build", f"total mass {outputs['total_mass']!r} is not 1 within {MASS_TOL}")
        )
    if not outputs["ok"] or outputs["violations"]:
        problems.append(("check", f"check_mdp failed with {outputs['violations']} violations"))
    return problems


def failed_operations(wl: Workload, cells, problems) -> int:
    """Operations lost to the problems: the cells of failing theta rows, or certificate calls."""
    where = {w for w, _ in problems}
    if not wl.is_estimate:
        return len(where)
    rows = set(cells) if None in where else where
    return sum(len(cells[theta]) for theta in rows)


# ---------------------------------------------------------------- runs


@dataclass
class Solve:
    """One timed solve: its seconds, parts, outputs and, when kept, cloud and spans.

    seconds and parts are raw until rescale() divides them by a slowdown.
    """

    seconds: float
    parts: dict
    outputs: object
    cloud: object
    tracer: Tracer | None
    raw_seconds: float = 0.0
    slowdown: float = 1.0

    def rescale(self, slowdown: float) -> None:
        self.raw_seconds, self.slowdown = self.seconds, slowdown
        self.seconds /= slowdown
        self.parts = {key: seconds / slowdown for key, seconds in self.parts.items()}


@dataclass
class RunState:
    """What one benchmark run has counted so far."""

    attempted: int = 0
    failed: int = 0
    first: object = None
    last: object = None
    errors: list = field(default_factory=list)


def run_solve(ds, wl, cloud, seed, reference, cells, state: RunState, keep: bool, clock):
    """One solve with its correctness check. Returns a Solve, or None if it raised.

    keep holds on to the cloud and spans, which only the per-layer report
    needs; other solves drop them, so that they do not add to peak RSS.
    """
    per_solve = sum(len(r) for r in cells.values()) if wl.is_estimate else 2
    state.attempted += per_solve
    try:
        seconds, tracer, outputs = solve(ds, wl, cloud, seed, clock)
    except Exception as exc:  # a solve that raises counts all its operations as failed
        state.failed += per_solve
        state.errors.append(f"{type(exc).__name__}: {exc}")
        return None
    problems = check_outputs(wl, outputs, reference, state.first)
    if state.first is None and not problems:
        state.first = outputs
    state.last = outputs
    state.failed += failed_operations(wl, cells, problems)
    state.errors.extend(message for _, message in problems)
    if keep:
        return Solve(seconds, parts_of(tracer), outputs, cloud, tracer)
    return Solve(seconds, parts_of(tracer), outputs, None, None)


def measure(ds, wl: Workload, seed: int, seconds: float, trace: bool, reference) -> dict:
    """Set up and solve in turn for about `seconds`; return the run's result.

    A step is SETUPS_PER_SOLVE fresh set-ups, so set-up times are sampled
    across the whole run, and one solve on the last cloud they produced.
    The solve's times are divided by the machine's slowdown over the
    solve, and the set-ups' by that over the whole step: the set-ups alone
    are too short for more than a few probes.
    With trace, the result holds the per-layer metrics instead of the
    end-to-end ones, and the spans are written out.
    """
    with SpeedProbe() as probe:
        return _measure(ds, wl, seed, seconds, trace, reference, probe)


def _measure(ds, wl, seed, seconds, trace, reference, probe: SpeedProbe) -> dict:
    rnd = random.Random(seed)
    cells = admissible_cells(ds, wl)
    state = RunState()
    setup_s = []
    solves: list[Solve] = []
    tries = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        since = len(probe.times)
        setups = []
        for _ in range(SETUPS_PER_SOLVE):
            cloud, gen, ingest = set_up(ds, wl, rnd, probe.clock)
            setups.append((gen + ingest, gen, ingest))
        solving = len(probe.times)
        got = run_solve(ds, wl, cloud, seed, reference, cells, state, trace, probe.clock)
        slowdown = probe.slowdown(since)
        setup_s.extend(tuple(x / slowdown for x in times) for times in setups)
        if got is not None:
            got.rescale(probe.slowdown(solving))
            solves.append(got)
        tries += 1
        step = time.perf_counter() - t0
        if (solves or tries >= 3) and time.perf_counter() - start + step > seconds:
            break

    result = {
        "workload": wl.name,
        "seed": seed,
        "solves": tries,
        "attempted": state.attempted,
        "failed": state.failed,
        "errors": state.errors[:20],
        "metrics": {},
    }
    if not solves:
        return result
    typical = median_parts(solves)
    result["solve_s"] = sorted(x.seconds for x in solves)
    result["raw_solve_s"] = statistics.median(x.raw_seconds for x in solves)
    result["slowdown"] = statistics.median(x.slowdown for x in solves)
    result["probes"] = len(probe.times)
    result["parts"] = len(typical)
    if wl.is_estimate:
        result["max_abs_err"] = abs_error(ds, wl, state.first or state.last)
    setup_median = [statistics.median(column) for column in zip(*setup_s)]
    if not trace:
        result["metrics"] = {
            "wall_s": sum(typical.values()),
            "setup_s": setup_median[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result

    metrics = layer_metrics(ds, wl, solves, typical, probe)
    metrics["carpet.points_s"] = setup_median[1] if wl.cloud[0] == "carpet" else 0.0
    metrics["estimate.fp_points_s"] = setup_median[1] if wl.cloud[0] == "fp" else 0.0
    metrics["core.ingest_s"] = setup_median[2]
    metrics["core.points"] = len(solves[0].cloud)
    metrics["machine.slowdown"] = result["slowdown"]
    metrics["machine.raw_wall_s"] = result["raw_solve_s"]
    result["metrics"] = metrics
    write_spans(wl, seed, solves)
    return result


def layer_metrics(ds, wl: Workload, solves: list[Solve], typical: dict, probe: SpeedProbe) -> dict:
    """Per-layer numbers from the median parts, plus one timed cover at each s*.

    The layer times are sums of the parts that wall_s adds up, so they
    account for trace.wall_s exactly. trace.overhead_s is what recording
    the spans of one solve costs. Layers a workload does not reach report 0.
    """
    m = {name: 0 for name in PER_LAYER}
    first = solves[0]
    m["trace.wall_s"] = sum(typical.values())
    m["trace.overhead_s"] = span_cost() * len(first.tracer.spans)
    if wl.is_estimate:
        cell_s = {}
        for key, seconds in typical.items():
            if key != "rest":
                cell_s[key[:2]] = cell_s.get(key[:2], 0.0) + seconds
        covers = [s for key, s in typical.items() if key != "rest" and key[2] != "self"]
        evals, sets = cover_at_roots(ds, first.tracer, first.cloud, probe)
        m["estimate.spectrum_s"] = sum(typical.values())
        m["estimate.cells"] = len(cell_s)
        m["estimate.cell_s"] = statistics.median(cell_s.values()) if cell_s else 0.0
        m["estimate.cell_s_sum"] = sum(cell_s.values())
        m["estimate.fit_s"] = typical.get("rest", 0.0)
        m["covers.evals"] = len(covers)
        m["covers.busy_s"] = sum(covers)
        m["covers.eval_s"] = statistics.median(evals) if evals else 0.0
        m["covers.eval_s_sum"] = sum(evals)
        m["covers.cover_sets"] = sets
        if evals:
            m["estimate.evals_per_cell"] = m["estimate.cell_s_sum"] / sum(evals)
        return m

    atoms = first.outputs["atoms"]
    # Probe counts follow build_frostman_measure's and check_mdp's defaults:
    # the builder probes both band edges at every stride-th atom plus
    # ball_samples random balls, the checker ball_samples balls per measure.
    # They are computed, not counted.
    ball_samples = 200
    stride = max(1, atoms // 200)
    probes = 2 * math.ceil(atoms / stride) + 2 * ball_samples
    m["frostman.build_s"] = typical["frostman.build"]
    m["frostman.check_s"] = typical["frostman.check"]
    m["frostman.atoms"] = atoms
    m["frostman.probes"] = probes
    m["frostman.pair_evals"] = atoms * probes
    m["frostman.probe_us"] = (m["frostman.build_s"] + m["frostman.check_s"]) / probes * 1e6
    return m


def cover_at_roots(ds, tracer: Tracer, cloud, probe: SpeedProbe):
    """Time one public optimal-cover call at each cell's s*, after the timed solves.

    The solve recorded each cell's s* on its critical_exponent span.
    The cover is optimal_cover_1d for 1-D clouds with theta > 0 and
    optimal_cover_dyadic otherwise, as estimate_spectrum chooses them.
    The times are divided by the slowdown over the calls. Returns
    (seconds per cell, total cover sets).
    """
    evals, sets = [], 0
    since = len(probe.times)
    for span in tracer.spans:
        if span["name"] != "estimate.cell":
            continue
        theta = span["theta"]
        rng = ds.ScaleRange(span["delta"], theta)
        gc.collect()
        t0 = probe.clock()
        if cloud.dimension_n == 1 and theta > 0.0:
            cover = ds.optimal_cover_1d(cloud, rng, span["s_star"])
        else:
            cover = ds.optimal_cover_dyadic(cloud, rng, span["s_star"])
        evals.append(probe.clock() - t0)
        sets += len(cover.sets)
    slowdown = probe.slowdown(since)
    return [seconds / slowdown for seconds in evals], sets


def write_spans(wl: Workload, seed: int, solves: list[Solve]) -> None:
    """Write the spans of every solve of a traced run, one JSON object a line."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for number, got in enumerate(solves):
            for span in got.tracer.spans:
                fh.write(json.dumps({"solve": number, **span}) + "\n")


# ---------------------------------------------------------------- output


def summary(result: dict, trace: bool) -> dict:
    """The contract's last-line object for one run."""
    names = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    return {
        "correct": result["failed"] == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names.items()
            if name in metrics
        },
    }


def print_report(result: dict, trace: bool) -> None:
    names = PER_LAYER if trace else END_TO_END
    fail_ratio = result["failed"] / result["attempted"]
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"trace {int(trace)}  solves {result['solves']}"
    )
    for name, unit in names.items():
        if name in result["metrics"]:
            print(f"  {name:<26} {result['metrics'][name]:.6g} {unit}")
    if "max_abs_err" in result:
        print(f"  {'max_abs_err':<26} {result['max_abs_err']:.6g} dim")
    if "solve_s" in result:
        times = result["solve_s"]
        print(
            f"  {'whole solves':<26} fastest {times[0]:.4g} s, median "
            f"{statistics.median(times):.4g} s, slowest {times[-1]:.4g} s of {len(times)}; "
            f"{result['parts']} timed parts"
        )
        print(
            f"  {'raw median solve':<26} {result['raw_solve_s']:.4g} s at a median slowdown "
            f"of {result['slowdown']:.3f} ({result['probes']} probes)"
        )
    print(
        f"  {'fail_ratio':<26} {fail_ratio:.6g} fraction "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    for err in result["errors"]:
        print(f"  FAILED: {err}")


def load_reference() -> dict:
    with REFERENCE_FILE.open() as fh:
        return json.load(fh)


def run_all(args) -> int:
    """Run every workload, each in its own process so that peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="measuring time (default: run_seconds of BENCHMARK.json)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    ds = load_dimspect()
    wl = WORKLOADS[args.workload]
    reference = load_reference()[wl.name]
    result = measure(ds, wl, args.seed, args.seconds, bool(args.trace), reference)
    print_report(result, bool(args.trace))
    print(json.dumps(summary(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
