"""Command-line front end: ingestion, orchestration, CSV/JSON output.

Exit codes: 0 ok, 2 usage, parse or I/O failure (a file that cannot be
read, decoded as UTF-8 or written), 3 internal invariant violation,
4 numeric-range refusal (among them an estimate that falls in theta by
more than TOL_MONO_ESTIMATED: the deltas are too coarse for the cloud).
The only randomness is the probe sampling of frostman, behind its --seed
(default 0); identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

from .carpet import CarpetSpec, carpet_points, carpet_spectrum
from .core import (
    DepthLimitError,
    DimensionSpectrum,
    DimspectError,
    EstimateNotMonotoneError,
    InvariantError,
    PointCloud,
    RangeTooNarrowError,
    ScaleRangeTooDeepError,
    ValidationError,
    theta_grid,
)
from .estimate import estimate_spectrum, flog_points, fp_points
from .formulas import sequence_spectrum
from .frostman import build_frostman_measure, check_mdp

USAGE_EXIT = 2
INVARIANT_EXIT = 3
RANGE_EXIT = 4

# Most values a start:stop:step grid may hold; the count is checked
# before any value is built.
MAX_GRID = 10**6


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def parse_grid(spec: str) -> list[float]:
    """Theta grid: 'start:stop:step' (inclusive) or a comma list, read as core.theta_grid reads it.

    Only a range snaps values within 1e-12 of 0 or 1 to the endpoint; a
    comma list is read as given, so a repeated theta is refused.
    """
    try:
        if ":" in spec:
            parts = [float(v) for v in spec.split(":")]
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = parts
            if stop < start:
                raise ValueError("stop below start")
            if start == stop:
                values = [start]
            else:
                if step <= 0:
                    raise ValueError("step must be positive")
                count = (stop - start) / step
                if not count + 1 <= MAX_GRID:  # NaN and inf too
                    raise ValueError(f"more than {MAX_GRID} values")
                count = int(round(count))
                values = [start + i * step for i in range(count + 1)]
                values = [v for v in values if v <= stop + 1e-12]
            # snap accumulated step error at the endpoints
            values = [0.0 if abs(v) < 1e-12 else 1.0 if abs(v - 1.0) < 1e-12 else v for v in values]
        else:  # as given, but -0 reads as 0
            values = [float(v) + 0.0 for v in spec.split(",") if v.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse grid {spec!r}: {exc}") from exc
    if not values:
        raise ValidationError(f"grid {spec!r} is empty")
    return theta_grid(values)


def parse_deltas(spec: str) -> list[float]:
    try:
        return [float(v) for v in spec.split(",") if v.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse deltas {spec!r}: {exc}") from exc


def parse_points_text(text: str) -> PointCloud:
    """One point per line; commas or whitespace separate coordinates.

    '#' starts a comment, blank lines are ignored.
    """
    pts = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            pts.append(tuple(float(v) for v in line.replace(",", " ").split()))
        except ValueError as exc:
            raise ValidationError(f"bad point on line {lineno}: {raw!r}") from exc
    return PointCloud.from_points(pts)


def read_points(path: str) -> PointCloud:
    if path == "-":
        return parse_points_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_points_text(fh.read())


def read_carpet_spec(path: str) -> CarpetSpec:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:  # ValueError: bad JSON or an integer past int's digit limit; RecursionError: deep nesting
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed carpet JSON: {exc}") from exc
    return CarpetSpec.from_json_dict(doc)


def spectrum_to_csv(spectrum: DimensionSpectrum, metadata: dict | None = None) -> str:
    lines = []
    if metadata:
        for key, value in metadata.items():
            lines.append(f"# {key}: {value}")
    lines.append("theta,lower,upper,method")
    for s in spectrum.samples:
        lines.append(f"{_fmt(s.theta)},{_fmt(s.lower)},{_fmt(s.upper)},{s.method}")
    return "\n".join(lines) + "\n"


def spectrum_to_json(spectrum: DimensionSpectrum, metadata: dict | None = None) -> str:
    doc = spectrum.to_json_dict()
    if metadata:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2) + "\n"


def _write(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_spectrum(spectrum, args, metadata: dict | None = None) -> None:
    if args.format == "json":
        _write(args.out, spectrum_to_json(spectrum, metadata))
    else:
        _write(args.out, spectrum_to_csv(spectrum, metadata))


def cmd_sequence(args) -> int:
    grid = parse_grid(args.grid)
    _emit_spectrum(sequence_spectrum(args.p, grid), args)
    return 0


def cmd_carpet(args) -> int:
    spec = read_carpet_spec(args.spec)
    grid = parse_grid(args.grid)
    spectrum = carpet_spectrum(spec, grid, assouad_dim=args.assouad)
    _emit_spectrum(spectrum, args)
    return 0


def cmd_estimate(args) -> int:
    points = read_points(args.points)
    grid = parse_grid(args.grid)
    deltas = parse_deltas(args.deltas)
    spectrum = estimate_spectrum(
        points,
        grid,
        deltas,
        threshold=args.threshold,
        scale_menu_size=args.menu,
    )
    metadata = {
        "deltas": ",".join(_fmt(d) for d in deltas),
        "threshold": _fmt(args.threshold),
        "menu_size": args.menu,
        "quantifiers": "min/max of drift-corrected exponents over the two smallest admissible deltas",
    }
    _emit_spectrum(spectrum, args, metadata)
    return 0


def cmd_frostman(args) -> int:
    points = read_points(args.points)
    result = build_frostman_measure(
        points, args.s, args.delta, args.theta, ball_samples=args.samples, seed=args.seed
    )
    report = check_mdp(
        [(result.range.lo, result.measure)],
        s=args.s,
        theta=args.theta,
        a=1.0 - 1e-9,
        c=result.constant,
        ball_samples=args.samples,
        seed=args.seed,
    )
    doc = {
        "measure": result.measure.to_json_dict(),
        "constant_c": result.constant,
        "builder_worst_ratio": result.worst_ratio,
        "report": report.to_json_dict(),
    }
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_gen(args) -> int:
    if args.family == "fp":
        if args.p is None:
            raise ValidationError("gen --family fp needs --p")
        cloud = fp_points(args.p, args.delta, theta_min=args.theta_min)
        header = (
            f"# family: fp p={_fmt(args.p)} delta={_fmt(args.delta)}"
            f" theta_min={_fmt(args.theta_min)}"
        )
    elif args.family == "flog":
        cloud = flog_points(args.delta)
        header = f"# family: flog delta={_fmt(args.delta)}"
    elif args.family == "carpet-points":
        if args.spec is None:
            raise ValidationError("gen --family carpet-points needs --spec")
        cloud = carpet_points(read_carpet_spec(args.spec), args.depth)
        header = f"# family: carpet-points depth={args.depth}"
    else:
        raise ValidationError(f"unknown family {args.family!r}")
    lines = [header]
    lines.extend(" ".join(map(repr, p)) for p in cloud.array.tolist())
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimspect",
        description="Dimension spectra between Hausdorff and box dimension",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--out", "-o", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_seq = sub.add_parser("sequence", help="exact spectrum of {0} u {1/k**p}")
    p_seq.add_argument("--p", type=float, required=True)
    p_seq.add_argument("--grid", default="0:1:0.01")
    add_output(p_seq)
    p_seq.set_defaults(func=cmd_sequence)

    p_car = sub.add_parser("carpet", help="two-sided carpet bounds from a spec JSON")
    p_car.add_argument("--spec", required=True, help='JSON {"m":2,"n":3,"digits":[[0,0],...]}')
    p_car.add_argument("--grid", default="0:1:0.01")
    p_car.add_argument("--assouad", type=float, default=None,
                       help="optional known Assouad dimension for the lower bound")
    add_output(p_car)
    p_car.set_defaults(func=cmd_carpet)

    p_est = sub.add_parser("estimate", help="numerical spectrum of a point file")
    p_est.add_argument("--points", required=True, help="point file path or - for stdin")
    p_est.add_argument("--grid", default="0.2:1:0.1")
    p_est.add_argument("--deltas", default="1e-2,1e-3,1e-4")
    p_est.add_argument("--threshold", type=float, default=1.0)
    p_est.add_argument("--menu", type=int, default=16, help="diameter menu size")
    add_output(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_fro = sub.add_parser("frostman", help="build and verify a capped dyadic measure")
    p_fro.add_argument("--points", required=True)
    p_fro.add_argument("--s", type=float, required=True)
    p_fro.add_argument("--delta", type=float, required=True)
    p_fro.add_argument("--theta", type=float, required=True)
    p_fro.add_argument("--samples", type=int, default=200)
    p_fro.add_argument("--seed", type=int, default=0)
    p_fro.add_argument("--out", "-o", default=None)
    p_fro.set_defaults(func=cmd_frostman)

    p_gen = sub.add_parser("gen", help="materialize built-in point families")
    p_gen.add_argument("--family", choices=("fp", "flog", "carpet-points"), required=True)
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--delta", type=float, default=1e-4,
                       help="working scale the truncation is coupled to")
    p_gen.add_argument("--theta-min", type=float, default=1.0, dest="theta_min",
                       help="smallest theta the points will be estimated at; "
                            "deeper restriction needs a longer truncation")
    p_gen.add_argument("--spec", default=None, help="carpet spec JSON (carpet-points)")
    p_gen.add_argument("--depth", type=int, default=4)
    p_gen.add_argument("--out", "-o", default=None)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ScaleRangeTooDeepError, RangeTooNarrowError, DepthLimitError, EstimateNotMonotoneError
    ) as exc:
        print(f"dimspect: {exc}", file=sys.stderr)
        return RANGE_EXIT
    except InvariantError as exc:
        print(f"dimspect: invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_EXIT
    except (ValidationError, DimspectError, OSError, UnicodeDecodeError) as exc:
        print(f"dimspect: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
