#!/usr/bin/env python3
"""Write bench/reference.json: each workload's outputs at the current commit.

    python3 bench/capture_reference.py

Estimator samples are stored with a tolerance derived from the estimator's
bisection tolerance. Each cell's s* lies within BISECTION_TOL / 2 of the
root of its cost function, so two correct solvers may give values that
differ by up to BISECTION_TOL per cell. On a theta row with several
deltas, the drift fit s* - slope * u (u = 1/log(1/delta)) passes a
per-cell difference e_j on to the corrected value at delta_i as at most
e * (1 + u_i * sum_j |u_j - mean(u)| / sum_j (u_j - mean(u))**2); the
tolerance is BISECTION_TOL times the largest of these factors over the two
smallest deltas, which are the ones the estimate reads. Clamping and the
min/max over those two values do not enlarge a difference.
"""

from __future__ import annotations

import json
import math
import random
import sys

import run


def amplification(deltas: list[float]) -> float:
    """Worst-case gain from per-cell s* differences to a drift-corrected value."""
    if len(deltas) < 2:
        return 1.0
    us = [1.0 / math.log(1.0 / d) for d in deltas]
    mean = math.fsum(us) / len(us)
    var = math.fsum((u - mean) ** 2 for u in us)
    spread = math.fsum(abs(u - mean) for u in us)
    used = sorted(zip(deltas, us))[:2]
    return max(1.0 + u * spread / var for _, u in used)


def capture(ds, wl: run.Workload, bisection_tol: float) -> dict:
    cloud, _, _ = run.set_up(ds, wl, random.Random(0))
    _, _, outputs = run.solve(ds, wl, cloud, seed=0)
    if not wl.is_estimate:
        return {k: outputs[k] for k in ("atoms", "base_level", "stop_level")}
    cells = run.admissible_cells(ds, wl)
    samples = []
    for theta, lower, upper in outputs:
        deltas = cells[theta] if theta > 0.0 else []
        samples.append(
            {
                "theta": theta,
                "lower": lower,
                "upper": upper,
                "tol": bisection_tol * amplification(deltas),
                "deltas": cells[theta],
            }
        )
    return {"samples": samples}


def main() -> int:
    ds = run.load_dimspect()
    from dimspect.estimate import BISECTION_TOL

    reference = {
        "bisection_tol": BISECTION_TOL,
        **{name: capture(ds, wl, BISECTION_TOL) for name, wl in run.WORKLOADS.items()},
    }
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {run.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
