#!/usr/bin/env python3
"""End-to-end streaming dispatch benchmark.

Streams a seeded arrival stream through ``repro.service.StreamingEngine``
into ``Dispatcher.dispatch_frame`` on one of three city workloads (see
``scenarios.py``) and prints one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rush_hour --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats set-up + stream episodes until ``--seconds`` have
passed (at least two) and reports the end-to-end metrics.  ``--trace 1``
runs untraced and traced episodes in pairs and reports the per-layer
metrics of the traced ones (see ``layers.py``).  Every timing is
machine-calibrated per episode (``calibration.py``).  Every episode must
pass the correctness gate, and all episodes of a run must produce the
same deterministic outputs, or the run reports ``"correct": false``.
Detail (raw seconds, probe statistics, deterministic outputs, platform)
is printed as one ``info`` line before the final JSON line.

``--smoke`` shrinks every workload to a tiny city (self-test scale).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: every end-to-end metric: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s_per_sim_hour": "s",
    "batch_ms_p50": "ms",
    "batch_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "unserved_frac": "fraction",
    "utility_per_request": "utility",
    "pickup_wait_p95_min": "min",
}


def _import_program():
    """Import the program under test; ``None`` if the checkout lacks it."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.service  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return None
    import episode
    import scenarios

    return episode, scenarios


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics:
    the same quantity as a plain percentile, with a smaller run-to-run
    spread in a steep tail, where a single order statistic jumps.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    if min(a, b) < 1:  # too few samples for the weights: plain percentile
        return float(np.percentile(x, 100 * p))
    t = np.linspace(0.0, 1.0, 200_001)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - np.nanmax(log_pdf[np.isfinite(log_pdf)]))
    pdf[~np.isfinite(pdf)] = 0.0
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def _end_to_end(episodes) -> Dict[str, float]:
    batches = [t for ep in episodes for t in ep.batch_cal_s]
    first = episodes[0].outputs
    return {
        "setup_s": statistics.median(ep.setup_cal_s["total_s"] for ep in episodes),
        "wall_s_per_sim_hour": statistics.median(
            sum(ep.batch_cal_s) / (ep.sim_minutes / 60.0) for ep in episodes
        ),
        "batch_ms_p50": hd_quantile(batches, 0.50) * 1e3,
        "batch_ms_p95": hd_quantile(batches, 0.95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unserved_frac": first["unserved_frac"],
        "utility_per_request": first["utility_per_request"],
        "pickup_wait_p95_min": first["pickup_wait_p95_min"],
    }


def _determinism_errors(episodes) -> List[str]:
    reference = episodes[0].outputs
    errors = []
    for index, ep in enumerate(episodes[1:], start=1):
        if ep.outputs != reference:
            diff = sorted(k for k in reference if ep.outputs.get(k) != reference[k])
            errors.append(f"episode {index} outputs differ from episode 0: {diff}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    program = _import_program()
    if program is None:
        return 2
    episode_mod, scenarios = program
    if args.trace:
        import layers  # the traced run's wrappers; untraced runs never load it
    if args.workload not in scenarios.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = scenarios.WORKLOADS[args.workload]
    if args.smoke:
        workload = scenarios.smoke(workload)

    out_dir = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    wall_start = time.perf_counter()
    tripgen = layers.TripgenTrace() if args.trace else None
    with tripgen if tripgen is not None else contextlib.nullcontext():
        inputs = scenarios.make_inputs(workload, args.seed)

    plain: list = []
    traced: list = []
    tracers: list = []
    errors: List[str] = []
    try:
        while True:
            plain.append(
                episode_mod.run_episode(workload, inputs, args.seed, out_dir)
            )
            if args.trace:
                tracers.append(layers.Tracer())
                traced.append(
                    episode_mod.run_episode(
                        workload, inputs, args.seed, out_dir, tracer=tracers[-1]
                    )
                )
            elapsed = time.perf_counter() - wall_start
            if elapsed >= args.seconds and len(plain) >= (1 if args.trace else 2):
                break
    except Exception:  # a run that raises counts as failed, traceback shown
        traceback.print_exc()
        errors.append("episode raised")

    done = plain + traced
    for ep in done:
        errors.extend(ep.errors)
    if done:
        errors.extend(_determinism_errors(done))
    correct = not errors and bool(plain)
    attempted = max(sum(len(ep.batch_s) for ep in done), 1)

    metrics: Dict[str, Dict[str, float]] = {}
    if correct:
        if args.trace:
            values = layers.per_layer(tracers, traced, plain, tripgen, out_dir)
            units = layers.PER_LAYER
        else:
            values = _end_to_end(plain)
            units = END_TO_END
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        }
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trips": inputs.trips,
        "episodes": len(plain),
        "traced_episodes": len(traced),
        "batches_per_episode": [len(ep.batch_s) for ep in plain],
        "triggers": plain[0].triggers if plain else {},
        "raw_setup_s": [sum(ep.setup_s.values()) for ep in plain],
        "raw_stream_s": [ep.stream_s for ep in plain],
        "cal_setup_s": [ep.setup_cal_s["total_s"] for ep in plain],
        "cal_stream_s": [sum(ep.batch_cal_s) for ep in plain],
        "calibration": [ep.calibrator.summary() for ep in plain],
        "outputs": plain[0].outputs if plain else None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "errors": errors,
        "run_wall_s": time.perf_counter() - wall_start,
    }
    print("info " + json.dumps(info, sort_keys=True))
    if not args.trace:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": 0 if correct else attempted,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
