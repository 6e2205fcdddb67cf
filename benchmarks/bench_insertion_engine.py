#!/usr/bin/env python
"""Insertion-engine benchmark: zero-copy fast path vs reference Algorithm 1.

Measures, on candidate-rich schedules over a ``nyc_like`` network:

- ``plan`` — :func:`repro.core.insertion.plan_insertion` against
  :func:`repro.core.insertion.arrange_single_rider_reference`.  This is the
  solvers' inner loop (one call per rider-vehicle evaluation) and the
  headline number: the acceptance gate is a >= 5x speedup on the largest
  schedule size.
- ``arrange`` — the full fast path *including* materialising the winning
  sequence, against the reference.  Smaller ratio by construction (both
  sides pay the final ``_recompute``).
- ``cf_end_to_end`` — the CF solver (``run_cost_first``) on a complete
  instance, fast engine vs the reference engine monkey-patched into the
  scoring layer.  Skipped in ``--smoke`` runs.

Schedules are built by repeatedly inserting loose-deadline riders, so most
candidate positions stay viable — the regime where the reference path pays
one sequence copy + O(n) recompute per candidate pickup and the fast path
pays array reads.  Tight-deadline schedules short-circuit both paths and
measure nothing.

Usage::

    PYTHONPATH=src python benchmarks/bench_insertion_engine.py
    PYTHONPATH=src python benchmarks/bench_insertion_engine.py --smoke

Writes machine-readable results to ``BENCH_insertion.json`` at the repo
root (override with ``--out``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.insertion import (
    arrange_single_rider,
    arrange_single_rider_reference,
    plan_insertion,
)
from repro.core.requests import Rider
from repro.core.schedule import TransferSequence
from repro.obs import start_trace, stop_trace
from repro.obs import trace as _trace
from repro.perf import INSERTION_STATS
from repro.roadnet import nyc_like
from repro.roadnet.oracle import DistanceOracle

INF = float("inf")


# ----------------------------------------------------------------------
# workload construction
# ----------------------------------------------------------------------
def _random_rider(
    rng: random.Random,
    nodes: List[int],
    cost: Callable[[int, int], float],
    anchor: int,
    t0: float,
    rider_id: int,
    slack: float,
) -> Rider:
    """A rider whose deadlines leave room for detours (candidate-rich)."""
    while True:
        source = rng.choice(nodes)
        destination = rng.choice(nodes)
        if source == destination:
            continue
        to_source = cost(anchor, source)
        direct = cost(source, destination)
        if not (to_source < INF and direct < INF and direct > 0):
            continue
        pickup_deadline = t0 + slack * (to_source + direct) + rng.uniform(1.0, 5.0)
        dropoff_deadline = pickup_deadline + slack * direct + rng.uniform(1.0, 5.0)
        return Rider(
            rider_id=rider_id,
            source=source,
            destination=destination,
            pickup_deadline=pickup_deadline,
            dropoff_deadline=dropoff_deadline,
        )


def _build_schedule(
    rng: random.Random,
    nodes: List[int],
    cost: Callable[[int, int], float],
    origin: int,
    target_stops: int,
    capacity: int,
    slack: float,
) -> TransferSequence:
    """Grow a schedule to ``target_stops`` stops via feasible insertions."""
    seq = TransferSequence(origin=origin, start_time=0.0, capacity=capacity, cost=cost)
    rider_id = 0
    attempts = 0
    while len(seq) < target_stops:
        attempts += 1
        if attempts > 3000:
            raise RuntimeError(
                f"could not grow schedule to {target_stops} stops "
                f"(reached {len(seq)}); loosen the deadlines"
            )
        if len(seq):
            at = rng.randrange(len(seq))
            anchor, t0 = seq.stops[at].location, seq.arrive[at]
        else:
            anchor, t0 = origin, 0.0
        rider = _random_rider(rng, nodes, cost, anchor, t0, 10_000 + rider_id, slack)
        result = arrange_single_rider(seq, rider)
        if result is None:
            continue
        seq = result.sequence
        rider_id += 1
    return seq


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def _time_per_call(
    fn: Callable[[TransferSequence, Rider], object],
    items: List[Tuple[TransferSequence, Rider]],
    rounds: int,
) -> float:
    """Best-of-``rounds`` mean seconds per call (one warmup pass first)."""
    for seq, rider in items:  # warmup: caches, bytecode, branch history
        fn(seq, rider)
    best = INF
    for _ in range(rounds):
        start = time.perf_counter()
        for seq, rider in items:
            fn(seq, rider)
        best = min(best, time.perf_counter() - start)
    return best / len(items)


def _fast_arrange(seq: TransferSequence, rider: Rider) -> object:
    result = arrange_single_rider(seq, rider)
    if result is not None:
        result.sequence  # force materialisation: full-path comparison
    return result


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
def bench_insertion(
    seed: int, sizes: List[int], rounds: int, schedules_per_size: int, probes: int
) -> List[dict]:
    rng = random.Random(seed)
    network = nyc_like(seed=seed)
    oracle = DistanceOracle(network)
    cost = oracle.fast_cost_fn()
    nodes = sorted(network.nodes())
    cases: List[dict] = []

    for size in sizes:
        items: List[Tuple[TransferSequence, Rider]] = []
        for k in range(schedules_per_size):
            origin = rng.choice(nodes)
            seq = _build_schedule(
                rng, nodes, cost, origin, target_stops=size, capacity=3, slack=3.0
            )
            for j in range(probes):
                # anchor the probe somewhere along the schedule's own
                # timeline, otherwise long schedules (whose events happen
                # late) make every probe trivially infeasible and both
                # paths short-circuit without scanning anything
                at = rng.randrange(len(seq))
                items.append(
                    (
                        seq,
                        _random_rider(
                            rng,
                            nodes,
                            cost,
                            seq.stops[at].location,
                            seq.arrive[at],
                            20_000 + k * probes + j,
                            3.0,
                        ),
                    )
                )
        feasible = sum(1 for seq, rider in items if plan_insertion(seq, rider))

        ref_us = _time_per_call(arrange_single_rider_reference, items, rounds) * 1e6
        plan_us = _time_per_call(plan_insertion, items, rounds) * 1e6
        arrange_us = _time_per_call(_fast_arrange, items, rounds) * 1e6

        cases.append(
            {
                "name": "plan_vs_reference",
                "schedule_size": size,
                "calls": len(items),
                "feasible_fraction": round(feasible / len(items), 3),
                "fast_us": round(plan_us, 2),
                "ref_us": round(ref_us, 2),
                "speedup": round(ref_us / plan_us, 2),
            }
        )
        cases.append(
            {
                "name": "arrange_vs_reference",
                "schedule_size": size,
                "calls": len(items),
                "feasible_fraction": round(feasible / len(items), 3),
                "fast_us": round(arrange_us, 2),
                "ref_us": round(ref_us, 2),
                "speedup": round(ref_us / arrange_us, 2),
            }
        )
    return cases


def bench_cf_end_to_end(seed: int, rounds: int) -> dict:
    """CF solver wall-clock: fast engine vs reference engine."""
    from repro.core import scoring
    from repro.core.cost_first import run_cost_first
    from repro.core.scoring import SolverState
    from repro.workload import InstanceConfig, build_instance

    network = nyc_like(seed=seed)
    config = InstanceConfig(num_riders=150, num_vehicles=20, seed=seed)
    instance = build_instance(network, config)
    instance.cost(0, 1)  # trigger the APSP build outside the timed region

    def run_once() -> float:
        state = SolverState(instance)
        start = time.perf_counter()
        run_cost_first(state, instance.riders)
        return time.perf_counter() - start

    original = scoring.arrange_single_rider
    fast = min(run_once() for _ in range(rounds))
    try:
        scoring.arrange_single_rider = arrange_single_rider_reference
        ref = min(run_once() for _ in range(rounds))
    finally:
        scoring.arrange_single_rider = original

    return {
        "name": "cf_end_to_end",
        "num_riders": config.num_riders,
        "num_vehicles": config.num_vehicles,
        "fast_s": round(fast, 4),
        "ref_s": round(ref, 4),
        "speedup": round(ref / fast, 2),
    }


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, one round, no end-to-end case (CI wiring check)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_insertion.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="record a JSONL trace of the benchmark (inspect with "
             "'python -m repro.obs summary PATH'); the timed regions "
             "themselves stay uninstrumented",
    )
    args = parser.parse_args(argv)
    # fail on an unwritable destination now, not after minutes of timing
    args.out.parent.mkdir(parents=True, exist_ok=True)

    if args.smoke:
        sizes, rounds, per_size, probes = [6], 1, 2, 4
    else:
        sizes, rounds, per_size, probes = [8, 16, 24], 5, 6, 10

    if args.trace:
        start_trace(
            args.trace,
            meta={
                "tool": "bench_insertion_engine",
                "seed": args.seed,
                "smoke": args.smoke,
            },
        )
    INSERTION_STATS.reset()
    with _trace.span("bench.insertion", seed=args.seed):
        cases = bench_insertion(args.seed, sizes, rounds, per_size, probes)
    engine_stats = INSERTION_STATS.as_dict()
    if not args.smoke:
        with _trace.span("bench.cf_end_to_end"):
            cases.append(bench_cf_end_to_end(args.seed, rounds=3))
    if args.trace:
        for case in cases:
            _trace.counter(
                f"bench.speedup.{case['name']}", case["speedup"],
                schedule_size=case.get("schedule_size"),
            )
        stop_trace()
        print(f"trace written to {args.trace}")

    plan_cases = [c for c in cases if c["name"] == "plan_vs_reference"]
    headline = max(plan_cases, key=lambda c: c["schedule_size"])
    report = {
        "benchmark": "insertion_engine",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "network": {"generator": "nyc_like", "seed": args.seed},
        "config": {
            "smoke": args.smoke,
            "sizes": sizes,
            "rounds": rounds,
            "schedules_per_size": per_size,
            "probes_per_schedule": probes,
        },
        "cases": cases,
        "engine_stats": engine_stats,
        "headline": {
            "metric": (
                f"plan_insertion vs reference, {headline['schedule_size']}-stop "
                "schedules (solver inner loop)"
            ),
            "speedup": headline["speedup"],
            "threshold": 5.0,
            "pass": bool(headline["speedup"] >= 5.0),
        },
    }

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for case in cases:
        label = f"{case['name']} (n={case.get('schedule_size', '-')})"
        print(f"{label:38s} speedup {case['speedup']:6.2f}x")
    print(f"headline: {report['headline']['metric']}")
    print(
        f"  {report['headline']['speedup']}x "
        f"(threshold {report['headline']['threshold']}x, "
        f"pass={report['headline']['pass']})"
    )
    print(f"wrote {args.out}")
    if not args.smoke and not report["headline"]["pass"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
