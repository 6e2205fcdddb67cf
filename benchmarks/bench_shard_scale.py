#!/usr/bin/env python
"""Shard-scale benchmark: partitioned dispatch vs the single-solve frame.

Drives the rolling-horizon :class:`repro.core.dispatch.Dispatcher` over
identical multi-frame request streams at growing fleet sizes, twice:

- ``unsharded`` — ``dispatch_frame`` as a single solve over the whole
  fleet: every rider's coarse reachability scan walks all ``n``
  vehicles.
- ``sharded`` — the partition-solve-merge pipeline of
  :mod:`repro.core.shards` with ``shard_count`` area shards, solved one
  after another in this process.  Each rider's scan touches only its
  own shard's fleet, so the per-frame scan work drops by roughly the
  shard count.

Riders carry tight pickup deadlines (a couple of minutes on a
~1-minute-per-block grid), the large-fleet regime sharding targets: the
global solve pays its full fleet scan per rider while only a handful of
nearby vehicles are relevant.  The process replaces the per-frame draw
of the synthetic per-pair utility matrix with an empty table
(``bench_matching_scale.skip_preference_draw``) so the O(m*n) matrix
fill does not mask the solve cost being measured.

Each (fleet size, configuration) cell reports wall-clock per frame,
the served-rider totals (the unsharded baseline may allocate boundary
riders differently, so the two are compared on service level, not
identity), and for the sharded run the shard-statistics delta (shards
solved, boundary riders, reconciliations).  The headline gate is the
scaling claim at the largest fleet: ``unsharded / sharded >= 2x`` per
frame, with at least 95% of the unsharded service.  The report records
``cpu_count``; the pipeline is single-threaded, so the core count does
not change the claim.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_scale.py
    PYTHONPATH=src python benchmarks/bench_shard_scale.py --smoke

Writes machine-readable results to ``BENCH_shards.json`` at the repo
root (override with ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.dispatch import Dispatcher
from repro.core.requests import Rider
from repro.core.vehicles import Vehicle
from repro.obs import start_trace, stop_trace
from repro.obs import trace as _trace
from repro.perf import SHARD_STATS
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle

from bench_matching_scale import skip_preference_draw

INF = float("inf")


# ----------------------------------------------------------------------
# workload construction (mirrors bench_matching_scale)
# ----------------------------------------------------------------------
def _build_network(rows: int, cols: int, seed: int):
    network = grid_city(
        rows, cols, seed=seed, removal_fraction=0.0, arterial_every=None
    )
    # keep the exact-distance fast path (flat APSP table): the benchmark
    # measures frame decomposition, not oracle cache policy
    oracle = DistanceOracle(network, apsp_threshold=max(2048, len(network) + 1))
    return network, oracle


def _fleet(rng: np.random.Generator, nodes: List[int], count: int) -> List[Vehicle]:
    locs = rng.choice(nodes, size=count)
    return [
        Vehicle(vehicle_id=j, location=int(locs[j]), capacity=3)
        for j in range(count)
    ]


def _frames(
    rng: np.random.Generator,
    nodes: List[int],
    oracle: DistanceOracle,
    num_frames: int,
    riders_per_frame: int,
    frame_length: float,
    pickup_window: tuple,
) -> List[List[Rider]]:
    """Identical request streams for every run: tight pickup windows."""
    frames: List[List[Rider]] = []
    rider_id = 0
    for f in range(num_frames):
        clock = f * frame_length
        riders: List[Rider] = []
        while len(riders) < riders_per_frame:
            s, d = (int(x) for x in rng.choice(nodes, 2, replace=False))
            direct = oracle.cost(s, d)
            if not (0.0 < direct < INF):
                continue
            pickup = clock + float(rng.uniform(*pickup_window))
            riders.append(
                Rider(
                    rider_id=rider_id,
                    source=s,
                    destination=d,
                    pickup_deadline=pickup,
                    dropoff_deadline=pickup + 1.5 * direct + 5.0,
                )
            )
            rider_id += 1
        frames.append(riders)
    return frames


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _run_config(
    sharded: bool,
    shard_count: int,
    method: str,
    network,
    oracle: DistanceOracle,
    fleet: List[Vehicle],
    frames: List[List[Rider]],
    frame_length: float,
) -> Dict[str, object]:
    """One full dispatch run, sharded or as the unsharded baseline."""
    kwargs: Dict[str, object] = {}
    if sharded:
        kwargs.update(shard_workers=1, shard_count=shard_count)
    dispatcher = Dispatcher(
        network,
        [Vehicle(vehicle_id=v.vehicle_id, location=v.location, capacity=v.capacity)
         for v in fleet],
        method=method,
        frame_length=frame_length,
        oracle=oracle,
        seed=0,
        **kwargs,
    )
    before = SHARD_STATS.snapshot()
    served: List[int] = []
    utility = 0.0
    elapsed = 0.0
    frame_times: List[float] = []
    try:
        for frame in frames:
            start = time.perf_counter()
            report = dispatcher.dispatch_frame(list(frame))
            frame_times.append(time.perf_counter() - start)
            elapsed += frame_times[-1]
            served.extend(report.assignment.served_rider_ids())
            utility += report.utility
    finally:
        dispatcher.close()
    delta = SHARD_STATS.delta(before)
    result: Dict[str, object] = {
        "frame_s": round(elapsed / len(frames), 4),
        "total_s": round(elapsed, 4),
        "served": sorted(served),
        "utility": round(utility, 6),
    }
    if sharded:
        result.update(
            {
                "shards_solved": delta.shards_solved,
                "boundary_riders": delta.boundary_riders,
                "reconciled_riders": delta.reconciled_riders,
            }
        )
    return result


def bench_scale(
    seed: int,
    rows: int,
    cols: int,
    fleet_sizes: List[int],
    shard_count: int,
    method: str,
    num_frames: int,
    riders_per_frame: int,
    frame_length: float,
    pickup_window: tuple,
) -> List[dict]:
    network, oracle = _build_network(rows, cols, seed)
    nodes = sorted(network.nodes())
    oracle.cost(nodes[0], nodes[-1])  # build the APSP table untimed
    cases: List[dict] = []
    for size in fleet_sizes:
        rng = np.random.default_rng(seed + size)
        fleet = _fleet(rng, nodes, size)
        frames = _frames(
            rng, nodes, oracle, num_frames, riders_per_frame,
            frame_length, pickup_window,
        )
        with _trace.span("bench.shards.size", vehicles=size, method=method):
            runs = {
                name: _run_config(
                    sharded, shard_count, method, network, oracle, fleet,
                    frames, frame_length,
                )
                for name, sharded in (("unsharded", False), ("sharded", True))
            }
        case = {
            "vehicles": size,
            "method": method,
            "shard_count": shard_count,
            "frames": num_frames,
            "riders_per_frame": riders_per_frame,
            "served_unsharded": len(runs["unsharded"]["served"]),
            "served_sharded": len(runs["sharded"]["served"]),
        }
        for name, run in runs.items():
            case[name] = {k: v for k, v in run.items() if k != "served"}
        case["sharded"]["speedup_vs_unsharded"] = round(
            runs["unsharded"]["total_s"] / max(runs["sharded"]["total_s"], 1e-9),
            2,
        )
        cases.append(case)
        print(
            f"{size:6d} vehicles [{method}]:"
            f" unsharded {case['unsharded']['frame_s']*1e3:8.1f} ms/frame"
            f"  sharded {case['sharded']['frame_s']*1e3:7.1f} ms"
            f" ({case['sharded']['speedup_vs_unsharded']:.1f}x)"
            f"  served {case['served_sharded']}/{case['served_unsharded']}"
        )
    return cases


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid and fleet (CI wiring check)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_shards.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="record a JSONL trace of the run (inspect with "
             "'python -m repro.obs summary PATH')",
    )
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    skip_preference_draw()

    if args.smoke:
        rows = cols = 8
        fleet_sizes = [60]
        shard_count = 4
        num_frames, riders_per_frame = 2, 8
        frame_length, pickup_window = 10.0, (2.0, 6.0)
    else:
        rows = cols = 40
        fleet_sizes = [2000, 10000]
        shard_count = 8
        num_frames, riders_per_frame = 6, 60
        frame_length, pickup_window = 5.0, (1.0, 2.5)

    if args.trace:
        start_trace(
            args.trace,
            meta={
                "tool": "bench_shard_scale",
                "seed": args.seed,
                "smoke": args.smoke,
            },
        )
    with _trace.span("bench.shards", seed=args.seed, smoke=args.smoke):
        cases = bench_scale(
            args.seed, rows, cols, fleet_sizes, shard_count,
            "eg", num_frames, riders_per_frame, frame_length, pickup_window,
        )
    if args.trace:
        stop_trace()
        print(f"trace written to {args.trace}")

    largest = max(cases, key=lambda c: c["vehicles"])
    headline_speedup = largest["sharded"]["speedup_vs_unsharded"]
    served_ratio = (
        largest["served_sharded"] / largest["served_unsharded"]
        if largest["served_unsharded"]
        else 1.0
    )
    report = {
        "benchmark": "shard_scale",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "network": {
            "generator": "grid_city",
            "rows": rows,
            "cols": cols,
            "seed": args.seed,
        },
        "config": {
            "smoke": args.smoke,
            "fleet_sizes": fleet_sizes,
            "shard_count": shard_count,
            "method": "eg",
            "frames": num_frames,
            "riders_per_frame": riders_per_frame,
            "frame_length": frame_length,
            "pickup_window": list(pickup_window),
        },
        "cases": cases,
        "headline": {
            "metric": (
                f"end-to-end frame dispatch at {largest['vehicles']} "
                f"vehicles, single global solve vs sharded pipeline "
                f"({shard_count} shards)"
            ),
            "speedup": headline_speedup,
            "speedup_threshold": 2.0,
            "served_ratio": round(served_ratio, 4),
            "served_ratio_threshold": 0.95,
            "pass": bool(
                headline_speedup >= 2.0 and served_ratio >= 0.95
            ),
        },
    }

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"headline: {headline_speedup}x at {largest['vehicles']} vehicles, "
        f"service ratio {served_ratio:.3f} "
        f"(thresholds >=2x, >=0.95; pass={report['headline']['pass']})"
    )
    print(f"wrote {args.out}")
    if not args.smoke and not report["headline"]["pass"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
