#!/usr/bin/env python
"""Matching-scale benchmark: candidate index vs the all-pairs scan.

Drives the rolling-horizon :class:`repro.core.dispatch.Dispatcher` over
identical multi-frame request streams at growing fleet sizes, twice:

- ``full`` — the baseline all-pairs (rider, vehicle) scan: every
  retrieval walks the whole fleet and pays one exact oracle call per
  vehicle.  The dispatcher gates every candidate mode by the oracle's
  bound, which at tier 0 is the exact table entry, so this run patches
  :meth:`DistanceOracle.lower_bounds` to zeros for its own length: no
  vehicle is dropped before its exact query.
- ``index`` — retrieval through the candidate index
  (:mod:`repro.core.candidates`, ``candidate_mode="spatiotemporal"``;
  ``"spatial"`` selects the same index).  This benchmark's oracle is the
  tier-0 table, so the index bounds every vehicle by its exact table
  entry.

Riders carry *tight* pickup deadlines (a couple of minutes on a
~1-minute-per-block grid), the regime the index targets: only a handful
of vehicles near each source can make the pickup, so the full scan
wastes almost all of its oracle calls.  The process replaces the
per-frame draw of the synthetic per-pair utility matrix with an empty
table (:func:`skip_preference_draw`; every pair falls back to the
instance's default utility) so the O(m*n) matrix fill does not mask the
retrieval cost being measured.

Each (fleet size, method, run) cell reports wall-clock per frame,
served-rider totals (asserted identical across runs — the differential
guarantee), and the candidate-statistics delta (pairs considered /
pruned, mean candidate-set size, unsound prunes).  Two solver methods
run: ``cf`` (the paper's fastest baseline — retrieval-bound, so the
index shows its full effect) and ``eg`` (utility-greedy — insertion
evaluation on the survivors claims a bigger share of the frame).  The
headline gate is the paper claim at the largest fleet with ``cf``:
``full`` / ``index`` >= 5x with a mean candidate set of at
most 50 vehicles.

Usage::

    PYTHONPATH=src python benchmarks/bench_matching_scale.py
    PYTHONPATH=src python benchmarks/bench_matching_scale.py --smoke

Writes machine-readable results to ``BENCH_matching.json`` at the repo
root (override with ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import dispatch
from repro.core.candidates import build_candidate_index
from repro.core.dispatch import Dispatcher
from repro.core.requests import Rider
from repro.core.vehicles import Vehicle
from repro.obs import start_trace, stop_trace
from repro.obs import trace as _trace
from repro.perf import CANDIDATE_STATS
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle
from repro.workload.instances import VehicleUtilityTable

INF = float("inf")

#: The two timed runs per case and the ``candidate_mode`` each passes.
RUNS = {"full": "full", "index": "spatiotemporal"}


def skip_preference_draw() -> None:
    """Replace the dispatcher's per-frame mu_v draw, for this process,
    with an empty table: every pair falls back to the instance's
    ``default_vehicle_utility``."""
    dispatch.synthetic_vehicle_utilities = (
        lambda riders, vehicles, rng: VehicleUtilityTable((), (), np.empty((0, 0)))
    )


@contextmanager
def unbounded(run: str):
    """For the ``full`` run, an oracle bound of zero: every vehicle gets
    its exact query, as an all-pairs scan does."""
    if run != "full":
        yield
        return
    lower_bounds = DistanceOracle.lower_bounds
    DistanceOracle.lower_bounds = lambda self, columns, target: np.zeros(len(columns))
    try:
        yield
    finally:
        DistanceOracle.lower_bounds = lower_bounds


# ----------------------------------------------------------------------
# workload construction
# ----------------------------------------------------------------------
def _build_network(rows: int, cols: int, seed: int):
    network = grid_city(
        rows, cols, seed=seed, removal_fraction=0.0, arterial_every=None
    )
    # keep the exact-distance fast path (flat APSP table) for both runs:
    # the benchmark measures retrieval strategy, not oracle cache policy
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
    """Identical request streams for both runs: tight pickup windows.

    ``pickup_window`` bounds the pickup slack past each frame's opening
    clock, i.e. how far (in travel minutes) a vehicle may sit from the
    source and still make the pickup — the knob that controls candidate-
    set size.
    """
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
def _run(
    run: str,
    method: str,
    network,
    oracle: DistanceOracle,
    fleet: List[Vehicle],
    frames: List[List[Rider]],
    frame_length: float,
    areas_k: int,
) -> Dict[str, object]:
    index = None
    if run != "full":
        index = build_candidate_index(network, oracle=oracle, k=areas_k)
    dispatcher = Dispatcher(
        network,
        [Vehicle(vehicle_id=v.vehicle_id, location=v.location, capacity=v.capacity)
         for v in fleet],
        method=method,
        frame_length=frame_length,
        oracle=oracle,
        seed=0,
        candidate_mode=RUNS[run],
        candidate_index=index,
    )
    before = CANDIDATE_STATS.snapshot()
    served: List[int] = []
    utility = 0.0
    elapsed = 0.0
    with unbounded(run):
        for frame in frames:
            start = time.perf_counter()
            report = dispatcher.dispatch_frame(list(frame))
            elapsed += time.perf_counter() - start
            served.extend(report.assignment.served_rider_ids())
            utility += report.utility
    delta = CANDIDATE_STATS.delta(before)
    result: Dict[str, object] = {
        "frame_s": round(elapsed / len(frames), 4),
        "total_s": round(elapsed, 4),
        "served": sorted(served),
        "utility": round(utility, 6),
    }
    if index is not None:
        retrievals = max(1, delta.retrievals)
        result.update(
            {
                "retrievals": delta.retrievals,
                "pairs_considered": delta.pairs_considered,
                "pairs_pruned_spatial": delta.pairs_pruned_spatial,
                "pairs_pruned_temporal": delta.pairs_pruned_temporal,
                "pruned_in_error": delta.pruned_in_error,
                "mean_candidates": round(
                    delta.candidates_returned / retrievals, 2
                ),
            }
        )
    return result


def bench_scale(
    seed: int,
    rows: int,
    cols: int,
    fleet_sizes: List[int],
    methods: List[str],
    num_frames: int,
    riders_per_frame: int,
    frame_length: float,
    pickup_window: tuple,
    areas_k: int,
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
        for method in methods:
            with _trace.span(
                "bench.matching.size", vehicles=size, method=method
            ):
                runs = {
                    run: _run(
                        run, method, network, oracle, fleet, frames,
                        frame_length, areas_k,
                    )
                    for run in RUNS
                }
            if runs["index"]["served"] != runs["full"]["served"]:
                raise AssertionError(
                    f"differential violation at {size} vehicles "
                    f"({method}): index served {runs['index']['served']} "
                    f"!= full {runs['full']['served']}"
                )
            if runs["index"]["pruned_in_error"]:
                raise AssertionError(f"unsound prune at {size} vehicles")
            case = {
                "vehicles": size,
                "method": method,
                "frames": num_frames,
                "riders_per_frame": riders_per_frame,
                "served": len(runs["full"]["served"]),
            }
            for run in RUNS:
                entry = dict(runs[run])
                entry.pop("served")
                case[run] = entry
            case["index"]["speedup"] = round(
                runs["full"]["total_s"] / max(runs["index"]["total_s"], 1e-9),
                2,
            )
            cases.append(case)
            print(
                f"{size:6d} vehicles [{method:2s}]:"
                f" full {case['full']['frame_s']*1e3:8.1f} ms/frame"
                f"  index {case['index']['frame_s']*1e3:7.1f} ms"
                f" ({case['index']['speedup']:.1f}x,"
                f" {case['index']['mean_candidates']:.1f} cands)"
            )
    return cases


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid and fleet, one frame size (CI wiring check)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_matching.json",
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
        fleet_sizes = [40]
        methods = ["cf"]
        num_frames, riders_per_frame = 2, 6
        frame_length, pickup_window, areas_k = 10.0, (2.0, 6.0), 4
    else:
        rows = cols = 48
        fleet_sizes = [1000, 3000, 10000]
        methods = ["cf", "eg"]
        num_frames, riders_per_frame = 3, 40
        frame_length, pickup_window, areas_k = 5.0, (1.2, 2.2), 8

    if args.trace:
        start_trace(
            args.trace,
            meta={
                "tool": "bench_matching_scale",
                "seed": args.seed,
                "smoke": args.smoke,
            },
        )
    with _trace.span("bench.matching", seed=args.seed, smoke=args.smoke):
        cases = bench_scale(
            args.seed, rows, cols, fleet_sizes, methods, num_frames,
            riders_per_frame, frame_length, pickup_window, areas_k,
        )
    if args.trace:
        stop_trace()
        print(f"trace written to {args.trace}")

    # headline method: cf, the paper's fastest (retrieval-bound) baseline
    headline_method = methods[0]
    largest = max(
        (c for c in cases if c["method"] == headline_method),
        key=lambda c: c["vehicles"],
    )
    headline_speedup = largest["index"]["speedup"]
    headline_cands = largest["index"]["mean_candidates"]
    report = {
        "benchmark": "matching_scale",
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
            "methods": methods,
            "frames": num_frames,
            "riders_per_frame": riders_per_frame,
            "frame_length": frame_length,
            "pickup_window": list(pickup_window),
            "areas_k": areas_k,
        },
        "cases": cases,
        "headline": {
            "metric": (
                f"end-to-end frame dispatch at {largest['vehicles']} vehicles "
                f"({headline_method}), full scan vs candidate index"
            ),
            "speedup": headline_speedup,
            "speedup_threshold": 5.0,
            "mean_candidates": headline_cands,
            "candidates_threshold": 50.0,
            "pass": bool(
                headline_speedup >= 5.0 and headline_cands <= 50.0
            ),
        },
    }

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"headline: {headline_speedup}x at {largest['vehicles']} vehicles, "
        f"mean candidate set {headline_cands} "
        f"(thresholds >=5x, <=50; pass={report['headline']['pass']})"
    )
    print(f"wrote {args.out}")
    if not args.smoke and not report["headline"]["pass"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
