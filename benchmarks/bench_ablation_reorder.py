"""Section 3 ablation: non-reordered insertion (Algorithm 1) vs reordering.

The paper keeps existing schedules fixed, citing [25]: reordering costs a
lot of time and buys little travel cost.  This bench inserts riders into
random mid-size schedules both ways and measures (a) the travel-cost gap
and (b) the runtime gap, verifying the paper's engineering judgement.
"""

import time

import numpy as np

from benchmarks.conftest import record, run_once
from repro.core.insertion import arrange_single_rider
from repro.core.reorder import arrange_single_rider_reordered
from repro.core.requests import Rider
from repro.core.schedule import TransferSequence
from repro.experiments.runner import ExperimentResult, ResultRow
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle

NUM_CASES = 120


def build_cases(seed=0):
    net = grid_city(10, 10, seed=seed, block_minutes=2.0)
    cost = DistanceOracle(net).fast_cost_fn()
    rng = np.random.default_rng(seed)
    nodes = sorted(net.nodes())
    cases = []
    while len(cases) < NUM_CASES:
        origin = int(rng.choice(nodes))
        seq = TransferSequence(origin=origin, start_time=0.0, capacity=3, cost=cost)
        for i in range(int(rng.integers(1, 4))):
            src, dst = (int(x) for x in rng.choice(nodes, size=2, replace=False))
            rider = Rider(
                rider_id=100 + i, source=src, destination=dst,
                pickup_deadline=float(rng.uniform(10, 40)),
                dropoff_deadline=float(rng.uniform(50, 120)),
            )
            inserted = arrange_single_rider(seq, rider)
            if inserted is not None:
                seq = inserted.sequence
        src, dst = (int(x) for x in rng.choice(nodes, size=2, replace=False))
        new_rider = Rider(
            rider_id=0, source=src, destination=dst,
            pickup_deadline=float(rng.uniform(10, 40)),
            dropoff_deadline=float(rng.uniform(50, 120)),
        )
        cases.append((seq, new_rider))
    return cases


def run_reorder_ablation():
    cases = build_cases()
    result = ExperimentResult(
        experiment="ablation_reorder",
        description="Algorithm 1 vs optimal reordering insertion",
    )
    stats = {"plain_cost": 0.0, "reorder_cost": 0.0,
             "plain_time": 0.0, "reorder_time": 0.0,
             "both_feasible": 0, "reorder_strictly_better": 0}
    for seq, rider in cases:
        t0 = time.perf_counter()
        plain = arrange_single_rider(seq, rider)
        stats["plain_time"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        reordered = arrange_single_rider_reordered(seq, rider)
        stats["reorder_time"] += time.perf_counter() - t0
        if plain is None or reordered is None:
            continue
        stats["both_feasible"] += 1
        stats["plain_cost"] += plain.sequence.total_cost
        stats["reorder_cost"] += reordered.total_cost
        if reordered.total_cost < plain.sequence.total_cost - 1e-6:
            stats["reorder_strictly_better"] += 1
    for name, kind in (
        ("algorithm1", "plain"),
        ("reordering", "reorder"),
    ):
        result.rows.append(
            ResultRow(
                x_label="variant", x_value=name, method=name,
                utility=stats[f"{kind}_cost"],  # total travel cost here
                runtime_seconds=stats[f"{kind}_time"],
                served=stats["both_feasible"],
                num_riders=NUM_CASES, num_vehicles=1,
            )
        )
    gap = (stats["plain_cost"] - stats["reorder_cost"]) / max(stats["reorder_cost"], 1e-9)
    result.notes.append(
        f"reordering reduces travel cost by {gap:.1%} overall; strictly better "
        f"in {stats['reorder_strictly_better']}/{stats['both_feasible']} cases; "
        f"time {stats['reorder_time']:.2f}s vs {stats['plain_time']:.2f}s"
    )
    return result, stats, gap


def test_reordering_gains_little(benchmark):
    result, stats, gap = run_once(benchmark, run_reorder_ablation)
    record(result)
    # reordering can never be worse on cost...
    assert stats["reorder_cost"] <= stats["plain_cost"] + 1e-6
    # ...but the paper's call stands: the aggregate gain is small
    assert gap < 0.10, f"reordering gained {gap:.1%}; expected < 10%"
    # and Algorithm 1 is much cheaper to run
    assert stats["plain_time"] < stats["reorder_time"]
