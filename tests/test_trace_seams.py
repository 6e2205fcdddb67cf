"""The entry points the benchmark's tracer wraps must exist and be used.

``perfbench/layers.py`` times each layer by replacing a name on its
owner (a class or a module) for the length of a traced run, and skips a
name its owner lacks without a word.  A renamed or deleted seam would
therefore move that layer's time into "unattributed" instead of failing.
These tests pin every ``(owner, name)`` pair it wraps, and check that
the sharded pipeline calls its steps through their module globals, so a
replaced global is what actually runs.
"""

from pathlib import Path

import pytest

from repro import perf
from repro.core import dispatch, durability, insertion, shards
from repro.core.candidates import CandidateIndex
from repro.core.dispatch import Dispatcher
from repro.core.vehicles import Vehicle
from repro.roadnet.contraction import ContractionHierarchy
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle
from repro.service import StreamingEngine
from repro.workload.taxi import TaxiTripSimulator
from tests.conftest import make_rider

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

#: every (owner, name) the traced benchmark run replaces
SEAMS = [
    (StreamingEngine, "process"),
    (Dispatcher, "dispatch_frame"),
    (Dispatcher, "inject"),
    (dispatch, "solve"),
    (dispatch, "solve_sharded"),
    (shards, "solve"),
    (shards, "partition_frame"),
    (shards, "merge_shard_results"),
    (shards, "reconcile_boundary"),
    (CandidateIndex, "prune"),
    (insertion, "plan_insertion"),
    (insertion, "arrange_single_rider"),
    (DistanceOracle, "cost"),
    (DistanceOracle, "costs_from"),
    (DistanceOracle, "lower_bound"),
    (DistanceOracle, "invalidate"),
    (DistanceOracle, "fast_cost_fn"),
    (DistanceOracle, "__call__"),
    (ContractionHierarchy, "__init__"),
    (durability.DurabilityLog, "commit_frame"),
    (durability.DurabilityLog, "write_snapshot"),
    (TaxiTripSimulator, "generate_frame"),
]


#: every counter the benchmark reads; it reads them with ``getattr`` and
#: records 0 for a missing one, so a rename would zero a per-layer metric
COUNTERS = [
    ("INSERTION_STATS", "plans"),
    ("INSERTION_STATS", "pairs_evaluated"),
    ("CANDIDATE_STATS", "pairs_considered"),
    ("CANDIDATE_STATS", "pairs_pruned_spatial"),
    ("CANDIDATE_STATS", "pairs_pruned_temporal"),
    ("SHARD_STATS", "boundary_riders"),
    ("SHARD_STATS", "reconciled_riders"),
    ("WORKLOAD_STATS", "dest_cache_hits"),
    ("WORKLOAD_STATS", "dest_cache_misses"),
    ("WORKLOAD_STATS", "trips_generated"),
    ("DistanceOracle", "query_count"),
    ("DistanceOracle", "ch_query_count"),
    ("DistanceOracle", "dijkstra_count"),
    ("DistanceOracle", "pair_cache_hits"),
    ("FramePerf", "roll_seconds"),
]


@pytest.mark.parametrize(
    "owner, name", SEAMS, ids=[f"{o.__name__}.{n}" for o, n in SEAMS]
)
def test_seam_is_defined_on_its_owner(owner, name):
    assert name in vars(owner)


@pytest.mark.parametrize(
    "owner, name", COUNTERS, ids=[f"{o}.{n}" for o, n in COUNTERS]
)
def test_counter_the_benchmark_reads_exists(owner, name):
    if owner == "DistanceOracle":
        obj = DistanceOracle(grid_city(3, 3, seed=1))
    elif owner == "FramePerf":
        obj = perf.FramePerf(perf.PerfReport.capture())
    else:
        obj = getattr(perf, owner)
    assert isinstance(getattr(obj, name), (int, float))


@pytest.mark.skipif(not LAYERS.exists(), reason="benchmark tracer not present")
def test_seam_list_names_what_the_tracer_wraps():
    source = LAYERS.read_text(encoding="utf-8")
    for _owner, name in SEAMS:
        assert f'"{name}"' in source, name


def test_sharded_frame_calls_each_step_through_its_module_global(
    monkeypatch,
):
    city = grid_city(6, 6, seed=4, removal_fraction=0.0, arterial_every=None)
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [
        (dispatch, "solve_sharded"),
        (shards, "solve"),
        (shards, "partition_frame"),
        (shards, "merge_shard_results"),
        (shards, "reconcile_boundary"),
    ]:
        counting(module, name)
    fleet = [Vehicle(vehicle_id=i, location=7 * i, capacity=2) for i in range(5)]
    riders = [
        make_rider(i, source=(5 * i) % 36, destination=(5 * i + 13) % 36,
                   pickup_deadline=25.0, dropoff_deadline=80.0)
        for i in range(6)
    ]
    with Dispatcher(city, fleet, frame_length=20.0, seed=9,
                    shard_workers=1, shard_count=4) as dispatcher:
        dispatcher.dispatch_frame(riders)
    assert {
        "dispatch.solve_sharded",
        "shards.solve",
        "shards.partition_frame",
        "shards.merge_shard_results",
        "shards.reconcile_boundary",
    } <= set(calls)
