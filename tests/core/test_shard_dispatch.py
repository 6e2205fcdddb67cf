"""Sharded dispatch through the Dispatcher front door.

Covers constructor validation, the single-shard == unsharded identity,
repeatable sharded frames, shard counters in ``FrameReport.perf``,
dispatcher lifecycle, and the PYTHONHASHSEED regression (dispatch must
not lean on dict/set iteration order).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.dispatch import Dispatcher
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from tests.conftest import make_rider

NODES = 36  # 6x6 grid


@pytest.fixture(scope="module")
def city():
    return grid_city(6, 6, seed=4, removal_fraction=0.0, arterial_every=None)


def make_fleet():
    return [
        Vehicle(vehicle_id=i, location=(7 * i) % NODES, capacity=2)
        for i in range(5)
    ]


def frame_requests(frame, id_base):
    """Deterministic requests scattered over the grid, absolute deadlines."""
    import random

    rng = random.Random(100 + frame)
    start = frame * 20.0
    riders = []
    for i in range(6):
        src = rng.randrange(NODES)
        dst = rng.randrange(NODES)
        if dst == src:
            dst = (dst + 1) % NODES
        riders.append(
            make_rider(id_base + i, source=src, destination=dst,
                       pickup_deadline=start + rng.uniform(5.0, 25.0),
                       dropoff_deadline=start + rng.uniform(40.0, 80.0))
        )
    return riders


def run_frames(dispatcher, num_frames=3):
    """Dispatch ``num_frames`` frames; returns a comparable digest."""
    digest = []
    try:
        for frame in range(num_frames):
            report = dispatcher.dispatch_frame(frame_requests(frame, frame * 10))
            digest.append((
                report.num_served,
                round(report.utility, 9),
                tuple(sorted(report.assignment.served_rider_ids())),
                tuple(
                    (fv.vehicle_id, fv.location)
                    for fv in sorted(
                        dispatcher.fleet.values(),
                        key=lambda fv: fv.vehicle_id,
                    )
                ),
            ))
    finally:
        dispatcher.close()
    return digest


class TestConstruction:
    def test_rejects_nonpositive_workers(self, city):
        with pytest.raises(ValueError):
            Dispatcher(city, make_fleet(), shard_workers=0)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_rejects_process_pool_worker_counts(self, city, workers):
        with pytest.raises(ValueError, match="process-pool sharding was removed"):
            Dispatcher(city, make_fleet(), shard_workers=workers)

    def test_rejects_nonpositive_shard_count(self, city):
        with pytest.raises(ValueError):
            Dispatcher(city, make_fleet(), shard_workers=1, shard_count=0)

    def test_rejects_frame_budget_combination(self, city):
        # the anytime watchdog races a wall clock; it does not compose
        # with a frame split into shards
        with pytest.raises(ValueError):
            Dispatcher(
                city, make_fleet(), shard_workers=1, frame_budget=0.5
            )

    def test_close_is_idempotent(self, city):
        dispatcher = Dispatcher(city, make_fleet(), shard_workers=1)
        dispatcher.close()
        dispatcher.close()

    def test_close_without_sharding_is_a_noop(self, city):
        Dispatcher(city, make_fleet()).close()


class TestEquivalence:
    def test_single_shard_equals_unsharded(self, city):
        # with one shard the sub-instance *is* the frame and boundary
        # reconciliation is vacuous, so the pipeline must be an identity
        plain = run_frames(
            Dispatcher(city, make_fleet(), method="eg", frame_length=20.0,
                       seed=9)
        )
        sharded = run_frames(
            Dispatcher(city, make_fleet(), method="eg", frame_length=20.0,
                       seed=9, shard_workers=1, shard_count=1)
        )
        assert sharded == plain

    def test_sharded_frames_repeat_exactly(self, city):
        # the partition and the shard solve order are fixed by
        # shard_count, so two runs produce byte-identical frames
        first = run_frames(
            Dispatcher(city, make_fleet(), method="eg", frame_length=20.0,
                       seed=9, shard_workers=1, shard_count=4)
        )
        second = run_frames(
            Dispatcher(city, make_fleet(), method="eg", frame_length=20.0,
                       seed=9, shard_workers=1, shard_count=4)
        )
        assert second == first


class TestShardCounters:
    def test_frame_perf_carries_shard_deltas(self, city):
        dispatcher = Dispatcher(city, make_fleet(), method="eg",
                                frame_length=20.0, seed=9,
                                shard_workers=1, shard_count=4)
        try:
            r1 = dispatcher.dispatch_frame(frame_requests(0, 0))
            r2 = dispatcher.dispatch_frame(frame_requests(1, 10))
        finally:
            dispatcher.close()
        for report in (r1, r2):
            assert report.perf.shards.frames_sharded == 1
            assert report.perf.shards.shards_solved >= 1
            assert report.perf.shards.riders_sharded == report.batch_size


_HASHSEED_SCRIPT = r"""
import json
import random
import sys

from repro.core.dispatch import Dispatcher
from repro.core.requests import Rider
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city

NODES = 36
city = grid_city(6, 6, seed=4, removal_fraction=0.0, arterial_every=None)
fleet = [Vehicle(vehicle_id=i, location=(7 * i) % NODES, capacity=2)
         for i in range(5)]
dispatcher = Dispatcher(city, fleet, method="eg", frame_length=20.0,
                        seed=9, shard_workers=1, shard_count=4)
digest = []
rid = 0
for frame in range(3):
    rng = random.Random(100 + frame)
    start = frame * 20.0
    riders = []
    for _ in range(6):
        src = rng.randrange(NODES)
        dst = rng.randrange(NODES)
        if dst == src:
            dst = (dst + 1) % NODES
        riders.append(Rider(
            rider_id=rid, source=src, destination=dst,
            pickup_deadline=start + rng.uniform(5.0, 25.0),
            dropoff_deadline=start + rng.uniform(40.0, 80.0),
        ))
        rid += 1
    report = dispatcher.dispatch_frame(riders)
    digest.append([
        report.num_served,
        round(report.utility, 9),
        sorted(report.assignment.served_rider_ids()),
        [[fv.vehicle_id, fv.location]
         for fv in sorted(dispatcher.fleet.values(),
                          key=lambda fv: fv.vehicle_id)],
    ])
dispatcher.close()
json.dump(digest, sys.stdout)
"""


def _run_with_hashseed(hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestHashSeedIndependence:
    """Dict/set iteration order must never leak into dispatch outcomes.

    Regression for order-dependent tie-breaks: the ledger and utility
    pinning now iterate served ids in sorted order, so runs under
    different hash seeds must be identical frame for frame.
    """

    def test_dispatch_is_hashseed_invariant(self):
        a = _run_with_hashseed(0)
        b = _run_with_hashseed(1)
        c = _run_with_hashseed(42)
        assert a == b == c
