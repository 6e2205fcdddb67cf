"""Partition soundness for the sharded dispatch pipeline.

Property focus: the partition is *total* (every rider and vehicle lands
in exactly one shard), *lossless* (the shard union is the frame), and a
pure function of the network + ``shard_count`` — never of input order
or hash seed.
"""

import random

import pytest

from repro.core import scoring
from repro.core.instance import LazySchedules, URRInstance
from repro.core.shards import ShardPlan, partition_frame, reconcile_boundary
from repro.core.vehicles import Vehicle
from repro.roadnet.areas import build_areas
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle
from tests.conftest import make_rider


NODES = 64  # 8x8 grid


@pytest.fixture(scope="module")
def city():
    return grid_city(8, 8, seed=5, removal_fraction=0.0, arterial_every=None)


@pytest.fixture(scope="module")
def areas(city):
    return build_areas(city, k=8)


@pytest.fixture(scope="module")
def plan(areas):
    return ShardPlan(areas, shard_count=4)


def make_frame(seed, num_riders=12, num_vehicles=9):
    rng = random.Random(seed)
    riders = []
    for i in range(num_riders):
        src = rng.randrange(NODES)
        dst = rng.randrange(NODES)
        if dst == src:
            dst = (dst + 1) % NODES
        riders.append(
            make_rider(i, source=src, destination=dst,
                       pickup_deadline=rng.uniform(5.0, 30.0),
                       dropoff_deadline=rng.uniform(40.0, 90.0))
        )
    vehicles = [
        Vehicle(vehicle_id=i, location=rng.randrange(NODES), capacity=3)
        for i in range(num_vehicles)
    ]
    return riders, vehicles


class TestShardPlan:
    def test_rejects_nonpositive_shard_count(self, areas):
        with pytest.raises(ValueError):
            ShardPlan(areas, shard_count=0)
        with pytest.raises(ValueError):
            ShardPlan(areas, shard_count=-3)

    def test_shard_of_is_total_over_the_network(self, plan):
        for node in range(NODES):
            assert 0 <= plan.shard_of(node) < plan.shard_count

    def test_unknown_node_falls_back_to_modulo(self, plan):
        # nodes outside every area (possible after network surgery) must
        # still map somewhere, deterministically
        ghost = 999_983
        assert plan.shard_of(ghost) == ghost % plan.shard_count

    def test_plan_is_deterministic_across_rebuilds(self, city, plan):
        rebuilt = ShardPlan(build_areas(city, k=8), shard_count=4)
        for node in range(NODES):
            assert rebuilt.shard_of(node) == plan.shard_of(node)


class TestPartitionFrame:
    def test_every_rider_in_exactly_one_shard(self, plan):
        riders, vehicles = make_frame(seed=0)
        part = partition_frame(plan, riders, vehicles)
        seen = [r.rider_id for shard in part.shards for r in shard.riders]
        assert sorted(seen) == sorted(r.rider_id for r in riders)
        assert len(seen) == len(set(seen))

    def test_every_vehicle_in_exactly_one_shard(self, plan):
        riders, vehicles = make_frame(seed=1)
        part = partition_frame(plan, riders, vehicles)
        seen = [v.vehicle_id for shard in part.shards for v in shard.vehicles]
        assert sorted(seen) == sorted(v.vehicle_id for v in vehicles)
        assert len(seen) == len(set(seen))

    def test_assignment_maps_match_the_shards(self, plan):
        riders, vehicles = make_frame(seed=2)
        part = partition_frame(plan, riders, vehicles)
        for shard in part.shards:
            for rider in shard.riders:
                assert part.rider_shard[rider.rider_id] == shard.shard_id
            for vehicle in shard.vehicles:
                assert part.vehicle_shard[vehicle.vehicle_id] == shard.shard_id

    def test_membership_keyed_on_source_and_location(self, plan):
        riders, vehicles = make_frame(seed=3)
        part = partition_frame(plan, riders, vehicles)
        for rider in riders:
            assert part.rider_shard[rider.rider_id] == plan.shard_of(rider.source)
        for vehicle in vehicles:
            assert (
                part.vehicle_shard[vehicle.vehicle_id]
                == plan.shard_of(vehicle.location)
            )

    def test_membership_independent_of_input_order(self, plan):
        riders, vehicles = make_frame(seed=4)
        part = partition_frame(plan, riders, vehicles)
        rng = random.Random(7)
        shuffled_r = list(riders)
        shuffled_v = list(vehicles)
        rng.shuffle(shuffled_r)
        rng.shuffle(shuffled_v)
        repart = partition_frame(plan, shuffled_r, shuffled_v)
        assert repart.rider_shard == part.rider_shard
        assert repart.vehicle_shard == part.vehicle_shard

    def test_input_order_preserved_within_each_shard(self, plan):
        # greedy heaps tie-break on push order; within-shard order must
        # be the frame's restriction, not a re-sort
        riders, vehicles = make_frame(seed=5)
        part = partition_frame(plan, riders, vehicles)
        rank = {r.rider_id: i for i, r in enumerate(riders)}
        for shard in part.shards:
            ranks = [rank[r.rider_id] for r in shard.riders]
            assert ranks == sorted(ranks)

    def test_empty_frame(self, plan):
        part = partition_frame(plan, [], [])
        assert len(part.shards) == plan.shard_count
        assert part.rider_shard == {}
        assert part.vehicle_shard == {}
        assert all(not s.riders and not s.vehicles for s in part.shards)


class TestReconcileBoundary:
    def test_one_roster_view_per_home_shard(self, city, plan, monkeypatch):
        # every rider is unserved, so the boundary count visits them all;
        # a roster view per rider would rebuild the columns each time
        riders, vehicles = make_frame(seed=6, num_riders=24)
        oracle = DistanceOracle(city, tier=1)
        instance = URRInstance(
            network=city, riders=riders, vehicles=vehicles, oracle=oracle,
        )
        partition = partition_frame(plan, riders, vehicles)
        expect = sum(
            1 for r in riders
            if scoring.SolverState(instance).reachable_vehicles(r, [
                v for v in vehicles
                if partition.vehicle_shard[v.vehicle_id]
                != partition.rider_shard[r.rider_id]
            ])
        )
        built = []
        columns = scoring.VehicleColumns

        class Counting(columns):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scoring, "VehicleColumns", Counting)
        boundary, _ = reconcile_boundary(
            instance, LazySchedules(instance), partition
        )
        assert boundary == expect > 0
        assert len(built) <= plan.shard_count + 1
