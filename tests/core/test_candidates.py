"""Tests for the spatio-temporal candidate index (repro.core.candidates)."""

import dataclasses

import numpy as np
import pytest

from repro.core.candidates import (
    CANDIDATE_MODES,
    CandidateIndex,
    VehicleColumns,
    build_candidate_index,
)
from repro.core.dispatch import DispatchConfig, Dispatcher
from repro.core.grouping import filter_vehicles_for_group, prepare_grouping
from repro.core.instance import URRInstance
from repro.core.requests import Rider
from repro.core.scoring import SolverState
from repro.core.vehicles import Vehicle
from repro.perf import CANDIDATE_STATS
from repro.roadnet.areas import build_areas
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle


@pytest.fixture(scope="module")
def net():
    return grid_city(7, 7, seed=2, removal_fraction=0.0, arterial_every=None)


@pytest.fixture(scope="module")
def oracle(net):
    return DistanceOracle(net)


@pytest.fixture()
def index(net, oracle):
    return build_candidate_index(net, oracle=oracle)


def _random_fleet(net, rng, count, with_ready=True):
    nodes = sorted(net.nodes())
    fleet = []
    for j in range(count):
        ready = float(rng.uniform(0.0, 20.0)) if with_ready and rng.random() < 0.5 else None
        fleet.append(
            Vehicle(
                vehicle_id=j,
                location=int(rng.choice(nodes)),
                capacity=3,
                ready_time=ready,
            )
        )
    return fleet


def _random_riders(net, oracle, rng, count, clock=0.0, slack=(1.0, 60.0)):
    nodes = sorted(net.nodes())
    riders = []
    for i in range(count):
        s, d = (int(x) for x in rng.choice(nodes, 2, replace=False))
        shortest = oracle.cost(s, d)
        pickup = clock + float(rng.uniform(*slack))
        riders.append(
            Rider(
                rider_id=i,
                source=s,
                destination=d,
                pickup_deadline=pickup,
                dropoff_deadline=pickup + 2.0 * shortest + 10.0,
            )
        )
    return riders


def _instance(net, oracle, riders, vehicles, candidates=None, start_time=0.0):
    return URRInstance(
        network=net,
        riders=riders,
        vehicles=vehicles,
        oracle=oracle,
        candidates=candidates,
        start_time=start_time,
    )


def _view(oracle, vehicles, start_time=0.0):
    """The roster view SolverState keeps, with t0 = max(start, ready)."""
    return VehicleColumns(oracle, vehicles, start_time)


class TestMaintenance:
    def test_modes_validated(self, net, oracle):
        assert CANDIDATE_MODES == ("full", "spatial", "spatiotemporal")
        with pytest.raises(ValueError, match="candidate mode"):
            DispatchConfig(candidate_mode="psychic")

    def test_invalidate_then_prune_equals_exact_scan(self, net):
        # a tier-1 metric change that shortens arcs makes the centre
        # distances of the old epoch unsound; with no call into the index,
        # the next frame's retrieval must re-derive them and keep every
        # vehicle the full scan keeps
        network = net.copy()
        oracle = DistanceOracle(network, tier=1)
        index = build_candidate_index(network, oracle=oracle, audit=True)
        rng = np.random.default_rng(12)
        vehicles = _random_fleet(network, rng, 12, with_ready=False)
        riders = _random_riders(network, oracle, rng, 10, slack=(0.5, 30.0))
        pruned = SolverState(
            _instance(network, oracle, riders, vehicles, candidates=index)
        )
        for rider in riders:
            pruned.reachable_vehicles(rider, vehicles)  # tables derived
        for u in sorted(network.nodes())[::3]:
            for v in list(network.adjacency[u]):
                network.adjacency[u][v] *= 0.2
                network.adjacency[v][u] *= 0.2
        oracle.invalidate()
        # pickups each due exactly when some vehicle can make them now
        tight = [
            Rider(
                rider_id=i, source=r.source, destination=r.destination,
                pickup_deadline=oracle.cost(vehicles[i].location, r.source),
                dropoff_deadline=r.dropoff_deadline,
            )
            for i, r in enumerate(riders)
        ]
        plain = SolverState(_instance(network, oracle, tight, vehicles))
        pruned = SolverState(
            _instance(network, oracle, tight, vehicles, candidates=index)
        )
        errors_before = CANDIDATE_STATS.pruned_in_error
        for rider in tight:
            expect = plain.reachable_vehicles(rider, vehicles)
            assert rider.rider_id in {v.vehicle_id for v in expect}
            assert pruned.reachable_vehicles(rider, vehicles) == expect
        assert CANDIDATE_STATS.pruned_in_error == errors_before


class TestPruneEquality:
    """The pruned candidate list equals the exact reachability filter."""

    # tier 0 bounds by the exact table entry, tier 1 by area centres and
    # the oracle's landmark rows, tier 2 by area centres alone; the first two
    # ids name the candidate_mode the benchmark passes on that tier
    @pytest.mark.parametrize(
        "tier", [0, 1, 2], ids=["spatial", "spatiotemporal", "tier2"]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reachable_vehicles_identical(self, net, tier, seed):
        oracle = DistanceOracle(net, tier=tier)
        rng = np.random.default_rng(seed)
        vehicles = _random_fleet(net, rng, 12)
        riders = _random_riders(net, oracle, rng, 20, slack=(0.5, 45.0))
        index = build_candidate_index(net, oracle=oracle, audit=True)
        # tier 0 adds no centre bound to the oracle's exact one
        assert (index._tables() is None) == (tier == 0)
        plain = SolverState(_instance(net, oracle, riders, vehicles))
        pruned = SolverState(
            _instance(net, oracle, riders, vehicles, candidates=index)
        )
        errors_before = CANDIDATE_STATS.pruned_in_error
        for rider in riders:
            expect = plain.reachable_vehicles(rider, vehicles)
            got = pruned.reachable_vehicles(rider, vehicles)
            assert got == expect  # same vehicles, same order
        assert CANDIDATE_STATS.pruned_in_error == errors_before

    def test_tier0_bound_is_the_exact_cost(self, net, oracle, index):
        # on the APSP table the index keeps exactly the vehicles whose
        # location test passes, whatever the area partition
        rng = np.random.default_rng(5)
        vehicles = _random_fleet(net, rng, 30)
        view = _view(oracle, vehicles)
        for rider in _random_riders(net, oracle, rng, 20, slack=(0.5, 20.0)):
            kept = index.prune(rider, view)
            exact = [
                v for v in vehicles
                if max(v.ready_time or 0.0, 0.0)
                + oracle.cost(v.location, rider.source)
                <= rider.pickup_deadline + 1e-9
            ]
            assert kept == exact

    def test_subset_path_identical(self, net, oracle, index):
        rng = np.random.default_rng(11)
        vehicles = _random_fleet(net, rng, 10)
        riders = _random_riders(net, oracle, rng, 10, slack=(0.5, 30.0))
        subset = vehicles[::2]
        plain = SolverState(_instance(net, oracle, riders, vehicles))
        pruned = SolverState(
            _instance(net, oracle, riders, vehicles, candidates=index)
        )
        for rider in riders:
            assert pruned.reachable_vehicles(rider, subset) == (
                plain.reachable_vehicles(rider, subset)
            )

    def test_untracked_vehicles_never_pruned_wrongly(self, net, oracle, index):
        # the index tracks no vehicle: every roster is bounded fresh
        rng = np.random.default_rng(5)
        vehicles = _random_fleet(net, rng, 6)
        riders = _random_riders(net, oracle, rng, 8)
        plain = SolverState(_instance(net, oracle, riders, vehicles))
        pruned = SolverState(
            _instance(net, oracle, riders, vehicles, candidates=index)
        )
        for rider in riders:
            assert pruned.reachable_vehicles(rider, vehicles) == (
                plain.reachable_vehicles(rider, vehicles)
            )

    def test_full_mode_is_passthrough(self, net, oracle):
        # "full" builds no index: every pair reaches the exact test
        vehicles = [Vehicle(vehicle_id=1, location=0, capacity=3)]
        d = Dispatcher(net, vehicles, oracle=oracle, candidate_mode="full")
        assert d.candidates is None
        ignored = build_candidate_index(net, oracle=oracle)
        d = Dispatcher(net, vehicles, oracle=oracle, candidate_index=ignored)
        assert d.candidates is None


class TestEdgeCases:
    def test_single_vehicle_fleet(self, net, oracle):
        index = build_candidate_index(net, oracle=oracle)
        near = Rider(
            rider_id=0, source=24, destination=0,
            pickup_deadline=0.5, dropoff_deadline=60.0,
        )
        vehicles = [Vehicle(vehicle_id=0, location=24, capacity=1)]
        assert index.prune(near, _view(oracle, vehicles)) == vehicles

    def test_disconnected_component_is_singleton_area(self):
        net = RoadNetwork()
        for i in range(4):
            net.add_edge(i, i + 1, 1.0)
        net.add_edge(10, 11, 1.0)  # island, unreachable from the line
        oracle = DistanceOracle(net)
        areas = build_areas(net, 8, cover=[0], oracle=oracle)
        oracle.warm(areas.centers)
        index = CandidateIndex(net, areas, oracle)
        # island nodes own themselves (singleton areas), and a vehicle
        # on the island is pruned for a mainland pickup: provably
        # unreachable, and the exact filter agrees
        rider = Rider(
            rider_id=0, source=2, destination=4,
            pickup_deadline=100.0, dropoff_deadline=200.0,
        )
        island = Vehicle(vehicle_id=1, location=10, capacity=2)
        mainland = Vehicle(vehicle_id=2, location=3, capacity=2)
        vehicles = [island, mainland]
        got = index.prune(rider, _view(oracle, vehicles))
        instance = _instance(net, oracle, [rider], vehicles)
        expect = SolverState(instance).reachable_vehicles(rider, vehicles)
        assert got == expect == [mainland]

    def test_empty_bucket_area(self, net, oracle):
        # every area with no vehicles must contribute nothing (and not crash)
        index = build_candidate_index(net, oracle=oracle)
        assert index.areas.num_areas > 1
        rider = Rider(
            rider_id=0, source=0, destination=48,
            pickup_deadline=50.0, dropoff_deadline=500.0,
        )
        v = Vehicle(vehicle_id=0, location=0, capacity=3)
        assert index.prune(rider, _view(oracle, [v])) == [v]

    def test_order_preserved_after_churn(self, net, oracle):
        # a roster that lost a vehicle and moved the rest keeps its order
        index = build_candidate_index(net, oracle=oracle)
        vehicles = [
            Vehicle(vehicle_id=j, location=j, capacity=3) for j in range(8)
        ]
        del vehicles[3]
        vehicles = [
            Vehicle(vehicle_id=v.vehicle_id, location=v.location + 1, capacity=3)
            for v in vehicles
        ]
        rider = Rider(
            rider_id=0, source=20, destination=0,
            pickup_deadline=1000.0, dropoff_deadline=2000.0,
        )
        assert index.prune(rider, _view(oracle, vehicles)) == vehicles


class TestGroupFilterRegression:
    """filter_vehicles_for_group via a VehicleColumns view == the full scan, always."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_never_returns_excluded_vehicle(self, net, oracle, seed):
        rng = np.random.default_rng(seed)
        plan = prepare_grouping(net, k=8)
        vehicles = _random_fleet(net, rng, 15, with_ready=False)
        riders = _random_riders(net, oracle, rng, 12, slack=(0.5, 25.0))
        instance = _instance(net, oracle, riders, vehicles)
        state = SolverState(instance)
        view = VehicleColumns(plan.oracle, vehicles)
        by_area = {}
        cost = instance.cost
        for r in riders:
            if cost(r.source, r.destination) <= plan.short_trip_bound:
                by_area.setdefault(
                    plan.areas.center_of(r.source), []
                ).append(r)
        assert by_area, "seeded riders must produce short-trip groups"
        for center, group in sorted(by_area.items()):
            full = filter_vehicles_for_group(
                state, plan, center, group, vehicles
            )
            fast = filter_vehicles_for_group(
                state, plan, center, group, vehicles, view=view
            )
            assert fast == full  # same vehicles, same order
            # the headline guarantee: nothing the full scan excludes
            assert not (set(v.vehicle_id for v in fast)
                        - set(v.vehicle_id for v in full))

    def test_foreign_vehicle_list_falls_back(self, net, oracle):
        # a view built for another list must not be consulted
        plan = prepare_grouping(net, k=8)
        rng = np.random.default_rng(3)
        vehicles = _random_fleet(net, rng, 5, with_ready=False)
        other = list(vehicles)
        view = VehicleColumns(plan.oracle, other)
        riders = _random_riders(net, oracle, rng, 4, slack=(5.0, 30.0))
        state = SolverState(_instance(net, oracle, riders, vehicles))
        center = plan.areas.center_of(riders[0].source)
        full = filter_vehicles_for_group(
            state, plan, center, riders, vehicles
        )
        fast = filter_vehicles_for_group(
            state, plan, center, riders, vehicles, view=view
        )
        assert fast == full


class TestDispatcherIntegration:
    def test_frame_perf_counters_recorded(self, net, oracle):
        rng = np.random.default_rng(4)
        fleet = _random_fleet(net, rng, 8, with_ready=False)
        d = Dispatcher(
            net, fleet, method="eg", frame_length=20.0, oracle=oracle,
            candidate_mode="spatiotemporal",
        )
        report = d.dispatch_frame(
            _random_riders(net, oracle, rng, 10, slack=(2.0, 50.0))
        )
        cand = report.perf.candidates
        assert cand.retrievals > 0
        assert cand.pairs_considered >= cand.pairs_pruned
        assert cand.pruned_in_error == 0
        assert "candidates" in report.perf.as_dict()

    def test_modes_agree_end_to_end(self, net, oracle):
        rng = np.random.default_rng(9)
        fleet = _random_fleet(net, rng, 6, with_ready=False)
        streams = [
            _random_riders(net, oracle, rng, 7, clock=c, slack=(2.0, 45.0))
            for c in (0.0, 20.0, 40.0)
        ]
        # re-id across frames (dispatcher requires run-unique rider ids)
        rid = 0
        frames = []
        for stream in streams:
            frames.append(
                [
                    Rider(
                        rider_id=rid + i, source=r.source,
                        destination=r.destination,
                        pickup_deadline=r.pickup_deadline,
                        dropoff_deadline=r.dropoff_deadline,
                    )
                    for i, r in enumerate(stream)
                ]
            )
            rid += len(stream)
        outcomes = {}
        for mode in CANDIDATE_MODES:
            d = Dispatcher(
                net, fleet, method="eg", frame_length=20.0, oracle=oracle,
                seed=1, candidate_mode=mode,
            )
            log = []
            for frame in frames:
                rep = d.dispatch_frame(list(frame))
                log.append(
                    (
                        sorted(rep.assignment.served_rider_ids()),
                        round(rep.utility, 9),
                    )
                )
            outcomes[mode] = log
        assert outcomes["full"] == outcomes["spatial"]
        assert outcomes["full"] == outcomes["spatiotemporal"]

    def test_breakdown_leaves_no_candidate(self, net, oracle, monkeypatch):
        # the index holds no fleet: once a vehicle breaks down, the next
        # frame's rosters (and so every prune) no longer contain it
        from repro.core.disruptions import VehicleBreakdown

        rng = np.random.default_rng(6)
        fleet = _random_fleet(net, rng, 3, with_ready=False)
        d = Dispatcher(
            net, fleet, method="cf", frame_length=20.0, oracle=oracle,
            candidate_mode="spatiotemporal",
        )
        riders = _random_riders(net, oracle, rng, 8, slack=(5.0, 40.0))
        d.dispatch_frame(riders[:4])
        d.inject([VehicleBreakdown(vehicle_id=fleet[0].vehicle_id)])
        seen = set()
        prune = CandidateIndex.prune

        def spy(index, rider, view):
            seen.update(v.vehicle_id for v in view.vehicles)
            return prune(index, rider, view)

        monkeypatch.setattr(CandidateIndex, "prune", spy)
        d.dispatch_frame(
            [dataclasses.replace(r, pickup_deadline=r.pickup_deadline + 20.0,
                                 dropoff_deadline=r.dropoff_deadline + 20.0)
             for r in riders[4:]]
        )
        assert seen == set(d.fleet) and fleet[0].vehicle_id not in seen

    def test_mismatched_oracle_rejected(self, net, oracle):
        foreign = build_candidate_index(net, oracle=DistanceOracle(net))
        fleet = [Vehicle(vehicle_id=0, location=0, capacity=2)]
        with pytest.raises(ValueError, match="oracle"):
            Dispatcher(
                net, fleet, oracle=oracle,
                candidate_mode="spatial", candidate_index=foreign,
            )

    def test_tier1_run_keeps_pinned_rows_out_of_dict_caches(self, net):
        """Centre rows are read from the pinned block, never as dicts."""
        from repro.core.disruptions import TravelTimePerturbation

        rng = np.random.default_rng(8)
        network = net.copy()
        oracle = DistanceOracle(network, tier=1)
        fleet = _random_fleet(network, rng, 8, with_ready=False)
        d = Dispatcher(
            network, fleet, method="eg", frame_length=20.0, oracle=oracle,
            candidate_mode="spatiotemporal",
        )
        rid = 0
        for clock in (0.0, 20.0, 40.0):
            riders = _random_riders(network, oracle, rng, 6, clock=clock)
            d.dispatch_frame(
                [
                    Rider(
                        rider_id=rid + i, source=r.source,
                        destination=r.destination,
                        pickup_deadline=r.pickup_deadline,
                        dropoff_deadline=r.dropoff_deadline,
                    )
                    for i, r in enumerate(riders)
                ]
            )
            rid += len(riders)
            u, v, _w = sorted(network.edges())[int(clock)]
            d.inject([TravelTimePerturbation(factors=((u, v, 0.5),))])
        pinned = oracle._pinned_sources
        assert pinned == set(d.candidates.areas.centers)
        assert not pinned & set(oracle._source_cache)
        assert not pinned & set(oracle._row_cache)

    def test_prune_fuzz_seeds_clean(self):
        from repro.check import run_trial

        for seed in range(3):
            report = run_trial(seed, "prune")
            assert report.ok, report.failures
            assert report.stats["pairs_considered"] > 0
