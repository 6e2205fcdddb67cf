"""Tests for the tiered DistanceOracle (tier selection, CH tier-1 queries
and the shared landmark rows)."""

import math

import numpy as np
import pytest

from repro.roadnet import oracle as oracle_module
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import TIER1_MIN_NODES, DistanceOracle


@pytest.fixture(scope="module")
def jitter_grid():
    return grid_city(6, 6, seed=9)


class TestTierSelection:
    def test_small_network_picks_apsp(self, small_grid):
        assert DistanceOracle(small_grid).tier == 0

    def test_small_network_without_apsp_picks_lru(self, small_grid):
        # below TIER1_MIN_NODES the CH build is pure overhead
        assert DistanceOracle(small_grid, apsp_threshold=0).tier == 2

    def test_large_network_picks_ch(self):
        net = grid_city(66, 66, seed=0)  # > TIER1_MIN_NODES after removal
        assert net.num_nodes >= TIER1_MIN_NODES
        oracle = DistanceOracle(net)
        assert oracle.tier == 1  # resolution alone must not build the CH
        assert oracle._ch is None

    def test_tiny_memory_budget_falls_back_to_lru(self, monkeypatch):
        net = grid_city(66, 66, seed=0)
        monkeypatch.setattr(oracle_module, "MEMORY_BUDGET_MB", 0.1)
        assert DistanceOracle(net).tier == 2

    def test_tiny_budget_also_disables_apsp(self, small_grid, monkeypatch):
        monkeypatch.setattr(oracle_module, "MEMORY_BUDGET_MB", 0.001)
        oracle = DistanceOracle(small_grid)
        assert oracle.tier == 2
        oracle.cost(0, 24)
        assert oracle._apsp is None

    def test_override_honoured(self, small_grid):
        assert DistanceOracle(small_grid, tier=2).tier == 2
        assert DistanceOracle(small_grid, apsp_threshold=0, tier=0).tier == 0
        assert DistanceOracle(small_grid, tier=1).tier == 1

    def test_directed_network_never_tier1(self):
        net = RoadNetwork(undirected=False)
        for i in range(6):
            net.add_edge(i, i + 1, 1.0)
            net.add_edge(i + 1, i, 2.0)
        assert DistanceOracle(net, apsp_threshold=0).tier == 2
        with pytest.raises(ValueError, match="undirected"):
            DistanceOracle(net, tier=1)

    def test_invalid_tier_rejected(self, small_grid):
        with pytest.raises(ValueError, match="tier must be"):
            DistanceOracle(small_grid, tier=3)


class TestTier1BitIdentity:
    """Tier 1 (CH) must return floats ``==`` to tier 0 (APSP) where the
    shortest route is unique or sums exactly — the contract the
    differential fuzz harness leans on."""

    @pytest.mark.xfail(
        strict=True,
        reason="two routes of equal real length round differently, and the "
        "hierarchy keeps the one whose sum is one ulp above dijkstra()'s",
    )
    def test_tied_routes_that_round_apart(self):
        net = RoadNetwork()
        for u, v, w in [(0, 4, 1e-12), (0, 5, 0.0), (1, 2, 2e-12),
                        (1, 3, 1e-12), (2, 4, 2e-12), (2, 5, 1e-12)]:
            net.add_edge(u, v, w)
        # 3-1-2-4 and 3-1-2-5-0-4 both sum to 5e-12 in reals
        assert DistanceOracle(net, tier=1).cost(3, 4) == DistanceOracle(net, tier=0).cost(3, 4)

    def test_all_pairs_bit_identical(self, jitter_grid):
        untiered = DistanceOracle(jitter_grid)
        tiered = DistanceOracle(jitter_grid, tier=1)
        nodes = sorted(jitter_grid.nodes())
        for u in nodes:
            for v in nodes:
                assert tiered.cost(u, v) == untiered.cost(u, v), (u, v)
        assert tiered.ch_query_count > 0
        assert tiered.mode == "ch"

    def test_bit_identical_after_mutation_epoch(self, jitter_grid):
        net = jitter_grid.copy()
        tiered = DistanceOracle(net, tier=1)
        tiered.cost(0, 1)  # force the first CH build
        # symmetric perturbation, as TravelTimePerturbation applies it
        u = next(iter(net.nodes()))
        v = next(iter(net.adjacency[u]))
        for a, b in ((u, v), (v, u)):
            net.adjacency[a][b] *= 1.7
            net.reverse_adjacency[b][a] *= 1.7
        tiered.invalidate()
        untiered = DistanceOracle(net)
        nodes = sorted(net.nodes())
        for a in nodes[::2]:
            for b in nodes[::3]:
                assert tiered.cost(a, b) == untiered.cost(a, b), (a, b)

    def test_symmetric_in_every_tier(self, jitter_grid):
        for kwargs in ({}, {"tier": 1}, {"tier": 2}):
            oracle = DistanceOracle(jitter_grid, **kwargs)
            for u, v in [(0, 17), (3, 30), (11, 20)]:
                assert oracle.cost(u, v) == oracle.cost(v, u)

    def test_fast_cost_fn_matches_cost_bitwise(self, jitter_grid):
        oracle = DistanceOracle(jitter_grid)
        fast = oracle.fast_cost_fn()
        nodes = sorted(jitter_grid.nodes())
        for u in nodes[::2]:
            for v in nodes[::3]:
                assert fast(u, v) == oracle.cost(u, v)


class TestLowerBoundAndSharedLandmarks:
    def test_lower_bound_admissible(self, jitter_grid):
        oracle = DistanceOracle(jitter_grid, tier=1)
        nodes = sorted(jitter_grid.nodes())
        for u in nodes[::2]:
            for v in nodes[::3]:
                assert oracle.lower_bound(u, v) <= oracle.cost(u, v) + 1e-9

    def test_lower_bound_trivial_outside_tier1(self, small_grid):
        oracle = DistanceOracle(small_grid)
        assert oracle.lower_bound(0, 24) == 0.0

    def test_shared_landmarks_only_in_tier1(self, small_grid):
        assert DistanceOracle(small_grid).landmarks() is None
        assert DistanceOracle(small_grid, apsp_threshold=0).landmarks() is None
        shared = DistanceOracle(small_grid, tier=1).landmarks()
        assert shared.dtype == np.float64
        assert shared.shape == (oracle_module.NUM_LANDMARKS, len(small_grid))

    def test_shared_landmarks_fresh_after_invalidate(self, jitter_grid):
        oracle = DistanceOracle(jitter_grid, tier=1)
        oracle._ensure_ch()
        # the rows are built with the hierarchy, not by the gate's first call
        first = oracle._landmarks
        assert first is not None
        assert oracle.landmarks() is first
        oracle.invalidate()
        second = oracle.landmarks()
        assert second is not first
        assert oracle.landmarks() is second  # built once per epoch

    def test_candidate_index_adopts_shared_index(self):
        from repro.core.candidates import VehicleColumns, build_candidate_index
        from repro.core.requests import Rider
        from repro.core.vehicles import Vehicle

        net = grid_city(6, 6, seed=2)
        oracle = DistanceOracle(net, tier=1)
        index = build_candidate_index(net, oracle=oracle)
        # the index keeps no landmark rows: its gate asks the oracle, and
        # after an epoch change (no call into the index) the fresh rows
        oracle.invalidate()
        asked = []
        lower_bounds = oracle.lower_bounds

        def asking(cols, target):
            asked.append(target)
            return lower_bounds(cols, target)

        oracle.lower_bounds = asking
        source = next(iter(net.adjacency[0]))  # a neighbour of the vehicle
        rider = Rider(rider_id=0, source=source, destination=0,
                      pickup_deadline=1e9, dropoff_deadline=2e9)
        vehicles = [Vehicle(vehicle_id=0, location=0, capacity=2)]
        kept = index.prune(rider, VehicleColumns(oracle, vehicles, 0.0))
        assert [v.vehicle_id for v in kept] == [0]
        assert asked == [source]
