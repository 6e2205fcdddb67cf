"""Unit tests for repro.core.grouping (GBS, Section 6)."""

import math

import pytest

from repro.core.grouping import (
    default_d_max,
    estimate_best_k,
    filter_vehicles_for_group,
    gbs_cost_derivative,
    gbs_cost_model,
    optimal_eta,
    prepare_grouping,
    run_grouping,
)
from repro.core.instance import URRInstance
from repro.core.scoring import SolverState
from repro.core.vehicles import Vehicle
from tests.conftest import make_rider


@pytest.fixture(scope="module")
def grid_plan(small_grid):
    return prepare_grouping(small_grid, k=3)


class TestPrepareGrouping:
    def test_plan_fields(self, small_grid, grid_plan):
        assert grid_plan.k == 3
        assert grid_plan.d_max == pytest.approx(default_d_max(small_grid))
        assert grid_plan.short_trip_bound == pytest.approx(3 * grid_plan.d_max)
        assert grid_plan.num_areas >= 1

    def test_default_d_max_is_1_5x_mean(self, line_network):
        assert default_d_max(line_network) == pytest.approx(1.5)

    def test_default_d_max_empty_network(self):
        from repro.roadnet.graph import RoadNetwork

        assert default_d_max(RoadNetwork()) == 1.0

    def test_plan_covers_original_nodes(self, small_grid, grid_plan):
        for node in small_grid.nodes():
            assert grid_plan.areas.center_of(node) is not None

    def test_oracle_warmed_for_centers(self, grid_plan):
        # every centre's distances were precomputed at plan time: reading
        # a centre's row runs no search
        oracle = grid_plan.oracle
        before = oracle.dijkstra_count + oracle.bidirectional_count
        for center in grid_plan.areas.centers:
            oracle.costs_from(center)
        assert oracle.dijkstra_count + oracle.bidirectional_count == before
        assert oracle.stats()["pinned_sources"] == len(grid_plan.areas.centers)


class TestRunGrouping:
    def make_instance(self, small_grid, num_riders=12, capacity=2):
        import numpy as np

        rng = np.random.default_rng(5)
        nodes = sorted(small_grid.nodes())
        riders = []
        for i in range(num_riders):
            src, dst = rng.choice(nodes, size=2, replace=False)
            riders.append(
                make_rider(i, source=int(src), destination=int(dst),
                           pickup_deadline=float(rng.uniform(3, 10)),
                           dropoff_deadline=30.0)
            )
        vehicles = [
            Vehicle(vehicle_id=j, location=int(nodes[j * 7 % len(nodes)]),
                    capacity=capacity)
            for j in range(3)
        ]
        return URRInstance(network=small_grid, riders=riders, vehicles=vehicles)

    def test_produces_valid_schedules(self, small_grid, grid_plan):
        instance = self.make_instance(small_grid)
        state = SolverState(instance)
        run_grouping(state, instance.riders, grid_plan, base="eg")
        for seq in state.schedules.values():
            assert seq.is_valid()

    def test_ba_base_also_works(self, small_grid, grid_plan):
        instance = self.make_instance(small_grid)
        state = SolverState(instance)
        run_grouping(state, instance.riders, grid_plan, base="ba")
        for seq in state.schedules.values():
            assert seq.is_valid()

    def test_unknown_base_rejected(self, small_grid, grid_plan):
        instance = self.make_instance(small_grid)
        state = SolverState(instance)
        with pytest.raises(ValueError, match="base solver"):
            run_grouping(state, instance.riders, grid_plan, base="xx")

    def test_no_rider_served_twice(self, small_grid, grid_plan):
        instance = self.make_instance(small_grid, num_riders=16)
        state = SolverState(instance)
        run_grouping(state, instance.riders, grid_plan, base="eg")
        seen = set()
        for seq in state.schedules.values():
            for rider in seq.assigned_riders():
                assert rider.rider_id not in seen
                seen.add(rider.rider_id)


class TestVehicleFilter:
    def test_filter_reads_centre_rows_from_the_block(
        self, small_grid, grid_plan, monkeypatch
    ):
        # the filter answers from the pinned centre rows: no search and no
        # dict view, with the predicate applied to dijkstra()'s distances
        from repro.roadnet.shortest_path import dijkstra

        instance = TestRunGrouping().make_instance(small_grid)
        state = SolverState(instance)
        oracle = grid_plan.oracle

        def no_dict_rows(source):
            raise AssertionError("filter built a dict row")

        monkeypatch.setattr(oracle, "costs_from", no_dict_rows)
        before = oracle.dijkstra_count + oracle.bidirectional_count
        bound = grid_plan.short_trip_bound
        slack = 2.0 - instance.start_time
        for center in grid_plan.areas.centers:
            dest = center + 1 if center + 1 in small_grid else center - 1
            group = [make_rider(0, source=center, destination=dest,
                                pickup_deadline=2.0, dropoff_deadline=9.0)]
            valid = filter_vehicles_for_group(
                state, grid_plan, center, group, instance.vehicles
            )
            dist = dijkstra(grid_plan.network, center)
            assert valid == [
                v for v in instance.vehicles
                if dist.get(v.location, math.inf) - bound < slack + 1e-9
            ]
        assert oracle.dijkstra_count + oracle.bidirectional_count == before

    def test_filter_keeps_close_vehicles(self, small_grid, grid_plan):
        instance = TestRunGrouping().make_instance(small_grid)
        state = SolverState(instance)
        center = grid_plan.areas.centers[0]
        group = [make_rider(0, source=center, destination=center + 1
                            if center + 1 in small_grid else center - 1,
                            pickup_deadline=100.0, dropoff_deadline=200.0)]
        valid = filter_vehicles_for_group(
            state, grid_plan, center, group, instance.vehicles
        )
        # enormous slack: everything passes
        assert len(valid) == len(instance.vehicles)

    def test_filter_drops_far_vehicles(self, small_grid, grid_plan):
        instance = TestRunGrouping().make_instance(small_grid)
        state = SolverState(instance)
        center = grid_plan.areas.centers[0]
        dest = center + 1 if center + 1 in small_grid else center - 1
        group = [make_rider(0, source=center, destination=dest,
                            pickup_deadline=1e-6, dropoff_deadline=1.0)]
        valid = filter_vehicles_for_group(
            state, grid_plan, center, group, instance.vehicles
        )
        # zero slack: only vehicles within the area bound remain
        bound = grid_plan.short_trip_bound
        for v in valid:
            assert grid_plan.oracle.cost(center, v.location) < bound + 1e-6

    def test_filter_never_false_negative(self, small_grid, grid_plan):
        """Any vehicle that can actually reach some rider origin in time
        must pass the filter (the condition is necessary-side safe)."""
        instance = TestRunGrouping().make_instance(small_grid)
        state = SolverState(instance)
        cost = instance.cost
        for area in grid_plan.areas.areas[:5]:
            members = [n for n in area.members if n in small_grid][:2]
            if not members:
                continue
            group = []
            for i, node in enumerate(members):
                dest = next(d for d in small_grid.nodes() if d != node)
                group.append(
                    make_rider(i, source=node, destination=dest,
                               pickup_deadline=4.0, dropoff_deadline=30.0)
                )
            valid = {
                v.vehicle_id
                for v in filter_vehicles_for_group(
                    state, grid_plan, area.center, group, instance.vehicles
                )
            }
            for v in instance.vehicles:
                reaches = any(
                    cost(v.location, r.source) <= r.pickup_deadline
                    for r in group
                )
                if reaches:
                    assert v.vehicle_id in valid


class TestCostModel:
    def test_cost_model_positive(self):
        assert gbs_cost_model(10, s=1000, m=500, n=50) > 0

    def test_cost_model_invalid_eta(self):
        with pytest.raises(ValueError):
            gbs_cost_model(0.5, 100, 10, 5)
        with pytest.raises(ValueError):
            gbs_cost_derivative(0.0, 100, 10, 5)

    def test_derivative_increases_with_eta(self):
        s, m, n = 2000, 5000, 200
        values = [gbs_cost_derivative(e, s, m, n) for e in (1, 10, 100, 1000)]
        assert values[0] < values[-1]

    def test_derivative_negative_at_one_for_paper_scale(self):
        # the paper observes dCost/deta << 0 at eta = 1
        assert gbs_cost_derivative(1.0, s=264346, m=5000, n=200) < 0

    def test_optimal_eta_is_zero_crossing(self):
        s, m, n = 2000, 5000, 200
        eta = optimal_eta(s, m, n)
        assert abs(gbs_cost_derivative(eta, s, m, n)) < 1.0

    def test_optimal_eta_near_cost_minimum(self):
        s, m, n = 2000, 5000, 200
        eta = optimal_eta(s, m, n)
        best = min(range(1, s), key=lambda e: gbs_cost_model(e, s, m, n))
        # the analytic optimum sits near the discrete minimum
        assert abs(eta - best) / max(best, 1) < 0.25

    def test_estimate_best_k(self, small_grid):
        k, probed = estimate_best_k(small_grid, m=50, n=5, k_min=2, k_max=6)
        assert 2 <= k <= 6
        assert probed  # at least one cover was computed
        # eta broadly decreases as k grows (the pruning heuristic is not
        # strictly monotone, so allow a small wobble)
        ks = sorted(probed)
        for a, b in zip(ks, ks[1:]):
            assert probed[a] >= probed[b] - 2
