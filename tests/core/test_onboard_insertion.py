"""Insertion into mid-trip schedules (initial-onboard riders).

The transfer-event structure supports vehicles that already carry riders
(Section 3.1's running example starts mid-schedule).  These tests cover
the interaction between initial-onboard riders, capacity accounting, and
Algorithm 1 insertions — a path the batch experiments never exercise but
the online Dispatcher depends on.
"""

import pytest

from repro.core.insertion import arrange_single_rider, valid_insertions
from repro.core.schedule import Stop
from tests.conftest import make_rider, make_sequence


@pytest.fixture
def onboard_rider():
    """Already in the car at node 0, going to node 4."""
    return make_rider(50, source=0, destination=4, pickup_deadline=0.5,
                      dropoff_deadline=30.0)


@pytest.fixture
def mid_trip_seq(line_cost, onboard_rider):
    """Capacity-2 vehicle at node 0 carrying the onboard rider."""
    return make_sequence(
        line_cost, origin=0, capacity=2,
        stops=[Stop.dropoff(onboard_rider)],
        initial_onboard=[onboard_rider],
    )


class TestOnboardCapacity:
    def test_onboard_counts_toward_load(self, mid_trip_seq):
        assert mid_trip_seq.load_before == [1]

    def test_insertion_respects_remaining_capacity(self, mid_trip_seq):
        rider = make_rider(0, source=1, destination=3, pickup_deadline=8.0,
                           dropoff_deadline=20.0)
        result = arrange_single_rider(mid_trip_seq, rider)
        assert result is not None
        assert result.sequence.is_valid()
        assert max(result.sequence.load_before) <= 2

    def test_full_vehicle_rejects_overlapping_rider(self, line_cost, onboard_rider):
        """Capacity 1 with a rider aboard: overlapping pickups must fail."""
        seq = make_sequence(
            line_cost, origin=0, capacity=1,
            stops=[Stop.dropoff(onboard_rider)],
            initial_onboard=[onboard_rider],
        )
        overlapping = make_rider(0, source=1, destination=3,
                                 pickup_deadline=2.0, dropoff_deadline=6.0)
        result = arrange_single_rider(seq, overlapping)
        # only placements after the onboard drop-off could be valid, and
        # those cannot reach node 1 by the 2.0 deadline (drop-off is at 4)
        assert result is None

    def test_pickup_after_onboard_dropoff_allowed(self, line_cost, onboard_rider):
        seq = make_sequence(
            line_cost, origin=0, capacity=1,
            stops=[Stop.dropoff(onboard_rider)],
            initial_onboard=[onboard_rider],
        )
        later = make_rider(0, source=3, destination=1, pickup_deadline=20.0,
                           dropoff_deadline=40.0)
        result = arrange_single_rider(seq, later)
        assert result is not None
        assert result.sequence.is_valid()
        # pickup stop must come after the onboard drop-off
        assert result.pickup_position >= 1

    def test_valid_insertions_capacity_condition(self, mid_trip_seq):
        # during event 0 the car already holds 1 of 2 seats: a pickup can
        # still split it
        pickups = valid_insertions(
            mid_trip_seq, 2, deadline=20.0, count_capacity=True
        )
        assert any(c.position == 0 for c in pickups)

    def test_valid_insertions_capacity_saturated(self, line_cost, onboard_rider):
        seq = make_sequence(
            line_cost, origin=0, capacity=1,
            stops=[Stop.dropoff(onboard_rider)],
            initial_onboard=[onboard_rider],
        )
        pickups = valid_insertions(seq, 2, deadline=20.0, count_capacity=True)
        assert all(c.position != 0 for c in pickups)


class TestOnboardUtility:
    def test_shared_leg_with_onboard_rider_counts(self, line_cost, onboard_rider):
        from repro.core.utility import UtilityModel
        from repro.core.vehicles import Vehicle

        new = make_rider(0, source=1, destination=3, pickup_deadline=8.0,
                         dropoff_deadline=20.0)
        seq = make_sequence(
            line_cost, origin=0, capacity=2,
            stops=[Stop.pickup(new), Stop.dropoff(new),
                   Stop.dropoff(onboard_rider)],
            initial_onboard=[onboard_rider],
        )
        model = UtilityModel(
            alpha=0.0, beta=1.0,
            vehicle_utility=lambda r, v: 0.5,
            similarity=lambda a, b: 0.8,
            cost=line_cost,
        )
        vehicle = Vehicle(vehicle_id=0, location=0, capacity=2)
        # the new rider shares both onboard legs with the onboard rider
        assert model.schedule_utility(vehicle, seq) == pytest.approx(0.8)


class TestSolveLocalSearchFlag:
    """A caller improves a solver's result with the hill climb itself
    (``solve`` has no local-search flag)."""

    def test_flag_improves_or_matches(self, line_instance):
        from repro.core.local_search import improve_assignment
        from repro.core.solver import solve

        plain = solve(line_instance, method="cf")
        improved, _ = improve_assignment(plain)
        assert improved.is_valid()
        assert improved.total_utility() >= plain.total_utility() - 1e-9
        assert improved.solver_name.endswith("+ls")

    def test_flag_ignored_for_opt(self, line_instance):
        from repro.core.local_search import improve_assignment
        from repro.core.solver import solve

        optimal = solve(line_instance, method="opt")
        improved, _ = improve_assignment(optimal)
        # nothing beats the optimum
        assert improved.total_utility() == pytest.approx(
            optimal.total_utility()
        )
