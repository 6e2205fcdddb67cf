"""Unit tests for repro.core.assignment and repro.core.instance."""

import pytest

from repro.core.assignment import Assignment
from repro.core.instance import URRInstance
from repro.core.scoring import SolverState
from repro.core.solver import solve
from repro.core.vehicles import Vehicle
from repro.social.graph import SocialNetwork
from tests.conftest import make_rider


class TestInstance:
    def test_duplicate_rider_ids_rejected(self, line_network):
        riders = [make_rider(0), make_rider(0)]
        with pytest.raises(ValueError, match="duplicate rider"):
            URRInstance(network=line_network, riders=riders, vehicles=[])

    def test_duplicate_vehicle_ids_rejected(self, line_network):
        vehicles = [Vehicle(0, 0, 2), Vehicle(0, 1, 2)]
        with pytest.raises(ValueError, match="duplicate vehicle"):
            URRInstance(network=line_network, riders=[], vehicles=vehicles)

    def test_lookup_helpers(self, line_instance):
        assert line_instance.rider(0).rider_id == 0
        assert line_instance.vehicle(0).vehicle_id == 0
        assert line_instance.num_riders == 2
        assert line_instance.num_vehicles == 1

    def test_cost_is_fast_closure(self, line_instance):
        assert line_instance.cost(0, 4) == pytest.approx(4.0)
        assert line_instance.cost(2, 2) == 0.0

    def test_vehicle_utility_default(self, line_instance):
        stranger = make_rider(7, source=0, destination=1)
        assert line_instance.vehicle_utility(
            stranger, line_instance.vehicles[0]
        ) == line_instance.default_vehicle_utility

    def test_vehicle_utility_matrix(self, line_instance):
        assert line_instance.vehicle_utility(
            line_instance.riders[0], line_instance.vehicles[0]
        ) == 0.8

    def test_similarity_override(self, line_instance):
        assert line_instance.similarity(0, 1) == 0.5
        assert line_instance.similarity(1, 0) == 0.5

    def test_similarity_without_social_or_override(self, line_instance):
        assert line_instance.similarity(0, 99) == 0.0

    def test_similarity_via_social_network(self, line_network):
        social = SocialNetwork.from_edges([(100, 200), (101, 200)])
        riders = [
            make_rider(0, social_id=100),
            make_rider(1, source=1, destination=2, social_id=101),
        ]
        instance = URRInstance(
            network=line_network, riders=riders,
            vehicles=[Vehicle(0, 0, 2)], social=social,
        )
        assert instance.similarity(0, 1) == pytest.approx(1.0)  # both friend 200

    def test_rider_without_social_id_zero_similarity(self, line_network):
        social = SocialNetwork.from_edges([(100, 200)])
        riders = [
            make_rider(0, social_id=100),
            make_rider(1, source=1, destination=2, social_id=None),
        ]
        instance = URRInstance(
            network=line_network, riders=riders,
            vehicles=[Vehicle(0, 0, 2)], social=social,
        )
        assert instance.similarity(0, 1) == 0.0

    def test_rng_deterministic(self, line_instance):
        assert line_instance.rng().integers(1000) == line_instance.rng().integers(1000)

    def test_empty_sequence(self, line_instance):
        seq = line_instance.initial_sequence(line_instance.vehicles[0])
        assert seq.origin == 0
        assert seq.capacity == 2
        assert len(seq) == 0


class TestAssignment:
    def make_solved(self, line_instance):
        return solve(line_instance, method="eg")

    def test_empty_assignment(self, line_instance):
        assignment = Assignment.empty(line_instance)
        assert assignment.total_utility() == 0.0
        assert assignment.num_served == 0
        assert assignment.is_valid()
        assert assignment.unserved_rider_ids() == {0, 1}

    def test_vehicle_of(self, line_instance):
        assignment = self.make_solved(line_instance)
        assert assignment.vehicle_of(0) == 0
        assert assignment.vehicle_of(99) is None

    def test_served_and_unserved_partition(self, line_instance):
        assignment = self.make_solved(line_instance)
        served = assignment.served_rider_ids()
        unserved = assignment.unserved_rider_ids()
        assert served | unserved == {0, 1}
        assert not served & unserved

    def test_total_travel_cost(self, line_instance):
        assignment = self.make_solved(line_instance)
        assert assignment.total_travel_cost() > 0

    def test_utility_by_vehicle_sums(self, line_instance):
        assignment = self.make_solved(line_instance)
        assert sum(assignment.utility_by_vehicle().values()) == pytest.approx(
            assignment.total_utility()
        )

    def test_double_assignment_detected(self, line_instance):
        state = SolverState(line_instance)
        rider = line_instance.riders[0]
        vehicle = line_instance.vehicles[0]
        evaluation = state.evaluate(rider, vehicle)
        state.commit(evaluation)
        # fabricate a second vehicle carrying the same rider
        ghost_vehicle = Vehicle(vehicle_id=1, location=0, capacity=2)
        bad_instance = URRInstance(
            network=line_instance.network,
            riders=line_instance.riders,
            vehicles=[vehicle, ghost_vehicle],
            vehicle_utilities=line_instance.vehicle_utilities,
        )
        dup = state.schedule(0).copy()
        assignment = Assignment(
            instance=bad_instance,
            schedules={0: state.schedule(0), 1: dup},
        )
        errors = assignment.validity_errors()
        assert any("assigned to vehicles" in e for e in errors)
