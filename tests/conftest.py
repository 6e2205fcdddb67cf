"""Shared fixtures: small deterministic networks and instances."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.instance import URRInstance
from repro.core.requests import Rider
from repro.core.schedule import Stop, TransferSequence
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city, paper_example_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import dijkstra


@pytest.fixture(scope="session")
def line_network() -> RoadNetwork:
    """0 - 1 - 2 - 3 - 4 in a line, unit edge costs."""
    net = RoadNetwork()
    for i in range(4):
        net.add_edge(i, i + 1, 1.0)
    for i in range(5):
        net.add_node(i, x=float(i), y=0.0)
    return net


@pytest.fixture(scope="session")
def square_network() -> RoadNetwork:
    """A 4-cycle with one diagonal shortcut:

    0 - 1 (1), 1 - 2 (1), 2 - 3 (1), 3 - 0 (1), 0 - 2 (1.5)
    """
    net = RoadNetwork()
    net.add_edge(0, 1, 1.0)
    net.add_edge(1, 2, 1.0)
    net.add_edge(2, 3, 1.0)
    net.add_edge(3, 0, 1.0)
    net.add_edge(0, 2, 1.5)
    return net


@pytest.fixture(scope="session")
def small_grid() -> RoadNetwork:
    """A deterministic 5x5 grid, no removals, no arterials."""
    return grid_city(5, 5, seed=3, removal_fraction=0.0, arterial_every=None)


@pytest.fixture(scope="session")
def example_network() -> RoadNetwork:
    return paper_example_network()


@pytest.fixture(scope="session")
def grid_oracle(small_grid) -> DistanceOracle:
    return DistanceOracle(small_grid)


@pytest.fixture
def line_cost(line_network):
    return DistanceOracle(line_network).fast_cost_fn()


def make_rider(rider_id=0, source=0, destination=4, pickup_deadline=5.0,
               dropoff_deadline=20.0, social_id=None) -> Rider:
    return Rider(
        rider_id=rider_id,
        source=source,
        destination=destination,
        pickup_deadline=pickup_deadline,
        dropoff_deadline=dropoff_deadline,
        social_id=social_id,
    )


def assert_landmark_rows_exact(oracle: DistanceOracle) -> None:
    """Every landmark row of a tier-1 oracle is :func:`dijkstra` from its
    landmark, bit for bit, with ``inf`` where the landmark cannot reach."""
    rows = oracle.landmarks()
    nodes = oracle._landmark_nodes
    assert len(rows) == len(nodes) == len(set(nodes))
    for node, row in zip(nodes, rows):
        truth = dijkstra(oracle.network, node)
        expected = np.full(len(row), math.inf)
        expected[oracle.columns(truth)] = list(truth.values())
        assert row.tobytes() == expected.tobytes(), f"landmark {node}"


def make_sequence(cost, origin=0, start_time=0.0, capacity=2, stops=None,
                  initial_onboard=None) -> TransferSequence:
    return TransferSequence(
        origin=origin,
        start_time=start_time,
        capacity=capacity,
        cost=cost,
        stops=stops or [],
        initial_onboard=initial_onboard,
    )


@pytest.fixture
def line_instance(line_network) -> URRInstance:
    """Two riders and one vehicle on the line network.

    Vehicle at node 0; rider 0 travels 1 -> 3, rider 1 travels 2 -> 4.
    Generous deadlines so a shared schedule exists.
    """
    riders = [
        make_rider(0, source=1, destination=3, pickup_deadline=5.0, dropoff_deadline=20.0),
        make_rider(1, source=2, destination=4, pickup_deadline=8.0, dropoff_deadline=25.0),
    ]
    vehicles = [Vehicle(vehicle_id=0, location=0, capacity=2)]
    return URRInstance(
        network=line_network,
        riders=riders,
        vehicles=vehicles,
        alpha=0.33,
        beta=0.33,
        vehicle_utilities={(0, 0): 0.8, (1, 0): 0.6},
        similarity_overrides={(0, 1): 0.5},
    )
