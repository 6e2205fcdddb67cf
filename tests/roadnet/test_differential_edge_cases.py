"""Differential property tests: CH ``cost()`` and the tier-1 oracle (CH
with landmark pruning, landmark rows, the landmark lower bound) pinned
against plain Dijkstra on the degenerate network shapes the
connected-grid tests miss — directed rejection, disconnected components,
single-node graphs, and duplicate edge insertions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.roadnet.contraction import ContractionHierarchy
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import dijkstra
from tests.conftest import assert_landmark_rows_exact


def _assert_matches_dijkstra(net, accel, exact=False):
    nodes = sorted(net.nodes())
    for src in nodes:
        truth = dijkstra(net, src)
        for dst in nodes:
            expected = truth.get(dst, math.inf)
            got = accel.cost(src, dst)
            if exact and not math.isinf(expected):
                assert got == expected, (src, dst)
            else:
                assert got == pytest.approx(expected), (src, dst)


def _duplicate_edge_net():
    """Edges re-added with changed costs, both directions kept symmetric
    (mirroring how TravelTimePerturbation mutates undirected networks)."""
    net = RoadNetwork()
    net.add_edge(0, 1, 5.0)
    net.add_edge(1, 2, 2.0)
    net.add_edge(2, 3, 4.0)
    net.add_edge(0, 3, 20.0)
    # re-add with new costs (add_edge sets both directions; the explicit
    # reverse calls re-add the same cost)
    net.add_edge(0, 1, 1.5)
    net.add_edge(1, 0, 1.5)
    net.add_edge(2, 3, 1.0)
    net.add_edge(3, 2, 1.0)
    # true duplicates (same cost twice) must be harmless
    net.add_edge(1, 2, 2.0)
    return net


def _disconnected_net():
    net = RoadNetwork()
    for base in (0, 10, 20):
        net.add_edge(base, base + 1, 1.25)
        net.add_edge(base + 1, base + 2, 0.75)
        net.add_edge(base, base + 2, 2.5)
    return net


class TestContractionEdgeCases:
    def test_directed_rejected(self):
        net = RoadNetwork(undirected=False)
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 0, 1.0)
        with pytest.raises(ValueError, match="undirected"):
            ContractionHierarchy(net)

    def test_single_node(self):
        net = RoadNetwork()
        net.add_node(42)
        ch = ContractionHierarchy(net)
        assert ch.cost(42, 42) == 0.0

    def test_disconnected_components(self):
        net = _disconnected_net()
        ch = ContractionHierarchy(net)
        _assert_matches_dijkstra(net, ch, exact=True)
        assert math.isinf(ch.cost(0, 11))
        assert math.isinf(ch.cost(20, 2))

    def test_duplicate_edges(self):
        net = _duplicate_edge_net()
        ch = ContractionHierarchy(net)
        _assert_matches_dijkstra(net, ch, exact=True)
        # the re-added cost must be in effect: 0->3 via 1,2 = 1.5+2+1
        assert ch.cost(0, 3) == pytest.approx(4.5)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_random_sparse_grids_with_isolated_parts(self, seed):
        # heavy removal fractures the grid before largest_component is
        # applied by the generator — rebuild a multi-component net by
        # unioning two shifted grids instead
        a = grid_city(3, 4, seed=seed, arterial_every=None)
        net = RoadNetwork()
        for u, v, cost in a.edges():
            if not net.has_edge(u, v):
                net.add_edge(u, v, cost)
        offset = max(net.nodes()) + 100
        for u, v, cost in a.edges():
            if not net.has_edge(u + offset, v + offset):
                net.add_edge(u + offset, v + offset, cost)
        ch = ContractionHierarchy(net)
        nodes = sorted(net.nodes())
        for src in nodes[::5]:
            truth = dijkstra(net, src)
            for dst in nodes[::3]:
                assert ch.cost(src, dst) == truth.get(dst, math.inf)


def _assert_oracle_exact(net, oracle):
    """``oracle.cost`` equals dijkstra() bitwise in the canonical
    direction (an undirected query is answered from its smaller id)."""
    nodes = sorted(net.nodes())
    for src in nodes:
        truth = dijkstra(net, src)
        for dst in nodes[nodes.index(src):]:
            expected = truth.get(dst, math.inf)
            assert oracle.cost(src, dst) == oracle.cost(dst, src) == expected


class TestLandmarkEdgeCases:
    def test_directed_rejected(self):
        net = RoadNetwork(undirected=False)
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 0, 1.0)
        with pytest.raises(ValueError, match="undirected"):
            DistanceOracle(net, tier=1)

    def test_single_node(self):
        net = RoadNetwork()
        net.add_node(7)
        oracle = DistanceOracle(net, tier=1)
        assert oracle.cost(7, 7) == 0.0
        assert oracle._landmark_nodes is None  # a same-node query needs none
        assert oracle.landmarks().tolist() == [[0.0]]
        assert oracle._landmark_nodes == [7]

    def test_disconnected_components(self):
        net = _disconnected_net()
        oracle = DistanceOracle(net, tier=1)
        _assert_oracle_exact(net, oracle)
        assert_landmark_rows_exact(oracle)
        assert math.isinf(oracle.cost(0, 11))
        # across components the bound is the cost itself: infinite
        assert math.isinf(oracle.lower_bound(0, 21))
        assert oracle.lower_bound(20, 22) <= oracle.cost(20, 22)

    def test_duplicate_edges(self):
        net = _duplicate_edge_net()
        oracle = DistanceOracle(net, tier=1)
        _assert_oracle_exact(net, oracle)
        assert_landmark_rows_exact(oracle)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 200), data=st.data())
    def test_random_grids_match_dijkstra(self, seed, data):
        net = grid_city(4, 4, seed=seed, removal_fraction=0.2,
                        arterial_every=None)
        oracle = DistanceOracle(net, tier=1)
        assert_landmark_rows_exact(oracle)
        nodes = sorted(net.nodes())
        src, dst = sorted(data.draw(st.sampled_from(nodes)) for _ in range(2))
        truth = dijkstra(net, src).get(dst, math.inf)
        assert oracle.cost(src, dst) == oracle.cost(dst, src) == truth
        assert oracle.lower_bound(src, dst) <= truth + 1e-9
