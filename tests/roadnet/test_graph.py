"""Unit tests for repro.roadnet.graph."""

import pytest

from repro.roadnet.graph import RoadNetwork


class TestConstruction:
    def test_empty_network(self):
        net = RoadNetwork()
        assert len(net) == 0
        assert net.num_edges == 0

    def test_add_node_idempotent(self):
        net = RoadNetwork()
        net.add_node(1)
        net.add_node(1)
        assert len(net) == 1

    def test_add_node_with_coordinates(self):
        net = RoadNetwork()
        net.add_node(1, x=2.0, y=3.0)
        assert net.position(1) == (2.0, 3.0)

    def test_add_node_preserves_coordinates_on_readd(self):
        net = RoadNetwork()
        net.add_node(1, x=2.0, y=3.0)
        net.add_node(1)
        assert net.position(1) == (2.0, 3.0)

    def test_undirected_edge_adds_reverse(self):
        net = RoadNetwork(undirected=True)
        net.add_edge(1, 2, 5.0)
        assert net.edge_cost(1, 2) == 5.0
        assert net.edge_cost(2, 1) == 5.0

    def test_directed_edge_no_reverse(self):
        net = RoadNetwork(undirected=False)
        net.add_edge(1, 2, 5.0)
        assert net.has_edge(1, 2)
        assert not net.has_edge(2, 1)

    def test_undirected_edge_overwrites_both_directions(self):
        # regression: re-adding an edge used to update only u -> v and
        # keep the old reverse cost, so one edge held two costs
        net = RoadNetwork(undirected=True)
        net.add_edge(0, 1, 1.0)
        net.add_edge(0, 1, 5.0)
        assert net.edge_cost(0, 1) == net.edge_cost(1, 0) == 5.0
        net.add_edge(1, 0, 7.0)
        assert net.edge_cost(0, 1) == net.edge_cost(1, 0) == 7.0
        assert net.in_neighbors(0) == {1: 7.0}
        assert net.in_neighbors(1) == {0: 7.0}

    def test_negative_cost_rejected(self):
        net = RoadNetwork()
        with pytest.raises(ValueError, match="non-negative"):
            net.add_edge(1, 2, -1.0)

    def test_self_loop_rejected(self):
        net = RoadNetwork()
        with pytest.raises(ValueError, match="self-loop"):
            net.add_edge(1, 1, 1.0)

    def test_remove_edge(self):
        net = RoadNetwork(undirected=False)
        net.add_edge(1, 2, 1.0)
        net.remove_edge(1, 2)
        assert not net.has_edge(1, 2)
        assert 2 not in net.reverse_adjacency or 1 not in net.reverse_adjacency[2]


class TestQueries:
    def test_contains(self, line_network):
        assert 0 in line_network
        assert 99 not in line_network

    def test_num_edges_counts_directed(self, line_network):
        # 4 undirected edges = 8 directed
        assert line_network.num_edges == 8

    def test_neighbors(self, line_network):
        assert set(line_network.neighbors(1)) == {0, 2}

    def test_in_neighbors_on_directed(self):
        net = RoadNetwork(undirected=False)
        net.add_edge(1, 2, 1.0)
        net.add_edge(3, 2, 1.0)
        assert set(net.in_neighbors(2)) == {1, 3}

    def test_degree(self, line_network):
        assert line_network.degree(0) == 1
        assert line_network.degree(2) == 2

    def test_edge_cost_missing_raises(self, line_network):
        with pytest.raises(KeyError):
            line_network.edge_cost(0, 4)

    def test_euclidean(self, line_network):
        assert line_network.euclidean(0, 4) == pytest.approx(4.0)

    def test_edges_iteration(self, square_network):
        edges = list(square_network.edges())
        assert len(edges) == square_network.num_edges
        assert all(cost > 0 for _, _, cost in edges)


class TestDerived:
    def test_subgraph_keeps_internal_edges(self, square_network):
        sub = square_network.subgraph([0, 1, 2])
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 2)
        assert sub.has_edge(0, 2)
        assert 3 not in sub

    def test_subgraph_keeps_coordinates(self, line_network):
        sub = line_network.subgraph([0, 1])
        assert sub.position(0) == (0.0, 0.0)

    def test_connected_component(self):
        net = RoadNetwork()
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        comp = net.connected_component(0)
        assert set(comp) == {0, 1}

    def test_largest_component(self):
        net = RoadNetwork()
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        net.add_edge(3, 4, 1.0)
        largest = net.largest_component()
        assert set(largest.nodes()) == {2, 3, 4}

    def test_copy_is_independent(self, line_network):
        clone = line_network.copy()
        clone.add_edge(0, 4, 9.0)
        assert not line_network.has_edge(0, 4)
        assert clone.has_edge(0, 4)
