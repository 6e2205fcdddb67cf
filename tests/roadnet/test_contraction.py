"""Unit + property tests for repro.roadnet.contraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.roadnet import contraction
from repro.roadnet import oracle as oracle_module
from repro.roadnet.contraction import ContractionHierarchy
from repro.roadnet.generators import grid_city, ring_radial_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import dijkstra


@pytest.fixture(scope="module")
def grid_ch(small_grid):
    return ContractionHierarchy(small_grid)


def _landmark_rows(net: RoadNetwork, count: int, monkeypatch) -> np.ndarray:
    """``count`` landmark rows of ``net``, as the tier-1 oracle builds them."""
    monkeypatch.setattr(oracle_module, "NUM_LANDMARKS", count)
    return DistanceOracle(net, tier=1).landmarks()


class TestConstruction:
    def test_all_nodes_ranked(self, small_grid, grid_ch):
        assert set(grid_ch.rank) == set(small_grid.nodes())
        ranks = sorted(grid_ch.rank.values())
        assert ranks == list(range(small_grid.num_nodes))

    def test_directed_rejected(self):
        net = RoadNetwork(undirected=False)
        net.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError, match="undirected"):
            ContractionHierarchy(net)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ContractionHierarchy(RoadNetwork())

    def test_landmark_rows_need_one_column_per_node(self, small_grid):
        with pytest.raises(ValueError, match="one column per node"):
            ContractionHierarchy(small_grid, landmarks=np.zeros((2, 3)))

    def test_given_order_is_the_rank(self, small_grid, grid_ch):
        order = list(reversed(grid_ch.order))
        ch = ContractionHierarchy(small_grid, order=order)
        assert ch.order == order
        assert ch.rank == {node: i for i, node in enumerate(order)}
        for v in sorted(small_grid.nodes()):
            assert ch.cost(0, v) == dijkstra(small_grid, 0).get(v, math.inf)

    @pytest.mark.parametrize("change", ["missing", "duplicate", "foreign"])
    def test_order_must_list_every_node_once(self, small_grid, grid_ch, change):
        order = list(grid_ch.order)
        if change == "missing":
            order.pop()
        elif change == "duplicate":
            order[-1] = order[0]
        else:
            order[-1] = 10_000
        with pytest.raises(ValueError, match="every node"):
            ContractionHierarchy(small_grid, order=order)

    def test_shortcut_count_reasonable(self, small_grid, grid_ch):
        # grids should not explode; a few times the edge count at most
        assert grid_ch.num_shortcuts <= small_grid.num_edges

    def test_upward_graph_only_ascends(self, grid_ch):
        for u, edges in grid_ch._upward.items():
            for v, _ in edges:
                assert grid_ch.rank[v] > grid_ch.rank[u]


def _sparse_grid() -> RoadNetwork:
    """A grid whose node ids are not 0..n-1."""
    net = RoadNetwork()
    for u, v, w in grid_city(5, 5, seed=3).edges():
        net.add_edge(10 * u + 7, 10 * v + 7, w)
    return net


class TestColumnMap:
    """One node-to-column map: the oracle's, shared with its hierarchy."""

    def test_oracle_hands_its_map_to_the_hierarchy(self):
        net = _sparse_grid()
        oracle = DistanceOracle(net, tier=1)
        ch = oracle._ensure_ch()
        assert oracle._index is not None
        assert ch._column is oracle._index
        # the PHAST sweeps and the landmark-guided query read those columns
        nodes = sorted(net.nodes())
        est = ch.phast(oracle.columns(nodes[:3]))
        for i, source in enumerate(nodes[:3]):
            exact = dijkstra(net, source)
            for j, node in enumerate(nodes):
                assert est[j, i] == pytest.approx(exact.get(node, math.inf))
        for target in nodes[::4]:
            u, v = min(nodes[1], target), max(nodes[1], target)
            assert oracle.cost(nodes[1], target) == dijkstra(net, u).get(v, math.inf)

    def test_hierarchy_alone_builds_one_map(self):
        net = _sparse_grid()
        ch = ContractionHierarchy(net)
        assert ch._column == {node: i for i, node in enumerate(sorted(net.nodes()))}

    def test_contiguous_ids_need_no_map(self, small_grid):
        oracle = DistanceOracle(small_grid, tier=1)
        assert oracle._ensure_ch()._column is None
        assert ContractionHierarchy(small_grid)._column is None


class TestQueries:
    def test_same_node(self, grid_ch):
        assert grid_ch.cost(7, 7) == 0.0

    def test_exact_on_grid(self, small_grid, grid_ch):
        nodes = sorted(small_grid.nodes())
        for src in nodes[::5]:
            truth = dijkstra(small_grid, src)
            for dst in nodes:
                assert grid_ch.cost(src, dst) == pytest.approx(truth[dst]), (
                    f"{src} -> {dst}"
                )

    def test_exact_on_line(self, line_network):
        ch = ContractionHierarchy(line_network)
        for src in range(5):
            for dst in range(5):
                assert ch.cost(src, dst) == pytest.approx(abs(src - dst))

    def test_exact_on_ring_radial(self):
        net = ring_radial_city(rings=3, spokes=8, seed=4)
        ch = ContractionHierarchy(net)
        nodes = sorted(net.nodes())
        for src in nodes[::7]:
            truth = dijkstra(net, src)
            for dst in nodes[::5]:
                assert ch.cost(src, dst) == pytest.approx(truth[dst])

    def test_unreachable_inf(self):
        net = RoadNetwork()
        net.add_edge(0, 1, 1.0)
        net.add_edge(8, 9, 1.0)
        ch = ContractionHierarchy(net)
        assert math.isinf(ch.cost(0, 9))

    def test_zero_cost_pair_with_landmarks(self, monkeypatch):
        # regression: a zero landmark upper bound pruned the first pop and
        # the query returned inf for a pair joined by a zero-weight edge
        net = RoadNetwork()
        net.add_edge(0, 1, 0.0)
        net.add_edge(1, 2, 2.0)
        ch = ContractionHierarchy(net, landmarks=_landmark_rows(net, 2, monkeypatch))
        assert ch.cost(0, 1) == 0.0
        assert ch.cost(0, 2) == 2.0

    def test_tiny_pair_far_from_landmarks(self, monkeypatch):
        # regression: the landmark bound of a 1e-12 pair next to unit
        # edges carried more rounding than the pair's own distance and
        # pruned the source, so the query returned inf
        net = RoadNetwork()
        for u, v, w in ((0, 3, 1.0), (1, 2, 1e-12), (2, 3, 1e-12)):
            net.add_edge(u, v, w)
        ch = ContractionHierarchy(net, landmarks=_landmark_rows(net, 4, monkeypatch))
        for u in net.nodes():
            truth = dijkstra(net, u)
            for v in net.nodes():
                assert ch.cost(u, v) == truth[v], (u, v)

    def test_callable(self, grid_ch):
        assert grid_ch(0, 24) == grid_ch.cost(0, 24)

    def test_symmetric(self, small_grid, grid_ch):
        nodes = sorted(small_grid.nodes())
        for src, dst in [(0, 24), (3, 21), (10, 14)]:
            assert grid_ch.cost(src, dst) == pytest.approx(grid_ch.cost(dst, src))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 300), data=st.data())
    def test_exact_on_random_grids(self, seed, data):
        net = grid_city(4, 5, seed=seed, removal_fraction=0.15, arterial_every=None)
        ch = ContractionHierarchy(net)
        nodes = sorted(net.nodes())
        src = data.draw(st.sampled_from(nodes))
        dst = data.draw(st.sampled_from(nodes))
        assert ch.cost(src, dst) == pytest.approx(
            dijkstra(net, src).get(dst, math.inf)
        )

    def test_tiny_witness_budget_still_exact(self, small_grid, monkeypatch):
        """A starved witness search adds extra shortcuts but must never
        change query results."""
        monkeypatch.setattr(contraction, "WITNESS_HOP_LIMIT", 2)
        ch = ContractionHierarchy(small_grid)
        nodes = sorted(small_grid.nodes())
        truth = dijkstra(small_grid, nodes[0])
        for dst in nodes[::4]:
            assert ch.cost(nodes[0], dst) == pytest.approx(truth[dst])


class TestUsableAsCostOracle:
    def test_solver_accepts_ch_costs(self, small_grid):
        """A TransferSequence can run on CH-backed costs directly."""
        from repro.core.insertion import arrange_single_rider
        from repro.core.schedule import TransferSequence
        from tests.conftest import make_rider

        ch = ContractionHierarchy(small_grid)
        seq = TransferSequence(origin=0, start_time=0.0, capacity=2, cost=ch.cost)
        rider = make_rider(0, source=6, destination=18,
                           pickup_deadline=20.0, dropoff_deadline=60.0)
        result = arrange_single_rider(seq, rider)
        assert result is not None
        assert result.sequence.is_valid()


class TestLazyUpdateHeap:
    def test_stale_entries_popped_before_comparison(self, small_grid):
        """Regression: the lazy-update rule compared the fresh priority
        against ``heap[0]`` even when the top was a stale entry for an
        already-contracted node, forcing spurious re-pushes.  With stale
        tops popped first, the re-push churn stays well below one per
        node on a small grid."""
        ch = ContractionHierarchy(small_grid)
        assert ch.num_repushes <= small_grid.num_nodes

    def test_repush_churn_bounded_on_random_grids(self):
        for seed in range(5):
            net = grid_city(6, 6, seed=seed, arterial_every=None)
            ch = ContractionHierarchy(net)
            # empirical post-fix ceiling with margin; the pre-fix code
            # trips this (stale tops re-push far more aggressively)
            assert ch.num_repushes <= 2 * net.num_nodes


class TestBitIdenticalToDijkstra:
    """CH unpacks the up-down path and re-sums original edges from the
    source, so results are ``==`` to Dijkstra, not just approx."""

    def test_bit_identical_on_jittered_grids(self):
        for seed in (0, 7, 23):
            net = grid_city(5, 5, seed=seed, removal_fraction=0.1,
                            arterial_every=None)
            ch = ContractionHierarchy(net)
            nodes = sorted(net.nodes())
            for src in nodes[::4]:
                truth = dijkstra(net, src)
                for dst in nodes[::3]:
                    assert ch.cost(src, dst) == truth.get(dst, math.inf)

    def test_unpacked_edges_exist_in_network(self, small_grid):
        ch = ContractionHierarchy(small_grid)
        out = []
        # unpack every upward edge; all fragments must be original edges
        for u, edges in ch._upward.items():
            for v, _cost in edges:
                frag = []
                ch._unpack(u, v, frag)
                out.extend(frag)
        for a, b in out:
            assert b in small_grid.adjacency[a]
