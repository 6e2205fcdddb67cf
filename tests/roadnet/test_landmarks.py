"""Unit + property tests for the tier-1 landmark rows of
:class:`~repro.roadnet.oracle.DistanceOracle` (farthest-point selection,
exact rows, the ALT lower bound)."""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import start_trace, stop_trace
from repro.perf import ORACLE_STATS
from repro.roadnet import oracle as oracle_module
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import INF, dijkstra
from tests.conftest import assert_landmark_rows_exact


def _tier1(net: RoadNetwork, count: int) -> DistanceOracle:
    """A tier-1 oracle over ``net`` whose rows hold ``count`` landmarks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_module, "NUM_LANDMARKS", count)
        oracle = DistanceOracle(net, tier=1)
        oracle.landmarks()
    return oracle


@pytest.fixture(scope="module")
def grid_index(small_grid):
    return _tier1(small_grid, 4)


class TestConstruction:
    def test_landmark_count(self, grid_index, small_grid):
        assert grid_index.landmarks().shape == (4, len(small_grid))

    def test_landmarks_distinct(self, grid_index):
        assert len(set(grid_index._landmark_nodes)) == 4

    def test_landmarks_spread_out(self, small_grid, grid_index):
        """Farthest-point sampling keeps landmarks pairwise distant."""
        landmarks = grid_index._landmark_nodes
        dist = {l: dijkstra(small_grid, l) for l in landmarks}
        pairs = [dist[a][b] for a in landmarks for b in landmarks if a != b]
        assert min(pairs) > 1.0  # never adjacent on a 5x5 grid

    def test_directed_network_rejected(self):
        net = RoadNetwork(undirected=False)
        net.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError, match="undirected"):
            DistanceOracle(net, tier=1)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            DistanceOracle(RoadNetwork(), tier=1).landmarks()

    def test_more_landmarks_than_nodes(self, line_network):
        oracle = _tier1(line_network, 50)
        assert len(oracle.landmarks()) <= len(line_network)
        assert_landmark_rows_exact(oracle)


class TestLandmarkSearches:
    """The selection's Dijkstras are counted in ``landmark_rows``; a kept
    landmark's row is re-filled by the batched pass (``batch_rows``)."""

    def test_counted_once_per_build(self, small_grid):
        oracle = DistanceOracle(small_grid, tier=1)
        rows = len(oracle.landmarks())
        stats = oracle.stats()
        # the seed search plus one search per landmark row
        assert stats["landmark_rows"] == rows + 1
        # dijkstra_count stays the query and batch-pass count
        assert stats["dijkstra_count"] == 0
        assert ORACLE_STATS.load(stats).searches == (
            stats["ch_query_count"] + stats["batch_rows"] + rows + 1
        )
        oracle.landmarks()
        oracle.lower_bound(0, 24)
        assert oracle.stats()["landmark_rows"] == rows + 1  # built once
        before = oracle.stats()
        oracle.invalidate()
        oracle.landmarks()
        after = oracle.stats()
        # the same node set keeps the landmarks: the new epoch re-fills
        # their rows in the batched pass and selects nothing
        assert after["landmark_rows"] == rows + 1
        assert after["batch_rows"] - before["batch_rows"] == rows
        assert_landmark_rows_exact(oracle)

    def test_build_span_carries_the_count(self, small_grid):
        stream = io.StringIO()
        start_trace(stream=stream)
        try:
            oracle = DistanceOracle(small_grid, tier=1)
            rows = len(oracle.landmarks())
        finally:
            stop_trace()
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        (span,) = [e for e in events if e.get("name") == "oracle.build_landmarks"]
        assert span["attrs"]["rows"] == rows + 1

    def test_other_tiers_run_none(self, small_grid):
        for tier in (0, 2):
            oracle = DistanceOracle(small_grid, tier=tier)
            assert oracle.landmarks() is None
            oracle.cost(0, 24)
            assert oracle.stats()["landmark_rows"] == 0


class TestQueries:
    def test_same_node(self, grid_index):
        assert grid_index.lower_bound(3, 3) == 0.0

    def test_exactness_vs_dijkstra(self, grid_index):
        assert_landmark_rows_exact(grid_index)

    def test_heuristic_admissible(self, small_grid, grid_index):
        nodes = sorted(small_grid.nodes())
        target = nodes[-1]
        truth = {n: dijkstra(small_grid, n).get(target, math.inf) for n in nodes}
        for node in nodes:
            assert grid_index.lower_bound(node, target) <= truth[node] + 1e-9

    def test_lower_bounds_gathers_every_column_at_once(self, small_grid, grid_index):
        rows = grid_index.landmarks().tolist()
        nodes = sorted(small_grid.nodes())
        cols = grid_index.columns(nodes)
        for target in (nodes[0], nodes[12], nodes[-1]):
            t = grid_index.column(target)
            expect = [
                max([abs(row[c] - row[t]) for row in rows], default=0.0)
                for c in cols.tolist()
            ]
            got = grid_index.lower_bounds(cols, target)
            assert got.dtype == float and got.tolist() == expect
            # the scalar bound is its one-node case
            assert [grid_index.lower_bound(u, target) for u in nodes] == expect

    def test_lower_bounds_at_tier_two_are_zero(self, small_grid):
        # tier 0 serves its table entries instead (test_candidates_properties)
        oracle = DistanceOracle(small_grid, tier=2)
        cols = oracle.columns(sorted(small_grid.nodes()))
        assert oracle.lower_bounds(cols, 3).tolist() == [0.0] * len(cols)

    def test_unreachable_inf(self):
        net = RoadNetwork()
        net.add_edge(0, 1, 1.0)
        net.add_edge(5, 6, 2.0)
        net.add_node(9)
        oracle = _tier1(net, 1)
        assert oracle._landmark_nodes == [1]
        # the landmark reaches one node of the pair: they are in
        # different components, and the bound is the (infinite) cost
        assert math.isinf(oracle.lower_bound(0, 9))
        assert math.isinf(oracle.cost(0, 9))
        # it reaches neither: no bound, however far apart they are
        assert oracle.lower_bound(5, 6) == 0.0
        assert oracle.lower_bound(5, 9) == 0.0
        assert oracle.cost(5, 6) == 2.0
        bounds = oracle.lower_bounds(oracle.columns([0, 1, 5, 6, 9]), 9)
        assert bounds.tolist() == [INF, INF, 0.0, 0.0, 0.0]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 200), data=st.data())
    def test_exact_on_random_grids(self, seed, data):
        net = grid_city(4, 5, seed=seed, removal_fraction=0.1, arterial_every=None)
        oracle = _tier1(net, 3)
        assert_landmark_rows_exact(oracle)
        nodes = sorted(net.nodes())
        src = data.draw(st.sampled_from(nodes))
        dst = data.draw(st.sampled_from(nodes))
        assert oracle.lower_bound(src, dst) <= (
            dijkstra(net, src).get(dst, math.inf) + 1e-9
        )


class TestSelectionEquivalence:
    """The array selection must pick the landmarks of the plain
    O(k²·V) re-scan, ties included."""

    @staticmethod
    def _select_reference(network, count):
        # per-node min over all landmarks, recomputed every iteration
        start = next(iter(network.nodes()))
        first_dist = dijkstra(network, start)
        first = max(first_dist, key=first_dist.get)
        landmarks = [first]
        dist = {first: dijkstra(network, first)}
        while len(landmarks) < min(count, len(network)):
            best_node = None
            best_score = -1.0
            for node in network.nodes():
                score = min(dist[l].get(node, INF) for l in landmarks)
                if score != INF and score > best_score:
                    best_score = score
                    best_node = node
            if best_node is None or best_score <= 0.0:
                break
            landmarks.append(best_node)
            dist[best_node] = dijkstra(network, best_node)
        return landmarks

    def test_matches_reference_on_grids(self, small_grid):
        for net in [small_grid] + [grid_city(7, 6, seed=s) for s in (0, 3, 11)]:
            oracle = _tier1(net, 6)
            assert oracle._landmark_nodes == self._select_reference(net, 6)

    def test_matches_reference_on_disconnected(self):
        net = RoadNetwork()
        for base in (0, 100):
            for i in range(4):
                net.add_edge(base + i, base + i + 1, 1.0 + 0.1 * i)
        oracle = _tier1(net, 4)
        assert oracle._landmark_nodes == self._select_reference(net, 4)
        assert_landmark_rows_exact(oracle)

    def test_matches_reference_more_landmarks_than_positions(self):
        net = RoadNetwork()
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 2, 1.0)
        oracle = _tier1(net, 10)
        assert oracle._landmark_nodes == self._select_reference(net, 10)

    def test_benchmark_city_landmarks_pinned(self):
        """The 16 landmarks of the benchmark's 64×64 city, as the
        dict-based selection picked them."""
        oracle = DistanceOracle(grid_city(64, 64, seed=7), tier=1)
        oracle.landmarks()
        assert oracle._landmark_nodes == [
            4095, 130, 255, 4035, 2140, 2175, 4060, 225,
            2114, 3181, 1389, 1040, 3216, 4019, 1343, 1314,
        ]
