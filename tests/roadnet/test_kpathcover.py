"""Unit + property tests for repro.roadnet.kpathcover."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.kpathcover import (
    k_path_cover,
    k_shortest_path_cover,
    verify_cover,
)
from repro.roadnet.oracle import DistanceOracle


class TestKPathCover:
    def test_k1_is_all_vertices(self, line_network):
        assert k_path_cover(line_network, 1) == set(line_network.nodes())

    def test_invalid_k(self, line_network):
        with pytest.raises(ValueError):
            k_path_cover(line_network, 0)

    def test_line_k2_is_vertex_cover(self, line_network):
        # every edge (2-vertex path) must be hit
        cover = k_path_cover(line_network, 2)
        for u, v, _ in line_network.edges():
            assert u in cover or v in cover

    def test_line_k3(self, line_network):
        cover = k_path_cover(line_network, 3)
        assert verify_cover(line_network, cover, 3)
        # on a 5-line, {1, 3} suffices; pruning should do no worse than 3
        assert len(cover) <= 3

    def test_cover_valid_on_grid(self, small_grid):
        for k in (2, 3, 4):
            cover = k_path_cover(small_grid, k)
            assert verify_cover(small_grid, cover, k)

    def test_larger_k_smaller_cover(self, small_grid):
        sizes = [len(k_path_cover(small_grid, k)) for k in (2, 3, 5)]
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_long_line_k_large_leaves_gaps(self):
        net = RoadNetwork()
        for i in range(9):
            net.add_edge(i, i + 1, 1.0)
        cover = k_path_cover(net, 5)
        assert verify_cover(net, cover, 5)
        assert len(cover) < 10  # pruning must remove something

    def test_budget_exhaustion_is_conservative(self, small_grid):
        cover = k_path_cover(small_grid, 4, search_budget=1)
        # budget 1 keeps every vertex: still trivially a valid cover
        assert cover == set(small_grid.nodes())

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 300), k=st.integers(2, 4))
    def test_cover_property_random_grids(self, seed, k):
        net = grid_city(3, 4, seed=seed, removal_fraction=0.15, arterial_every=None)
        cover = k_path_cover(net, k)
        assert verify_cover(net, cover, k)


class TestKShortestPathCover:
    def test_k1_is_all_vertices(self, line_network):
        assert k_shortest_path_cover(line_network, 1) == set(line_network.nodes())

    def test_subset_of_all_path_cover_requirement(self, small_grid):
        """A k-path cover is always a valid k-SPC; the k-SPC may be smaller."""
        k = 3
        spc = k_shortest_path_cover(small_grid, k)
        apc = k_path_cover(small_grid, k)
        assert len(spc) <= len(apc)

    def test_no_uncovered_shortest_path_on_line(self, line_network):
        # on a line every path is shortest, so k-SPC == k-path cover
        for k in (2, 3, 4):
            spc = k_shortest_path_cover(line_network, k)
            assert verify_cover(line_network, spc, k)

    def test_covers_shortest_paths_on_grid(self, small_grid):
        """Exhaustively enumerate shortest k-paths; none may avoid the cover."""
        k = 3
        cover = k_shortest_path_cover(small_grid, k)
        oracle = DistanceOracle(small_grid)
        cost_fn = oracle.fast_cost_fn()
        uncovered = [n for n in small_grid.nodes() if n not in cover]

        def dfs(path, length):
            if len(path) == k:
                # a shortest k-path avoiding the cover: must not exist
                assert abs(cost_fn(path[0], path[-1]) - length) > 1e-9, (
                    f"uncovered shortest path {path}"
                )
                return
            for w, edge in small_grid.neighbors(path[-1]).items():
                if w in cover or w in path:
                    continue
                new_len = length + edge
                if abs(cost_fn(path[0], w) - new_len) <= 1e-9:
                    dfs(path + [w], new_len)

        for start in uncovered:
            dfs([start], 0.0)

    @pytest.mark.parametrize("cover_fn", [k_path_cover, k_shortest_path_cover])
    def test_cover_keeps_a_vertex_when_no_path_has_k_vertices(
        self, line_network, cover_fn
    ):
        # 5 nodes: pruning removes all of them, so the last one removed stays
        cover = cover_fn(line_network, 8)
        assert len(cover) == 1
        assert verify_cover(line_network, cover, 8)

    def test_larger_k_smaller_cover(self, small_grid):
        sizes = [len(k_shortest_path_cover(small_grid, k)) for k in (2, 4, 6)]
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_explicit_cost_oracle_accepted(self, small_grid):
        oracle = DistanceOracle(small_grid)
        cover = k_shortest_path_cover(small_grid, 3, oracle=oracle)
        assert verify_cover(small_grid, cover, 3) or len(cover) > 0

    def test_invalid_k(self, line_network):
        with pytest.raises(ValueError):
            k_shortest_path_cover(line_network, 0)
