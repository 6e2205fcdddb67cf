"""Unit tests for repro.roadnet.oracle."""

import math

import numpy as np
import pytest

from repro.roadnet import oracle as oracle_module
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import dijkstra


class _Unreadable(dict):
    """A node-to-column dict whose entries must not be read."""

    def __getitem__(self, key):
        raise AssertionError(f"dict lookup of node {key}")


def _searches(oracle):
    return (
        oracle.dijkstra_count + oracle.bidirectional_count + oracle.ch_query_count
    )


def _served_hot(oracle, source, probe=24):
    """``source`` is answered (point query and row) without any search."""
    before = _searches(oracle)
    oracle.cost(source, probe)
    row = oracle.costs_from(source)
    assert row == dijkstra(oracle.network, source)
    return _searches(oracle) == before


class TestCost:
    def test_same_node_zero(self, line_network):
        oracle = DistanceOracle(line_network)
        assert oracle.cost(2, 2) == 0.0

    def test_matches_dijkstra(self, small_grid):
        oracle = DistanceOracle(small_grid)
        nodes = sorted(small_grid.nodes())
        expected = dijkstra(small_grid, nodes[0])
        for node in nodes[:10]:
            assert oracle.cost(nodes[0], node) == pytest.approx(expected[node])

    def test_unreachable_is_inf(self):
        net = RoadNetwork()
        net.add_edge(0, 1, 1.0)
        net.add_node(9)
        oracle = DistanceOracle(net, apsp_threshold=0)
        assert math.isinf(oracle.cost(0, 9))

    def test_callable_interface(self, line_network):
        oracle = DistanceOracle(line_network)
        assert oracle(0, 3) == pytest.approx(3.0)


class TestApspMode:
    def test_apsp_built_for_small_networks(self, line_network):
        oracle = DistanceOracle(line_network, apsp_threshold=10)
        oracle.cost(0, 4)
        assert oracle._apsp is not None

    def test_apsp_disabled_when_threshold_zero(self, line_network):
        oracle = DistanceOracle(line_network, apsp_threshold=0)
        oracle.cost(0, 4)
        assert oracle._apsp is None

    def test_apsp_unreachable_inf(self):
        net = RoadNetwork()
        net.add_edge(0, 1, 1.0)
        net.add_node(9)
        oracle = DistanceOracle(net, apsp_threshold=100)
        assert math.isinf(oracle.cost(0, 9))

    def test_fast_cost_fn_matches_cost(self, small_grid):
        oracle = DistanceOracle(small_grid)
        fast = oracle.fast_cost_fn()
        nodes = sorted(small_grid.nodes())
        for u in nodes[:5]:
            for v in nodes[-5:]:
                assert fast(u, v) == pytest.approx(oracle.cost(u, v))

    def test_fast_cost_fn_same_node(self, small_grid):
        fast = DistanceOracle(small_grid).fast_cost_fn()
        assert fast(3, 3) == 0.0

    def test_fast_cost_fn_falls_back_above_threshold(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        fast = oracle.fast_cost_fn()
        assert fast == oracle.cost


class TestLruMode:
    def test_costs_from_cached(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        first = oracle.costs_from(0)
        before = oracle.dijkstra_count
        second = oracle.costs_from(0)
        assert first is second
        assert oracle.dijkstra_count == before

    def test_lru_eviction(self, small_grid):
        oracle = DistanceOracle(small_grid, cache_sources=2, apsp_threshold=0)
        nodes = sorted(small_grid.nodes())
        oracle.costs_from(nodes[0])
        oracle.costs_from(nodes[1])
        oracle.costs_from(nodes[2])  # evicts nodes[0]
        assert len(oracle._source_cache) == 2
        assert nodes[0] not in oracle._source_cache

    def test_warm_pins_sources(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        oracle.warm([0, 1])
        assert oracle.stats()["pinned_sources"] == 2
        assert _served_hot(oracle, 0)
        assert _served_hot(oracle, 1)

    def test_invalidate_clears_caches(self, small_grid):
        oracle = DistanceOracle(small_grid)
        oracle.cost(0, 1)
        oracle.invalidate()
        assert oracle._apsp is None
        assert not oracle._source_cache

    def test_invalidate_reflects_network_change(self):
        net = RoadNetwork()
        net.add_edge(0, 1, 10.0)
        oracle = DistanceOracle(net)
        assert oracle.cost(0, 1) == pytest.approx(10.0)
        net.adjacency[0][1] = 2.0
        net.adjacency[1][0] = 2.0
        oracle.invalidate()
        assert oracle.cost(0, 1) == pytest.approx(2.0)


class TestPairCache:
    """One-off bidirectional results must be cached and counted."""

    def test_repeat_query_hits_cache(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0, cache_sources=0)
        first = oracle.cost(0, 24)
        assert oracle.bidirectional_count == 1
        second = oracle.cost(0, 24)
        assert second == first
        assert oracle.bidirectional_count == 1  # served from the pair LRU
        assert oracle.pair_cache_hits == 1

    def test_undirected_pair_key_canonicalized(self, small_grid):
        """Regression: (u, v) and (v, u) used to occupy two cache slots on
        undirected networks, halving effective capacity and doubling
        bidirectional searches."""
        oracle = DistanceOracle(small_grid, apsp_threshold=0, cache_sources=0)
        d = oracle.cost(0, 24)
        assert oracle.bidirectional_count == 1
        assert oracle.cost(24, 0) == d  # symmetric hit, bit-identical
        assert oracle.bidirectional_count == 1
        assert oracle.pair_cache_hits == 1
        assert len(oracle._pair_cache) == 1

    def test_directed_pair_key_not_canonicalized(self):
        net = RoadNetwork(undirected=False)
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 0, 5.0)
        oracle = DistanceOracle(net, apsp_threshold=0, cache_sources=0)
        assert oracle.cost(0, 1) == pytest.approx(1.0)
        assert oracle.cost(1, 0) == pytest.approx(5.0)
        assert oracle.bidirectional_count == 2

    def test_bounded_eviction(self, small_grid, monkeypatch):
        monkeypatch.setattr(oracle_module, "CACHE_PAIRS", 2)
        oracle = DistanceOracle(small_grid, apsp_threshold=0, cache_sources=0)
        oracle.cost(0, 5)
        oracle.cost(0, 6)
        oracle.cost(0, 7)  # evicts (0, 5)
        assert len(oracle._pair_cache) == 2
        oracle.cost(0, 5)
        assert oracle.bidirectional_count == 4  # re-searched after eviction

    def test_source_cache_preferred_over_pair_cache(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        oracle.warm([0])
        before = oracle.bidirectional_count
        oracle.cost(0, 13)
        assert oracle.bidirectional_count == before  # row already cached
        assert oracle.source_cache_hits >= 1


class TestStats:
    def test_query_counting(self, small_grid):
        oracle = DistanceOracle(small_grid)
        oracle.cost(0, 1)
        oracle.cost(1, 2)
        stats = oracle.stats()
        assert stats["query_count"] == 2
        assert stats["mode"] == "apsp"
        assert stats["nodes"] == len(small_grid)

    def test_stats_keys_stable(self, line_network):
        oracle = DistanceOracle(line_network, apsp_threshold=0)
        oracle.cost(0, 4)
        assert set(oracle.stats()) == {
            "mode",
            "nodes",
            "query_count",
            "dijkstra_count",
            "batch_rows",
            "batch_fallbacks",
            "bidirectional_count",
            "pair_cache_hits",
            "pair_cache_size",
            "pairs_kept",
            "landmark_rows",
            "source_cache_hits",
            "source_cache_size",
            "row_cache_size",
            "pinned_sources",
            "fast_path",
            "epoch",
            "ch_query_count",
            "tier",
            "effective_tier",
        }
        assert oracle.mode == "lru"

    def test_stats_match_perf_snapshot_fields(self, small_grid):
        from repro.perf import PerfReport

        oracle = DistanceOracle(small_grid)
        oracle.cost(0, 1)
        stats = PerfReport.capture(oracle).oracle  # raises if keys drift
        assert stats.mode == "apsp"
        assert stats.fast_path is False

    def test_fast_path_flag_reported(self, small_grid):
        from repro.perf import PerfReport

        oracle = DistanceOracle(small_grid)
        assert oracle.stats()["fast_path"] is False
        fast = oracle.fast_cost_fn()
        fast(0, 24)  # bypasses query_count by design...
        assert oracle.stats()["query_count"] == 0
        assert oracle.stats()["fast_path"] is True  # ...and says so
        assert PerfReport.capture(oracle).oracle.fast_path is True
        oracle.invalidate()
        assert oracle.stats()["fast_path"] is False

    def test_fast_path_flag_not_set_by_fallback(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        fast = oracle.fast_cost_fn()  # falls back to cost(): still counted
        fast(0, 24)
        assert oracle.stats()["fast_path"] is False
        assert oracle.stats()["query_count"] == 1


class TestRowCache:
    """APSP row views are bounded with the same LRU discipline as sources."""

    def test_row_views_cached(self, small_grid):
        oracle = DistanceOracle(small_grid)
        first = oracle.costs_from(0)
        second = oracle.costs_from(0)
        assert first is second

    def test_row_cache_bounded(self, small_grid, monkeypatch):
        monkeypatch.setattr(oracle_module, "CACHE_ROWS", 2)
        oracle = DistanceOracle(small_grid)
        nodes = sorted(small_grid.nodes())
        for node in nodes[:5]:
            oracle.costs_from(node)
        assert oracle.mode == "apsp"
        assert len(oracle._row_cache) == 2
        assert oracle.stats()["row_cache_size"] == 2
        # LRU, not FIFO: the two most recent rows survive
        assert set(oracle._row_cache) == set(nodes[3:5])

    def test_row_cache_recency_updated_on_hit(self, small_grid, monkeypatch):
        monkeypatch.setattr(oracle_module, "CACHE_ROWS", 2)
        oracle = DistanceOracle(small_grid)
        oracle.costs_from(0)
        oracle.costs_from(1)
        oracle.costs_from(0)  # touch 0: now 1 is the eviction candidate
        oracle.costs_from(2)
        assert set(oracle._row_cache) == {0, 2}

    def test_invalidate_clears_row_cache(self, small_grid):
        oracle = DistanceOracle(small_grid)
        oracle.costs_from(0)
        oracle.invalidate()
        assert not oracle._row_cache


class TestWarmPinning:
    """warm() pins sources: later queries can never evict them."""

    def test_warmed_source_survives_cache_pressure(self, small_grid):
        oracle = DistanceOracle(small_grid, cache_sources=2, apsp_threshold=0)
        oracle.warm([0])
        nodes = sorted(small_grid.nodes())
        for node in nodes[1:8]:  # way past the 2-entry budget
            oracle.costs_from(node)
        assert _served_hot(oracle, 0)  # no re-search after the pressure

    def test_unpinned_sources_still_evicted(self, small_grid):
        oracle = DistanceOracle(small_grid, cache_sources=2, apsp_threshold=0)
        oracle.warm([0])
        oracle.costs_from(1)
        oracle.costs_from(2)
        oracle.costs_from(3)
        assert _served_hot(oracle, 0)
        assert len(oracle._source_cache) == 2  # the LRU keeps its budget
        before = oracle.dijkstra_count
        oracle.costs_from(1)  # the oldest unpinned row was evicted
        assert oracle.dijkstra_count == before + 1

    def test_pins_apply_to_apsp_rows(self, small_grid, monkeypatch):
        monkeypatch.setattr(oracle_module, "CACHE_ROWS", 2)
        oracle = DistanceOracle(small_grid)
        oracle.warm([0])
        for node in range(1, 8):
            oracle.costs_from(node)
        assert oracle.stats()["pinned_sources"] == 1
        # the pinned row is the table row itself
        assert oracle.pinned_block()[oracle.pinned_row(0)].tolist() == [
            dijkstra(small_grid, 0).get(node, math.inf)
            for node in sorted(small_grid.nodes())
        ]
        assert _served_hot(oracle, 0)

    def test_pins_survive_invalidate(self, small_grid):
        oracle = DistanceOracle(small_grid, cache_sources=2, apsp_threshold=0)
        oracle.warm([0])
        before = oracle.dijkstra_count
        oracle.invalidate()
        # pinned rows are recomputed eagerly (stale values dropped, fresh
        # ones already hot) and the pin itself survives cache pressure
        assert oracle.dijkstra_count == before + 1
        assert _served_hot(oracle, 0)
        for node in range(1, 8):
            oracle.costs_from(node)
        assert _served_hot(oracle, 0)

    def test_invalidate_recomputes_pinned_rows_eagerly(self):
        """Regression: invalidate() used to drop pinned rows without
        recomputing them, so a holder of a warm()-pinned row (or a
        ``fast_cost_fn`` closure) silently kept pre-mutation costs.
        After a network change + invalidate(), the pinned source must be
        hot again *and* reflect the new costs."""
        net = RoadNetwork()
        net.add_edge(0, 1, 10.0)
        net.add_edge(1, 2, 10.0)
        oracle = DistanceOracle(net, apsp_threshold=0)
        oracle.warm([0])
        assert oracle.cost(0, 2) == pytest.approx(20.0)
        net.adjacency[0][1] = 1.0
        net.adjacency[1][0] = 1.0
        before = oracle.dijkstra_count
        oracle.invalidate()
        # eagerly recomputed: re-searched inside invalidate(), so the
        # next query needs no new dijkstra
        assert oracle.dijkstra_count == before + 1
        before = oracle.dijkstra_count
        assert oracle.cost(0, 2) == pytest.approx(11.0)
        assert oracle.dijkstra_count == before

    def test_invalidate_can_skip_pinned_recompute(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        oracle.warm([0])
        before = oracle.dijkstra_count
        oracle.invalidate(recompute_pinned=False)
        assert oracle.dijkstra_count == before  # no eager work
        oracle.costs_from(0)  # lazily rebuilt on next query
        assert oracle.dijkstra_count == before + 1
        assert oracle.stats()["pinned_sources"] == 1  # still pinned
        for node in range(1, 8):
            oracle.costs_from(node)
        assert _served_hot(oracle, 0)

    def test_invalidate_bumps_epoch(self, small_grid):
        oracle = DistanceOracle(small_grid)
        assert oracle.epoch == 0
        assert oracle.stats()["epoch"] == 0
        oracle.invalidate()
        oracle.invalidate()
        assert oracle.epoch == 2
        assert oracle.stats()["epoch"] == 2
        from repro.perf import PerfReport

        assert PerfReport.capture(oracle).oracle.epoch == 2

    def test_unpin_restores_lru_behaviour(self, small_grid):
        oracle = DistanceOracle(small_grid, cache_sources=2, apsp_threshold=0)
        oracle.warm([0])
        oracle.unpin()
        oracle.costs_from(1)
        oracle.costs_from(2)
        oracle.costs_from(3)
        assert 0 not in oracle._source_cache

    def test_all_pinned_overflow_allowed(self, small_grid):
        oracle = DistanceOracle(small_grid, cache_sources=1, apsp_threshold=0)
        oracle.warm([0, 1, 2])
        assert oracle.stats()["pinned_sources"] == 3
        for source in (0, 1, 2):  # pins beat the budget
            assert _served_hot(oracle, source)


class TestInterning:
    """The flat APSP table works for contiguous and arbitrary node ids."""

    def test_contiguous_ids_skip_index(self, line_network):
        oracle = DistanceOracle(line_network)
        oracle.cost(0, 4)
        assert oracle._index is None  # ids are already 0..n-1

    def test_non_contiguous_ids_interned(self):
        net = RoadNetwork()
        net.add_edge(5, 50, 1.0)
        net.add_edge(50, 500, 2.0)
        oracle = DistanceOracle(net)
        assert oracle.cost(5, 500) == pytest.approx(3.0)
        assert oracle._index == {5: 0, 50: 1, 500: 2}
        fast = oracle.fast_cost_fn()
        assert fast(500, 5) == pytest.approx(3.0)
        assert fast(50, 50) == 0.0

    def test_columns_of_an_id_array_use_the_sorted_ids(self):
        net = RoadNetwork()
        net.add_edge(5, 50, 1.0)
        net.add_edge(50, 500, 2.0)
        oracle = DistanceOracle(net)
        assert oracle.columns([500, 5]).tolist() == [2, 0]
        # an id array never reads the dict: it is one searchsorted
        oracle._index = _Unreadable(oracle._index)
        got = oracle.columns(np.array([500, 5, 50, 50], dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [2, 0, 1, 1]
        assert oracle.columns(np.array([], dtype=np.int64)).tolist() == []

    @pytest.mark.parametrize("unknown", [4, 6, 499, 501])
    def test_columns_of_an_id_array_reject_unknown_ids(self, unknown):
        net = RoadNetwork()
        net.add_edge(5, 50, 1.0)
        net.add_edge(50, 500, 2.0)
        oracle = DistanceOracle(net)
        with pytest.raises(KeyError):
            oracle.columns(np.array([50, unknown, 5], dtype=np.int64))
        with pytest.raises(KeyError):
            oracle.columns([50, unknown])

    def test_costs_from_non_contiguous(self):
        net = RoadNetwork()
        net.add_edge(7, 70, 1.5)
        net.add_edge(70, 700, 1.5)
        oracle = DistanceOracle(net)
        row = oracle.costs_from(7)
        assert row == pytest.approx({7: 0.0, 70: 1.5, 700: 3.0})

    def test_reads_are_python_floats(self, small_grid):
        oracle = DistanceOracle(small_grid)
        value = oracle.cost(0, 24)
        assert type(value) is float  # memoryview read, not numpy scalar
        assert type(oracle.fast_cost_fn()(0, 24)) is float


class TestConsistency:
    def test_lru_and_apsp_agree(self):
        net = grid_city(4, 4, seed=11, removal_fraction=0.1, arterial_every=None)
        apsp = DistanceOracle(net, apsp_threshold=1000)
        lru = DistanceOracle(net, apsp_threshold=0)
        nodes = sorted(net.nodes())
        for u in nodes[:4]:
            for v in nodes[-4:]:
                assert apsp.cost(u, v) == pytest.approx(lru.cost(u, v))
