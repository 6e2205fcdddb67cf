"""The batched many-source pass: exact rows, hop-local rows, the cover.

Every row the pass accepts must equal :func:`dijkstra` bit for bit, at
every tier, through :meth:`DistanceOracle.invalidate` and across chunk
boundaries; the verifier must reject a row that is off by one ulp or that
holds a lowered zero-weight cycle, and the oracle must then re-solve it.
The area cover built on hop-local rows must equal the cover built on
point queries, and dispatcher set-up must make no point query and no
pinning Dijkstra.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dispatch import Dispatcher
from repro.core.vehicles import Vehicle
from repro.obs import start_trace, stop_trace
from repro.roadnet import batched
from repro.roadnet.areas import build_areas
from repro.roadnet.generators import grid_city, nyc_like
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.kpathcover import k_shortest_path_cover
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import dijkstra

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: zero weights, weights a sum absorbs, and ordinary ones side by side
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1e-12, 1e3]),
    st.floats(min_value=0.1, max_value=9.0, allow_nan=False),
)


@st.composite
def networks(draw, directed=None, max_nodes=14):
    """Random networks: sparse ids, islands, optional direction, awkward weights."""
    if directed is None:
        directed = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    stride = draw(st.sampled_from([1, 3, 7]))
    ids = [i * stride for i in range(n)]
    net = RoadNetwork(undirected=not directed)
    for node in ids:
        net.add_node(node)
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids), _WEIGHTS),
            max_size=3 * n,
        )
    )
    for u, v, w in edges:
        # one weight per node pair, so undirected edges stay symmetric
        if u != v and v not in net.adjacency[u] and u not in net.adjacency[v]:
            net.add_edge(u, v, w)
    return net


def _assert_rows_exact(oracle: DistanceOracle) -> None:
    nodes = sorted(oracle.network.nodes())
    block = oracle.pinned_block()
    for source in sorted(oracle._pinned_sources):
        expect = dijkstra(oracle.network, source)
        row = block[oracle.pinned_row(source)]
        for node in nodes:
            got = row[oracle.column(node)]
            assert got == expect.get(node, math.inf), (source, node)


def _perturb_and_close(net: RoadNetwork) -> None:
    """Scale the edges out of the smallest node, then close its first edge."""
    u = min(net.nodes())
    for v in list(net.adjacency[u]):
        net.adjacency[u][v] *= 1.7
        net.reverse_adjacency[v][u] = net.adjacency[u][v]
        if net.undirected and u in net.adjacency[v]:
            net.adjacency[v][u] *= 1.7
            net.reverse_adjacency[u][v] = net.adjacency[v][u]
    for v in list(net.adjacency[u])[:1]:
        net.remove_edge(u, v)
        if net.undirected and u in net.adjacency[v]:
            net.remove_edge(v, u)


def _has_hierarchy(oracle: DistanceOracle) -> bool:
    return oracle.network.undirected and oracle.tier in (0, 1)


def _window_cells(window: int, rows_per_chunk: int) -> int:
    """``WINDOW_CELLS`` for windows of ``window`` positions: exactly one
    position for 1, at least ``window`` otherwise (a short last chunk
    takes wider windows)."""
    return 1 if window == 1 else window * rows_per_chunk


class TestBatchedRows:
    @given(data=st.data())
    @_SETTINGS
    def test_rows_match_dijkstra_at_every_tier(self, data):
        self._check_rows(data)

    @pytest.mark.slow
    @given(data=st.data())
    @settings(_SETTINGS, max_examples=1000)
    def test_rows_match_dijkstra_at_every_window_size(self, data):
        self._check_rows(data)

    def _check_rows(self, data):
        tier = data.draw(st.sampled_from([0, 1, 2]), label="tier")
        net = data.draw(networks(directed=False if tier == 1 else None))
        n = len(net)
        rows_per_chunk = data.draw(st.integers(1, 3), label="rows_per_chunk")
        # one position (the per-node re-accumulation), multi-pass windows,
        # and one window spanning the whole chunk
        window = data.draw(st.sampled_from([1, 2, n + 1]), label="window")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batched, "BATCH_CELLS", rows_per_chunk * n)
            mp.setattr(batched, "MIN_CHUNK_ROWS", 1)
            mp.setattr(batched, "WINDOW_CELLS", _window_cells(window, rows_per_chunk))
            oracle = DistanceOracle(net, tier=tier)
            nodes = sorted(net.nodes())
            sources = data.draw(
                st.lists(st.sampled_from(nodes), min_size=1, unique=True),
                label="sources",
            )
            oracle.warm(sources)
            _assert_rows_exact(oracle)
            if tier == 0:
                # the table is the block: every node is a source
                for node in nodes:
                    oracle._pinned_sources.add(node)
                _assert_rows_exact(oracle)
            self._assert_accounting(oracle)
            _perturb_and_close(net)
            oracle.invalidate()
            _assert_rows_exact(oracle)
            self._assert_accounting(oracle)

    @staticmethod
    def _assert_accounting(oracle: DistanceOracle) -> None:
        stats = oracle.stats()
        if _has_hierarchy(oracle):
            # with a hierarchy every Dijkstra is a verifier fallback
            assert stats["dijkstra_count"] == stats["batch_fallbacks"]
            assert stats["batch_rows"] >= stats["batch_fallbacks"]
        else:
            assert stats["batch_rows"] == 0

    def test_grid_city_pass_needs_no_fallback(self):
        net = grid_city(14, 14, seed=2)
        oracle = DistanceOracle(net, tier=1)
        oracle.warm(sorted(net.nodes())[::3])
        _assert_rows_exact(oracle)
        stats = oracle.stats()
        assert stats["batch_rows"] == len(oracle._pinned_sources)
        assert stats["batch_fallbacks"] == 0 and stats["dijkstra_count"] == 0

    def test_dense_core_table_needs_no_fallback(self):
        net = nyc_like(seed=3)
        oracle = DistanceOracle(net, tier=0)
        nodes = sorted(net.nodes())
        oracle.cost(nodes[0], nodes[-1])  # the first query builds the table
        stats = oracle.stats()
        assert stats["batch_rows"] == len(nodes)
        assert stats["batch_fallbacks"] == 0 and stats["dijkstra_count"] == 0
        # the table is the block: spot-check every 97th row
        oracle._pinned_sources.update(nodes[::97])
        _assert_rows_exact(oracle)

    @pytest.mark.parametrize("window", [1, 7, 32, 200])
    def test_path_windows_are_one_dependency_chain(self, monkeypatch, window):
        # from one end of a path each window's cells depend on each other in
        # turn: one pass settles one more cell, and one more pass confirms
        net = RoadNetwork()
        for i in range(99):
            net.add_edge(i, i + 1, 1.0 + (i % 7) * 0.37)
        oracle = DistanceOracle(net, tier=1)
        monkeypatch.setattr(batched, "WINDOW_CELLS", window)
        source = np.array([oracle.column(0)])
        dist, passes = batched.exact_rows(
            oracle._ensure_ch().phast(source), source, oracle._arc_arrays()
        )
        expect = dijkstra(net, 0)
        assert [dist[oracle.column(v), 0] for v in range(100)] == [
            expect[v] for v in range(100)
        ]
        widths = [min(window, 99 - lo) for lo in range(0, 99, window)]
        assert passes == sum(width + 1 for width in widths)
        assert batched.verify_rows(dist, source, oracle._arc_arrays()).all()

    def test_fill_rows_span_reports_window_passes(self, tmp_path):
        net = grid_city(20, 20, seed=3)
        oracle = DistanceOracle(net, tier=1)
        oracle._ensure_ch()
        sources = sorted(net.nodes())[::13]
        assert len(sources) <= batched.chunk_rows(len(net))  # one chunk
        path = tmp_path / "trace.jsonl"
        start_trace(str(path))
        try:
            oracle.warm(sources)
        finally:
            stop_trace()
        (span,) = [
            event for event in map(json.loads, path.read_text().splitlines())
            if event.get("name") == "oracle.fill_rows"
        ]
        assert span["attrs"]["fallbacks"] == 0
        # a position per step would take len(net) - 1 steps
        assert 0 < span["attrs"]["passes"] < len(net) / 4


class TestVerifier:
    @staticmethod
    def _rows(net: RoadNetwork, sources):
        """Dijkstra's rows of ``sources`` as a nodes x sources array."""
        oracle = DistanceOracle(net, tier=2)
        arcs = oracle._arc_arrays()
        dist = np.empty((oracle._n, len(sources)))
        for j, source in enumerate(sources):
            oracle._dijkstra_row(source, dist[:, j])
        return arcs, oracle.columns(sources), dist

    def test_dijkstra_rows_pass(self):
        net = grid_city(8, 8, seed=1)
        sources = sorted(net.nodes())[:5]
        arcs, columns, dist = self._rows(net, sources)
        assert batched.verify_rows(dist, columns, arcs).all()

    @pytest.mark.parametrize("direction", [-math.inf, math.inf])
    def test_one_ulp_nudge_is_rejected(self, direction):
        net = grid_city(8, 8, seed=1)
        sources = sorted(net.nodes())[:5]
        arcs, columns, dist = self._rows(net, sources)
        node = (columns[2] + 9) % len(dist)
        dist[node, 2] = np.nextafter(dist[node, 2], direction)
        assert batched.verify_rows(dist, columns, arcs).tolist() == [
            True, True, False, True, True,
        ]

    @staticmethod
    def _zero_cycle() -> RoadNetwork:
        net = RoadNetwork()
        net.add_edge(0, 1, 5.0)
        net.add_edge(1, 2, 0.0)
        net.add_edge(2, 0, 5.0)
        net.add_edge(2, 3, 1.0)
        return net

    def test_lowered_zero_weight_cycle_is_rejected(self):
        arcs, columns, dist = self._rows(self._zero_cycle(), [0])
        assert dist[1, 0] == dist[2, 0] == 5.0
        dist[1, 0] = dist[2, 0] = 3.0
        dist[3, 0] = 4.0
        # the lowered row is still a fixed point of the in-arc equations ...
        for v in (1, 2, 3):
            best = min(
                dist[u, 0] + w for u, w in zip(arcs.in_nbr[:, v], arcs.in_w[:, v])
            )
            assert dist[v, 0] == best
        # ... only the strict-witness condition exposes it
        assert not batched.verify_rows(dist, columns, arcs)[0]

    @pytest.mark.parametrize("tamper", ["ulp", "zero_cycle"])
    def test_rejected_rows_are_resolved_and_counted(self, monkeypatch, tamper):
        net = self._zero_cycle() if tamper == "zero_cycle" else grid_city(8, 8, seed=4)
        oracle = DistanceOracle(net, tier=1)
        exact_rows = batched.exact_rows

        def tampered(estimate, sources, arcs):
            dist, passes = exact_rows(estimate, sources, arcs)
            if tamper == "ulp":
                dist[5, 0] = np.nextafter(dist[5, 0], math.inf)
            else:
                dist[1, 0] = dist[2, 0] = 3.0
                dist[3, 0] = 4.0
            return dist, passes

        monkeypatch.setattr(batched, "exact_rows", tampered)
        oracle.warm(sorted(net.nodes())[:2])
        _assert_rows_exact(oracle)
        stats = oracle.stats()
        # the zero-weight network fails the strict witness on every row
        expected = 2 if tamper == "zero_cycle" else 1
        assert stats["batch_fallbacks"] == expected
        assert stats["dijkstra_count"] == expected

    def test_local_verifier_rejects_a_truncated_region(self):
        # 0 -1- 1 -1- 2, plus a detour 0 -0.5- 3 -0.5- 2
        net = RoadNetwork()
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 2, 1.0)
        net.add_edge(0, 3, 0.5)
        net.add_edge(3, 2, 0.5)
        oracle = DistanceOracle(net, tier=2)
        arcs = oracle._arc_arrays()
        sources = np.array([0])
        dist = np.full(4, math.inf)
        dist[[0, 1, 2]] = [0.0, 1.0, 2.0]  # node 3 left out of the region
        region = targets = np.array([0, 1, 2])
        assert not batched.verify_local(dist, region, targets, sources, arcs)[0]
        dist[[2, 3]] = [1.0, 0.5]
        region = np.array([0, 1, 2, 3])
        assert batched.verify_local(dist, region, targets, sources, arcs)[0]


def _hop_pairs(net: RoadNetwork, hops: int):
    for u in net.nodes():
        seen = {u}
        frontier = [u]
        for _ in range(hops):
            frontier = [
                w for x in frontier for w in net.neighbors(x) if w not in seen
            ]
            seen.update(frontier)
        for v in seen:
            if v != u:
                yield u, v


class TestHopLocal:
    @given(data=st.data())
    @_SETTINGS
    def test_hop_local_costs_match_dijkstra(self, data):
        tier = data.draw(st.sampled_from([1, 2]), label="tier")
        net = data.draw(networks(directed=False if tier == 1 else None))
        hops = data.draw(st.integers(1, 4), label="hops")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                batched, "BATCH_CELLS", data.draw(st.integers(1, 3)) * len(net)
            )
            mp.setattr(batched, "MIN_CHUNK_ROWS", 1)
            oracle = DistanceOracle(net, tier=tier)
            cost = oracle.hop_local_cost_fn(hops)
        rows = {}
        for u, v in _hop_pairs(net, hops):
            source, target = (min(u, v), max(u, v)) if net.undirected else (u, v)
            if source not in rows:
                rows[source] = dijkstra(net, source)
            assert cost(u, v) == rows[source].get(target, math.inf), (u, v)
        stats = oracle.stats()
        assert stats["query_count"] == 0  # no pair fell back to cost()
        assert stats["batch_rows"] == len(net)
        assert stats["dijkstra_count"] == stats["batch_fallbacks"]


def _point_query_cover(net: RoadNetwork, k: int, tier: int):
    """The reference cover: every shortest-ness check is a point query."""
    oracle = DistanceOracle(net, tier=tier)
    oracle.hop_local_cost_fn = lambda hops: oracle.cost
    return k_shortest_path_cover(net, k, oracle=oracle)


class TestCover:
    @given(
        net=networks(directed=False, max_nodes=12),
        k=st.integers(2, 5),
        tier=st.sampled_from([1, 2]),
    )
    @_SETTINGS
    def test_batched_cover_equals_point_query_cover(self, net, k, tier):
        oracle = DistanceOracle(net, tier=tier)
        assert k_shortest_path_cover(net, k, oracle=oracle) == _point_query_cover(
            net, k, tier
        )
        assert oracle.stats()["ch_query_count"] == 0

    @pytest.mark.parametrize(
        "net",
        [grid_city(12, 12, seed=3), nyc_like(seed=1, scale=0.1)],
        ids=["grid_city", "nyc_like"],
    )
    @pytest.mark.parametrize("tier", [1, 2])
    def test_small_cities(self, net, tier):
        oracle = DistanceOracle(net, tier=tier)
        cover = k_shortest_path_cover(net, 6, oracle=oracle)
        assert cover == _point_query_cover(net, 6, tier)
        stats = oracle.stats()
        assert stats["ch_query_count"] == 0 and stats["batch_fallbacks"] == 0

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "city",
        [lambda: grid_city(64, 64, seed=7), lambda: nyc_like(seed=3)],
        ids=["rush_hour+ops_chaos", "dense_core"],
    )
    def test_benchmark_cities_keep_their_centres(self, city):
        net = city()
        centres = build_areas(net, k=8, oracle=DistanceOracle(net)).centers
        reference = _point_query_cover(net, 8, tier=1)
        assert set(centres) == reference


class TestDispatcherSetup:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"candidate_mode": "spatiotemporal"},
            {"candidate_mode": "full", "shard_workers": 1},
        ],
    )
    def test_tier1_setup_makes_no_point_query_and_no_dijkstra(self, kwargs):
        net = grid_city(16, 16, seed=5)
        oracle = DistanceOracle(net, tier=1)
        nodes = sorted(net.nodes())
        oracle.cost(nodes[0], nodes[-1])  # the first query builds the tier
        before = oracle.stats()
        fleet = [Vehicle(vehicle_id=0, location=nodes[0], capacity=2)]
        Dispatcher(net, fleet, oracle=oracle, **kwargs)
        after = oracle.stats()
        assert after["ch_query_count"] == before["ch_query_count"]
        assert after["bidirectional_count"] == before["bidirectional_count"]
        assert after["dijkstra_count"] == before["dijkstra_count"]
        assert after["batch_rows"] > before["batch_rows"]


class TestRepin:
    @staticmethod
    def _pinned():
        net = grid_city(12, 12, seed=6)
        oracle = DistanceOracle(net, tier=1)
        oracle.warm(build_areas(net, k=4, oracle=oracle).centers)
        return net, oracle

    def test_normal_epoch_repins_through_the_batched_pass(self):
        net, oracle = self._pinned()
        before = oracle.stats()
        _perturb_and_close(net)
        oracle.invalidate()
        after = oracle.stats()
        assert after["mode"] == "ch"
        _assert_rows_exact(oracle)
        assert after["dijkstra_count"] == before["dijkstra_count"]
        # the pinned rows and the kept landmarks' rows, no selection search
        assert after["batch_rows"] - before["batch_rows"] == (
            before["pinned_sources"] + len(oracle.landmarks())
        )
        assert after["landmark_rows"] == before["landmark_rows"]
