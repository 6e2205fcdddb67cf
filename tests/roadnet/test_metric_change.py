"""Metric changes at tier 1: the kept record and landmarks.

After a travel-time change :meth:`DistanceOracle.invalidate` clears the
pair cache and rebuilds the hierarchy before it returns, keeping two
things: the record of the outgoing hierarchy (the next hierarchy over
the same nodes contracts in its order, evaluating no priority and
re-running only the witness searches the change can reach) and the
landmarks.  Both must be invisible in the answers: every hierarchy
answer and landmark row equals :func:`dijkstra` bit for bit, and every
rebuild equals the full build in the kept order.
"""

import json
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dispatch import Dispatcher
from repro.core.disruptions import TravelTimePerturbation
from repro.core.vehicles import Vehicle
from repro.obs import start_trace, stop_trace
from repro.roadnet.contraction import ContractionHierarchy
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import dijkstra
from tests.conftest import assert_landmark_rows_exact

#: dyadic weights: every path sum is exact in floats, so tied paths have
#: equal floats and any exact method must return dijkstra()'s value
_WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75, 2.5, 4.0, 6.25])
_LONGER = st.sampled_from([1.5, 2.0, 3.0])
_SHORTER = st.sampled_from([0.5, 0.25])


def _set_weight(net: RoadNetwork, u: int, v: int, cost: float) -> None:
    for a, b in ((u, v), (v, u)):
        net.adjacency[a][b] = cost
        net.reverse_adjacency[b][a] = cost


def _close(net: RoadNetwork, u: int, v: int) -> None:
    net.remove_edge(u, v)
    net.remove_edge(v, u)


def _truth(net: RoadNetwork, u: int, v: int) -> float:
    return dijkstra(net, u).get(v, math.inf)


def _edges(net: RoadNetwork):
    return sorted((u, v) for u, nbrs in net.adjacency.items() for v in nbrs if u < v)


def _apply(net: RoadNetwork, op: str, pick: int, factor: float, closed: list) -> None:
    """Apply one drawn change to ``net`` (a no-op when ``op`` has nothing
    to act on)."""
    edges = _edges(net)
    if op == "lengthen" and edges:
        u, v = edges[pick % len(edges)]
        _set_weight(net, u, v, net.adjacency[u][v] * max(factor, 1.5))
    elif op == "close" and edges:
        u, v = edges[pick % len(edges)]
        closed.append((u, v, net.adjacency[u][v]))
        _close(net, u, v)
    elif op == "shorten" and any(net.adjacency[u][v] > 0 for u, v in edges):
        positive = [(u, v) for u, v in edges if net.adjacency[u][v] > 0]
        u, v = positive[pick % len(positive)]
        _set_weight(net, u, v, net.adjacency[u][v] * min(factor, 0.5))
    elif op == "readd" and closed:
        u, v, w = closed.pop(pick % len(closed))
        net.add_edge(u, v, w)
    elif op == "add_node":
        nodes = sorted(net.nodes())
        net.add_edge(max(nodes) + 1, nodes[pick % len(nodes)], 1.0)


_RECORD_FIELDS = (
    "arc_at", "arc_head", "arc_cost", "settled_at", "settled",
    "shortcut_at", "shortcut_tail", "shortcut_head", "shortcut_cost",
)


def _assert_same_hierarchy(got: ContractionHierarchy, want: ContractionHierarchy):
    assert got.rank == want.rank
    assert got.num_shortcuts == want.num_shortcuts
    assert got._graph == want._graph
    assert got._middle == want._middle
    assert got.record.order == want.record.order
    for name in _RECORD_FIELDS:
        a, b = getattr(got.record, name), getattr(want.record, name)
        assert a.tobytes() == b.tobytes(), name


class _PriorityCalls:
    """Counts ContractionHierarchy._priority calls while active."""

    def __init__(self) -> None:
        self.calls = 0
        original = ContractionHierarchy._priority

        def counting(hierarchy, *args):
            self.calls += 1
            return original(hierarchy, *args)

        self._patch = mock.patch.object(ContractionHierarchy, "_priority", counting)

    def __enter__(self) -> "_PriorityCalls":
        self._patch.start()
        return self

    def __exit__(self, *exc) -> None:
        self._patch.stop()


@st.composite
def _networks(draw, max_nodes=10):
    """Undirected networks with sparse ids, islands and zero weights."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    stride = draw(st.sampled_from([1, 3, 7]))
    ids = [i * stride for i in range(n)]
    net = RoadNetwork()
    for node in ids:
        net.add_node(node)
    for u, v, w in draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids), _WEIGHTS),
        min_size=1, max_size=3 * n,
    )):
        if u != v and not net.has_edge(u, v):
            net.add_edge(u, v, w)
    return net


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["lengthen", "close", "shorten", "readd", "add_node"]),
        st.integers(min_value=0, max_value=10**6),
        st.one_of(_LONGER, _SHORTER),
    ),
    min_size=1,
    max_size=6,
)


class TestMetricChangeProperty:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(net=_networks(), ops=_OPS)
    def test_kept_pairs_and_kept_order_stay_exact(self, net, ops):
        oracle = DistanceOracle(net, tier=1)
        closed = []
        for op, pick, factor in ops:
            nodes = sorted(net.nodes())
            # every pair is asked, so the cache holds all of them
            for u in nodes:
                for v in nodes:
                    assert oracle.cost(u, v) == _truth(net, u, v)
            rank = dict(oracle._ch.rank)
            assert_landmark_rows_exact(oracle)  # and again after invalidate()
            _apply(net, op, pick, factor, closed)
            with _PriorityCalls() as priority:
                oracle.invalidate()
            assert not oracle._pair_cache
            assert_landmark_rows_exact(oracle)
            hierarchy = oracle._ch
            if op == "add_node":
                assert priority.calls > 0  # a fresh order
                assert set(hierarchy.rank) == set(net.nodes())
            else:
                assert priority.calls == 0
                assert hierarchy.rank == rank
            nodes = sorted(net.nodes())
            for u in nodes:
                for v in nodes:
                    assert hierarchy.cost(u, v) == _truth(net, u, v)


class TestPartialRebuildProperty:
    """Every rebuild after a change equals the full build in its order."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(net=_networks(), ops=_OPS)
    def test_rebuild_equals_the_full_kept_order_build(self, net, ops):
        oracle = DistanceOracle(net, tier=1)
        oracle._ensure_ch()
        closed = []
        for op, pick, factor in ops:
            _apply(net, op, pick, factor, closed)
            oracle.invalidate()
            hierarchy = oracle._ch
            _assert_same_hierarchy(
                hierarchy, ContractionHierarchy(net, order=hierarchy.order)
            )
            assert_landmark_rows_exact(oracle)


# ----------------------------------------------------------------------
@pytest.fixture
def city():
    # function-scoped: every test mutates its network
    return grid_city(10, 10, seed=3, removal_fraction=0.0, arterial_every=None)


def _far_pair_and_edge(net: RoadNetwork):
    """A pair in one corner and an edge in the other, so that the pair's
    shortest path avoids the edge by a wide margin."""
    nodes = sorted(net.nodes())
    u, v = nodes[0], nodes[12]
    a, b = nodes[-1], next(iter(net.adjacency[nodes[-1]]))
    from_u, from_v = dijkstra(net, u), dijkstra(net, v)
    w = net.adjacency[a][b]
    detour = min(from_u[a] + w + from_v[b], from_u[b] + w + from_v[a])
    assert detour > 1.5 * from_u[v]
    return (u, v), (a, b)


class TestKeptPairs:
    """What a metric change keeps: the order, and no cached pair, not
    even one whose shortest path avoids every changed arc."""

    def test_kept_order_rebuild_evaluates_no_priority(self, city):
        oracle = DistanceOracle(city, tier=1)
        nodes = sorted(city.nodes())
        oracle.cost(nodes[0], nodes[-1])
        rank = dict(oracle._ch.rank)
        a, b = _edges(city)[5]
        _set_weight(city, a, b, city.adjacency[a][b] * 2.0)
        with _PriorityCalls() as priority:
            oracle.invalidate()  # the rebuild runs in here
            assert oracle.cost(nodes[1], nodes[-2]) == _truth(city, nodes[1], nodes[-2])
        assert priority.calls == 0
        assert oracle._ch.rank == rank

    @pytest.mark.parametrize("change", ["lengthen", "close"])
    def test_lengthening_or_closing_clears_every_pair(self, city, change):
        oracle = DistanceOracle(city, tier=1)
        (u, v), (a, b) = _far_pair_and_edge(city)
        oracle.cost(u, v)
        if change == "close":
            _close(city, a, b)
        else:
            _set_weight(city, a, b, city.adjacency[a][b] * 2.0)
        oracle.invalidate()
        assert not oracle._pair_cache

    @pytest.mark.parametrize("change", ["shorten", "readd"])
    def test_shortening_or_readding_clears_every_pair(self, city, change):
        oracle = DistanceOracle(city, tier=1)
        (u, v), (a, b) = _far_pair_and_edge(city)
        w = city.adjacency[a][b]
        if change == "readd":
            _close(city, a, b)
            oracle.invalidate()
        oracle.cost(u, v)
        assert oracle._pair_cache
        if change == "readd":
            city.add_edge(a, b, w)
        else:
            _set_weight(city, a, b, w * 0.5)
        oracle.invalidate()
        assert not oracle._pair_cache

    def test_node_set_change_clears_every_pair(self, city):
        oracle = DistanceOracle(city, tier=1)
        (u, v), _ = _far_pair_and_edge(city)
        oracle.cost(u, v)
        city.add_node(10_000)
        oracle.invalidate()
        assert not oracle._pair_cache


class TestInvalidate:
    def test_returns_with_the_hierarchy_built(self, city):
        oracle = DistanceOracle(city, tier=1)
        nodes = sorted(city.nodes())
        oracle.cost(nodes[0], nodes[-1])
        _set_weight(city, *_edges(city)[5], 9.0)
        oracle.invalidate()  # nothing pinned
        hierarchy = oracle._ch
        assert hierarchy is not None
        assert oracle.stats()["nodes_recontracted"] > 0
        assert oracle.cost(nodes[1], nodes[-2]) == _truth(city, nodes[1], nodes[-2])
        assert oracle._ch is hierarchy

    def test_budgeted_dispatcher_keeps_the_hierarchy(self, city):
        oracle = DistanceOracle(city, tier=1)
        nodes = sorted(city.nodes())
        oracle.cost(nodes[0], nodes[-1])  # the first build outlasts 1 µs
        fleet = [Vehicle(vehicle_id=i, location=7 * i, capacity=2) for i in range(4)]
        d = Dispatcher(city, fleet, oracle=oracle, method="eg",
                       frame_length=20.0, frame_budget=1e-6)
        a, b = _edges(city)[5]
        (outcome,) = d.inject([TravelTimePerturbation(factors=((a, b, 2.0),))])
        assert outcome.applied
        assert oracle.cost(nodes[1], nodes[-2]) == _truth(city, nodes[1], nodes[-2])
        assert oracle.mode == "ch"
        assert oracle.stats()["bidirectional_count"] == 0


class TestPartialRebuild:
    @pytest.fixture
    def grid(self):
        return grid_city(12, 12, seed=4, removal_fraction=0.0, arterial_every=None)

    @pytest.mark.parametrize(
        "picks", [(40,), (17, 60, 101)], ids=["one-arc", "three-arcs"]
    )
    def test_lengthened_arcs_recontract_few_nodes(self, grid, picks):
        oracle = DistanceOracle(grid, tier=1)
        oracle._ensure_ch()
        edges = _edges(grid)
        for i in picks:
            a, b = edges[i]
            _set_weight(grid, a, b, grid.adjacency[a][b] * 2.0)
        before = oracle.stats()["nodes_recontracted"]
        oracle.invalidate()
        hierarchy = oracle._ensure_ch()
        recontracted = oracle.stats()["nodes_recontracted"] - before
        assert 0 < recontracted < len(grid)
        assert hierarchy.recontracted == recontracted
        reference = ContractionHierarchy(grid, order=hierarchy.order)
        _assert_same_hierarchy(hierarchy, reference)

    def test_unchanged_network_recontracts_nothing(self, grid):
        oracle = DistanceOracle(grid, tier=1)
        first = oracle._ensure_ch()
        oracle.invalidate()
        again = oracle._ensure_ch()
        assert oracle.stats()["nodes_recontracted"] == 0
        _assert_same_hierarchy(again, first)

    def test_build_span_reports_the_recontracted_nodes(self, grid, tmp_path):
        oracle = DistanceOracle(grid, tier=1)
        oracle._ensure_ch()
        _close(grid, *_edges(grid)[7])
        path = tmp_path / "trace.jsonl"
        start_trace(str(path))
        try:
            oracle.invalidate()
            oracle._ensure_ch()
        finally:
            stop_trace()
        (span,) = [
            event for event in map(json.loads, path.read_text().splitlines())
            if event.get("name") == "oracle.build_ch"
        ]
        assert span["attrs"]["kept_order"] is True
        assert span["attrs"]["recontracted"] == oracle.stats()["nodes_recontracted"] > 0


class TestChangedArcs:
    """The record reports every arc whose weight moved since its build,
    including original arcs a shorter shortcut replaced in the graph."""

    @staticmethod
    def _triangle(direct):
        net = RoadNetwork()
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 2, 1.0)
        if direct is not None:
            net.add_edge(0, 2, direct)
        # node 1 first: the shortcut 0-2 (cost 2) replaces a longer direct arc
        return net, ContractionHierarchy(net, order=[1, 0, 2])

    def test_unchanged_network_has_no_changed_arc(self):
        net, ch = self._triangle(5.0)
        assert ch.record.changed_arcs(net) == []

    @pytest.mark.parametrize("new", [7.0, 0.5])
    def test_reweighted_displaced_arc(self, new):
        net, ch = self._triangle(5.0)
        _set_weight(net, 0, 2, new)
        assert sorted(ch.record.changed_arcs(net)) == [
            (0, 2, 5.0, new), (2, 0, 5.0, new),
        ]

    def test_removed_and_added_arcs(self):
        net, ch = self._triangle(None)
        net.add_edge(0, 2, 3.0)  # where the hierarchy holds only a shortcut
        _close(net, 0, 1)
        assert sorted(ch.record.changed_arcs(net)) == [
            (0, 1, 1.0, math.inf), (0, 2, math.inf, 3.0),
            (1, 0, 1.0, math.inf), (2, 0, math.inf, 3.0),
        ]
