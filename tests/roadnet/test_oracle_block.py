"""Property tests for the oracle's pinned-row block.

Pinned rows (and, at tier 0, the APSP table that serves as the block) must
read bit-identically to :func:`dijkstra` at every tier, through warm,
unpin and invalidate (after a network mutation).
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import dijkstra

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def networks(draw, directed=None):
    """Small random networks: sparse ids, islands, optional direction."""
    if directed is None:
        directed = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=10))
    stride = draw(st.sampled_from([1, 3, 7]))
    ids = [i * stride for i in range(n)]
    net = RoadNetwork(undirected=not directed)
    for node in ids:
        net.add_node(node)
    weights = st.floats(min_value=0.1, max_value=9.0, allow_nan=False)
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids), weights),
            max_size=3 * n,
        )
    )
    for u, v, w in edges:
        if u != v:
            net.add_edge(u, v, w)
    return net


def _assert_pinned_rows_exact(oracle: DistanceOracle) -> None:
    """Every pinned row reads exactly like a fresh Dijkstra."""
    nodes = sorted(oracle.network.nodes())
    block = oracle.pinned_block()
    for source in sorted(oracle._pinned_sources):
        expect = dijkstra(oracle.network, source)
        row = block[oracle.pinned_row(source)]
        for node in nodes:
            got = row[oracle.column(node)]
            want = expect.get(node, math.inf)
            assert got == want, (source, node, got, want)
        assert oracle.costs_from(source) == expect


def _mutate(net: RoadNetwork, factor: float) -> None:
    """Scale every edge out of the smallest node (both ways if undirected)."""
    u = min(net.nodes())
    for v in list(net.adjacency[u]):
        net.adjacency[u][v] *= factor
        if net.undirected:
            net.adjacency[v][u] *= factor


_OPS = st.lists(
    st.sampled_from(["warm", "unpin", "invalidate", "invalidate_lazy"]),
    min_size=1,
    max_size=6,
)


class TestPinnedBlock:
    @given(data=st.data())
    @_SETTINGS
    def test_block_matches_dijkstra_through_lifecycle(self, data):
        tier = data.draw(st.sampled_from([0, 1, 2]), label="tier")
        net = data.draw(networks(directed=False if tier == 1 else None))
        oracle = DistanceOracle(net, tier=tier)
        nodes = sorted(net.nodes())
        for op in data.draw(_OPS, label="ops"):
            if op == "warm":
                sources = data.draw(
                    st.lists(st.sampled_from(nodes), min_size=1, max_size=4)
                )
                oracle.warm(sources)
            elif op == "unpin":
                oracle.unpin()
                assert oracle.stats()["pinned_sources"] == 0
            else:
                _mutate(net, data.draw(st.sampled_from([0.5, 2.0])))
                oracle.invalidate(recompute_pinned=op == "invalidate")
                if op == "invalidate_lazy":
                    for source in sorted(oracle._pinned_sources):
                        oracle.costs_from(source)  # refills lazily
            _assert_pinned_rows_exact(oracle)
            # a point query whose canonical source is pinned reads its row
            for source in sorted(oracle._pinned_sources):
                row = dijkstra(net, source)
                for node in nodes:
                    if net.undirected and node < source:
                        continue  # canonicalised to the other endpoint
                    want = 0.0 if node == source else row.get(node, math.inf)
                    assert oracle.cost(source, node) == want

    @given(net=networks(directed=False))
    @_SETTINGS
    def test_pins_leave_no_dict_rows_behind(self, net):
        oracle = DistanceOracle(net, tier=2)
        nodes = sorted(net.nodes())
        oracle.costs_from(nodes[0])  # a dict row searched before the pin
        oracle.warm(nodes)
        for u in nodes:
            for v in nodes:
                oracle.cost(u, v)
        assert not oracle._source_cache
        assert not oracle._row_cache
        assert oracle.pinned_block().shape[1] == len(nodes)
