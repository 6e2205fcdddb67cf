"""Micro-benchmark: point-to-point distance query strategies.

Compares the three exact distance backends on the NYC-like network —
plain bidirectional Dijkstra, the APSP-table oracle, and Contraction
Hierarchies.  The solvers only see a ``cost(u, v)`` callable,
so any of these can back an instance; this bench documents the trade
space (preprocessing vs per-query latency) for users bringing real
DIMACS-scale networks.
"""

import numpy as np
import pytest

from repro.roadnet.contraction import ContractionHierarchy
from repro.roadnet.generators import nyc_like
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import bidirectional_dijkstra


@pytest.fixture(scope="module")
def net():
    return nyc_like(seed=0, scale=0.35)


@pytest.fixture(scope="module")
def query_pairs(net):
    rng = np.random.default_rng(1)
    nodes = sorted(net.nodes())
    return [
        (int(rng.choice(nodes)), int(rng.choice(nodes))) for _ in range(50)
    ]


@pytest.fixture(scope="module")
def truth(net, query_pairs):
    oracle = DistanceOracle(net)
    fast = oracle.fast_cost_fn()
    return [fast(u, v) for u, v in query_pairs]


def _run_all(cost_fn, query_pairs):
    return [cost_fn(u, v) for u, v in query_pairs]


def test_bidirectional_dijkstra_queries(benchmark, net, query_pairs, truth):
    results = benchmark(
        _run_all, lambda u, v: bidirectional_dijkstra(net, u, v), query_pairs
    )
    assert results == pytest.approx(truth)


def test_apsp_oracle_queries(benchmark, net, query_pairs, truth):
    fast = DistanceOracle(net).fast_cost_fn()
    results = benchmark(_run_all, fast, query_pairs)
    assert results == pytest.approx(truth)


def test_contraction_hierarchy_queries(benchmark, net, query_pairs, truth):
    ch = ContractionHierarchy(net)
    results = benchmark(_run_all, ch.cost, query_pairs)
    assert results == pytest.approx(truth)
