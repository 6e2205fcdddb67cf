"""Road network substrate.

The URR solvers consume the road network exclusively through shortest-path
travel costs.  This subpackage provides:

- :class:`~repro.roadnet.graph.RoadNetwork` — weighted directed graph with
  coordinates, the substrate every other module builds on;
- :mod:`~repro.roadnet.shortest_path` — Dijkstra variants (single source,
  point-to-point with early exit, bidirectional, multi-source);
- :class:`~repro.roadnet.oracle.DistanceOracle` — cached distance queries;
- :mod:`~repro.roadnet.preprocess` — pseudo-node edge splitting (Eq. 10);
- :mod:`~repro.roadnet.kpathcover` — pruning-based k-path cover (Section 6.1);
- :mod:`~repro.roadnet.areas` — area construction (Algorithm 4);
- :mod:`~repro.roadnet.generators` — synthetic city networks used in place of
  the DIMACS USA road networks;
- :mod:`~repro.roadnet.io` — DIMACS ``.gr``/``.co`` readers and writers.
"""

from repro.roadnet.areas import Area, AreaIndex, build_areas
from repro.roadnet.contraction import ContractionHierarchy
from repro.roadnet.generators import chicago_like, grid_city, nyc_like, ring_radial_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.kpathcover import k_path_cover, k_shortest_path_cover
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.preprocess import split_long_edges
from repro.roadnet.shortest_path import (
    bidirectional_dijkstra,
    dijkstra,
    dijkstra_to_target,
    multi_source_dijkstra,
    shortest_path,
)

__all__ = [
    "Area",
    "AreaIndex",
    "ContractionHierarchy",
    "DistanceOracle",
    "RoadNetwork",
    "bidirectional_dijkstra",
    "build_areas",
    "chicago_like",
    "dijkstra",
    "dijkstra_to_target",
    "grid_city",
    "k_path_cover",
    "k_shortest_path_cover",
    "multi_source_dijkstra",
    "nyc_like",
    "ring_radial_city",
    "shortest_path",
    "split_long_edges",
]
