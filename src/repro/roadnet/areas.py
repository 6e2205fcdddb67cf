"""Area construction for grouping-based scheduling (Algorithm 4).

Key vertices (from the k-path cover) become area centres; every other vertex
is attached to its closest key vertex.  The resulting :class:`AreaIndex`
answers the two queries GBS needs:

- ``area_of(node)`` — which area a trip source falls in (used to group
  short trips, Algorithm 5 lines 2–6);
- ``center_distance(area, node)`` — the shortest cost from the area's key
  vertex to a vehicle location (used by the fast valid-vehicle filter of
  Section 6.2).

The ``radius`` of the index (max distance from any vertex to its centre) is
bounded by ``d_max * k`` after the Eq. 10 preprocessing, which is exactly the
bound the short-trip classification relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.kpathcover import k_path_cover, k_shortest_path_cover
from repro.roadnet.shortest_path import multi_source_dijkstra as nearest_center_labelling


@dataclass
class Area:
    """One constructed area: a key vertex and its attached vertices."""

    center: int
    members: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.members.add(self.center)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node: int) -> bool:
        return node in self.members


class AreaIndex:
    """Mapping from vertices to areas plus centre-distance lookups."""

    def __init__(self, network: RoadNetwork, areas: List[Area], owner: Dict[int, int],
                 center_dist: Dict[int, float]) -> None:
        self.network = network
        self.areas = areas
        self._area_by_center = {a.center: a for a in areas}
        self._owner = owner
        self._center_dist = center_dist

    # ------------------------------------------------------------------
    @property
    def num_areas(self) -> int:
        return len(self.areas)

    @property
    def centers(self) -> List[int]:
        return [a.center for a in self.areas]

    def area_of(self, node: int) -> Area:
        """The area containing ``node``."""
        return self._area_by_center[self._owner[node]]

    def center_of(self, node: int) -> int:
        """The key vertex whose area contains ``node``."""
        return self._owner[node]

    def distance_to_center(self, node: int) -> float:
        """Shortest cost from ``node``'s area centre to ``node``."""
        return self._center_dist[node]

    @property
    def radius(self) -> float:
        """Max distance from any vertex to its area centre."""
        return max(self._center_dist.values()) if self._center_dist else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AreaIndex(areas={self.num_areas}, radius={self.radius:.2f})"


def build_areas(
    network: RoadNetwork,
    k: int,
    cover: Optional[Iterable[int]] = None,
    search_budget: Optional[int] = None,
    mode: str = "shortest",
    cost: Optional[Callable[[int, int], float]] = None,
) -> AreaIndex:
    """Algorithm 4 (AreaConstruction).

    Parameters
    ----------
    network:
        The (preprocessed) road network.
    k:
        Path-cover parameter; larger ``k`` means fewer, larger areas.
    cover:
        Precomputed key vertices.  When omitted the cover is computed here.
    search_budget:
        Forwarded to the cover algorithm.
    mode:
        ``"shortest"`` (default — the paper's k-SPC) covers only shortest
        paths and gives far fewer key vertices; ``"all"`` covers every
        simple path (denser cover, no distance oracle needed).
    cost:
        ``cost(u, v)`` oracle for the ``"shortest"`` cover's shortest-ness
        checks.  Pass the caller's own oracle (``oracle.fast_cost_fn()``)
        so the cover does not build a second one.
    """
    if cover is None:
        kwargs = {} if search_budget is None else {"search_budget": search_budget}
        if mode == "shortest":
            cover_set = k_shortest_path_cover(network, k, cost=cost, **kwargs)
        elif mode == "all":
            cover_set = k_path_cover(network, k, **kwargs)
        else:
            raise ValueError(f"unknown cover mode {mode!r}; expected 'shortest' or 'all'")
    else:
        cover_set = set(cover)
        missing = [c for c in cover_set if c not in network]
        if missing:
            raise ValueError(f"cover vertices not in network: {missing[:5]}")
    if not cover_set:
        raise ValueError("cover must contain at least one key vertex")

    dist, owner = nearest_center_labelling(network, cover_set)
    areas: Dict[int, Area] = {c: Area(center=c) for c in sorted(cover_set)}
    for node in network.nodes():
        center = owner.get(node)
        if center is None:
            # unreachable from every centre: make it its own singleton area
            areas[node] = Area(center=node)
            owner[node] = node
            dist[node] = 0.0
        else:
            areas[center].members.add(node)
    return AreaIndex(network, list(areas.values()), owner, dist)
