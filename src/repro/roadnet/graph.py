"""Weighted road network graph.

A :class:`RoadNetwork` is a directed graph ``G = <V, E>`` where every edge
``(u, v)`` carries a travel cost ``cost(u, v)`` (Section 2 of the paper).
Travel cost and travel time are used interchangeably, exactly as in the
paper.  Nodes are integers and may carry ``(x, y)`` coordinates; coordinates
are only used by the synthetic generators and the geo-social mapping, never
by the solvers themselves.

The class is intentionally a thin adjacency-dict structure: the hot path of
every solver is Dijkstra over ``adjacency``, so we avoid any per-edge object
overhead.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class RoadNetwork:
    """A directed, weighted road network.

    Parameters
    ----------
    undirected:
        When true (the default, matching the paper's road networks where
        travel is possible both ways), :meth:`add_edge` writes both
        directions with the same cost, so the two never differ.
    """

    def __init__(self, undirected: bool = True) -> None:
        self.undirected = undirected
        # node -> {neighbor -> cost}
        self.adjacency: Dict[int, Dict[int, float]] = {}
        # reverse adjacency, maintained for bidirectional search
        self.reverse_adjacency: Dict[int, Dict[int, float]] = {}
        self.coordinates: Dict[int, Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: int, x: Optional[float] = None, y: Optional[float] = None) -> None:
        """Add a node, optionally with coordinates.  Idempotent."""
        if node not in self.adjacency:
            self.adjacency[node] = {}
            self.reverse_adjacency[node] = {}
        if x is not None and y is not None:
            self.coordinates[node] = (float(x), float(y))

    def add_edge(self, u: int, v: int, cost: float) -> None:
        """Add edge ``u -> v`` with the given travel cost.

        On an undirected network ``v -> u`` is set to the same cost every
        time, replacing any cost either direction held before.

        Raises
        ------
        ValueError
            If the cost is negative, or if ``u == v`` (self loops carry no
            travel and break the transfer-event structure).
        """
        if cost < 0:
            raise ValueError(f"edge cost must be non-negative, got {cost!r}")
        if u == v:
            raise ValueError(f"self-loop edges are not allowed (node {u})")
        self.add_node(u)
        self.add_node(v)
        self.adjacency[u][v] = float(cost)
        self.reverse_adjacency[v][u] = float(cost)
        if self.undirected:
            self.adjacency[v][u] = float(cost)
            self.reverse_adjacency[u][v] = float(cost)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the directed edge ``u -> v`` (and nothing else)."""
        del self.adjacency[u][v]
        del self.reverse_adjacency[v][u]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: int) -> bool:
        return node in self.adjacency

    def __len__(self) -> int:
        return len(self.adjacency)

    @property
    def num_nodes(self) -> int:
        return len(self.adjacency)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return sum(len(nbrs) for nbrs in self.adjacency.values())

    def nodes(self) -> Iterator[int]:
        return iter(self.adjacency)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(u, v, cost)`` for every directed edge."""
        for u, nbrs in self.adjacency.items():
            for v, cost in nbrs.items():
                yield (u, v, cost)

    def neighbors(self, node: int) -> Dict[int, float]:
        """Out-neighbours of ``node`` with their edge costs."""
        return self.adjacency[node]

    def in_neighbors(self, node: int) -> Dict[int, float]:
        """In-neighbours of ``node`` with their edge costs."""
        return self.reverse_adjacency[node]

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def edge_cost(self, u: int, v: int) -> float:
        """Cost of the directed edge ``u -> v``.

        Raises ``KeyError`` if the edge does not exist.
        """
        return self.adjacency[u][v]

    def has_edge(self, u: int, v: int) -> bool:
        return u in self.adjacency and v in self.adjacency[u]

    def position(self, node: int) -> Tuple[float, float]:
        """Coordinates of ``node`` (raises ``KeyError`` when absent)."""
        return self.coordinates[node]

    def euclidean(self, u: int, v: int) -> float:
        """Euclidean distance between two nodes' coordinates."""
        ux, uy = self.coordinates[u]
        vx, vy = self.coordinates[v]
        return ((ux - vx) ** 2 + (uy - vy) ** 2) ** 0.5

    # ------------------------------------------------------------------
    # derived
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[int]) -> "RoadNetwork":
        """Induced subgraph on the given nodes (directed edges kept)."""
        keep = set(nodes)
        sub = RoadNetwork(undirected=False)
        for node in keep:
            sub.add_node(node)
            if node in self.coordinates:
                sub.coordinates[node] = self.coordinates[node]
        for u in keep:
            for v, cost in self.adjacency.get(u, {}).items():
                if v in keep:
                    sub.add_edge(u, v, cost)
        sub.undirected = self.undirected
        return sub

    def connected_component(self, start: int) -> List[int]:
        """Nodes reachable from ``start`` following out-edges (BFS order)."""
        seen = {start}
        order = [start]
        frontier = [start]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in self.adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        order.append(v)
                        nxt.append(v)
            frontier = nxt
        return order

    def largest_component(self) -> "RoadNetwork":
        """Induced subgraph on the largest (out-)reachable component."""
        remaining = set(self.adjacency)
        best: List[int] = []
        while remaining:
            node = next(iter(remaining))
            comp = self.connected_component(node)
            remaining.difference_update(comp)
            if len(comp) > len(best):
                best = comp
        return self.subgraph(best)

    def copy(self) -> "RoadNetwork":
        clone = RoadNetwork(undirected=self.undirected)
        clone.adjacency = {u: dict(nbrs) for u, nbrs in self.adjacency.items()}
        clone.reverse_adjacency = {
            u: dict(nbrs) for u, nbrs in self.reverse_adjacency.items()
        }
        clone.coordinates = dict(self.coordinates)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoadNetwork(nodes={self.num_nodes}, edges={self.num_edges})"
