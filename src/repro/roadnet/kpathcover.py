"""Pruning-based k-path covers (Section 6.1).

The grouping-based scheduling (GBS) approach selects *key vertices* that form
the skeleton of the road network.  The paper uses the minimum
k-shortest-path-cover algorithm of Funke, Nusser & Storandt (PVLDB 2014),
whose *QuickPruning* scheme starts with the full vertex set and removes every
vertex whose removal leaves no uncovered path of ``k`` vertices.

:func:`k_shortest_path_cover` is that cover, the paper's k-SPC: ``V'`` must
hit every *shortest* path with ``k`` vertices.  It is what
:func:`~repro.roadnet.areas.build_areas` builds by default, so every area
cover in the system (GBS plans, the candidate index, the shard plan) is a
k-SPC.  :func:`k_path_cover` runs the same pruning on the more conservative
all-paths formulation (``V'`` hits every *simple* path with ``k`` vertices;
every such cover is also a k-SPC) and is kept as a cross-check for tests.

Correctness argument for pruning: take any simple k-vertex path ``P`` that
avoids the final cover, and let ``v`` be the last vertex of ``P`` removed.
At ``v``'s removal time every other vertex of ``P`` was already uncovered,
so the removal check would have found ``P`` and kept ``v`` — contradiction.
Hence the returned set is always a valid cover.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Set

from repro.roadnet.graph import RoadNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.roadnet.oracle import DistanceOracle

#: Safety valve for the per-vertex path search.  When the DFS would expand
#: more than this many states the vertex is conservatively kept in the
#: cover; the result remains a valid cover.
DEFAULT_SEARCH_BUDGET = 20000


def k_path_cover(
    network: RoadNetwork,
    k: int,
    order: Optional[Iterable[int]] = None,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> Set[int]:
    """Compute a k-path cover of ``network`` by pruning.

    Parameters
    ----------
    network:
        The (pseudo-node-preprocessed) road network.
    k:
        Path length in *vertices*; every simple path with ``k`` vertices
        must contain a cover vertex.  ``k >= 2``; ``k == 1`` would force the
        cover to be all of ``V``.
    order:
        Vertex order in which removal is attempted.  Defaults to ascending
        degree so that hub vertices tend to stay in the cover (they make
        better area centres).
    search_budget:
        Abort threshold for the per-vertex DFS (see module docstring).

    Returns
    -------
    set of int
        The cover vertices (the GBS key vertices / area centres).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return set(network.nodes())

    return _prune(
        network,
        order,
        lambda v, cover: _has_k_path_through(network, v, k, cover, search_budget),
    )


def k_shortest_path_cover(
    network: RoadNetwork,
    k: int,
    oracle: Optional["DistanceOracle"] = None,
    order: Optional[Iterable[int]] = None,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> Set[int]:
    """Compute a k-*shortest*-path cover (the paper's k-SPC) by pruning.

    ``V'`` must hit every **shortest** path with ``k`` vertices — a much
    weaker requirement than the all-paths cover, yielding far fewer key
    vertices (hence fewer, larger GBS areas).  The pruning scheme is the
    same as :func:`k_path_cover`; the per-vertex check only enumerates
    paths that are shortest between their endpoints, which the shortest-
    path sub-structure property prunes drastically: a prefix is only
    extended while it remains a shortest path itself.

    Every pair a check compares is joined by a path of at most ``k - 1``
    edges, so the distances come from
    :meth:`~repro.roadnet.oracle.DistanceOracle.hop_local_cost_fn`: table
    reads at tier 0, one batched hop-local pass otherwise — never a point
    query per pair.

    Parameters
    ----------
    oracle:
        The :class:`~repro.roadnet.oracle.DistanceOracle` over ``network``
        that answers the shortest-ness checks.  Defaults to a new one.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return set(network.nodes())
    if oracle is None:
        from repro.roadnet.oracle import DistanceOracle

        oracle = DistanceOracle(network)
    cost = oracle.hop_local_cost_fn(k - 1)
    return _prune(
        network,
        order,
        lambda v, cover: _has_shortest_k_path_through(
            network, v, k, cover, cost, search_budget
        ),
    )


def _prune(
    network: RoadNetwork,
    order: Optional[Iterable[int]],
    needed: Callable[[int, Set[int]], bool],
) -> Set[int]:
    """QuickPruning: drop each vertex in ``order`` (ascending degree by
    default) unless ``needed(v, cover)`` finds an uncovered path through it.

    When no path is long enough every vertex goes.  The empty set is then
    a valid cover, but an area partition needs a centre, so the last
    vertex removed is kept: adding a vertex to a cover keeps it one.
    """
    cover: Set[int] = set(network.nodes())
    if order is None:
        order = sorted(network.nodes(), key=lambda n: (network.degree(n), n))
    last = None
    for v in order:
        if v not in cover:
            continue
        cover.discard(v)
        if needed(v, cover):
            cover.add(v)
        else:
            last = v
    if not cover and last is not None:
        cover.add(last)
    return cover


def _has_shortest_k_path_through(
    network: RoadNetwork,
    v: int,
    k: int,
    cover: Set[int],
    cost: Callable[[int, int], float],
    budget: int,
) -> bool:
    """Does an uncovered *shortest* path with ``k`` vertices pass through
    ``v``?

    Enumerates shortest prefixes ending at ``v`` (via in-edges, each prefix
    itself a shortest path) and, for each, shortest suffix extensions from
    ``v`` keeping the *whole* path shortest between its endpoints.
    """
    state = _Budget(budget)
    eps = 1e-9

    def extend_suffix(start: int, start_len: float, tail: int, tail_len: float,
                      needed: int, used: Set[int]) -> bool:
        # invariant: path start ~..~ v ~..~ tail has cost start_len+tail_len
        # and is a shortest start->tail path
        state.spend()
        if needed == 0:
            return True
        for w, edge in network.neighbors(tail).items():
            if w in used or w in cover:
                continue
            total = start_len + tail_len + edge
            if abs(cost(start, w) - total) > eps:
                continue  # extension is no longer a shortest path
            used.add(w)
            ok = extend_suffix(start, start_len, w, tail_len + edge, needed - 1, used)
            used.discard(w)
            if ok:
                return True
        return False

    def extend_prefix(head: int, head_len: float, needed: int, used: Set[int]) -> bool:
        # invariant: path head ~..~ v has cost head_len and is shortest
        state.spend()
        # try to complete with a suffix of the remaining vertices
        if extend_suffix(head, head_len, v, 0.0, needed, used):
            return True
        if needed == 0:
            return False
        for u, edge in network.in_neighbors(head).items():
            if u in used or u in cover:
                continue
            total = head_len + edge
            if abs(cost(u, v) - total) > eps:
                continue  # prefix would not be a shortest path
            used.add(u)
            ok = extend_prefix(u, total, needed - 1, used)
            used.discard(u)
            if ok:
                return True
        return False

    try:
        return extend_prefix(v, 0.0, k - 1, {v})
    except _BudgetExceeded:
        return True  # conservative: keep v in the cover


def verify_cover(network: RoadNetwork, cover: Set[int], k: int) -> bool:
    """True iff no simple path of ``k`` vertices avoids ``cover``.

    Exhaustive check intended for tests on small networks.
    """
    uncovered = [n for n in network.nodes() if n not in cover]
    for start in uncovered:
        if _longest_uncovered_path(network, start, cover, k) >= k:
            return False
    return True


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _has_k_path_through(
    network: RoadNetwork, v: int, k: int, cover: Set[int], budget: int
) -> bool:
    """Does an uncovered simple path with ``k`` vertices pass through ``v``?

    Enumerates splits ``a + 1 + b = k``: a simple path of ``a`` vertices
    ending at ``v`` (following in-edges) extended by ``b`` vertices from
    ``v`` (following out-edges), all vertices outside ``cover``.
    """
    state = _Budget(budget)
    try:
        # prefix lengths a = 0 .. k-1 ; suffix must then have b = k-1-a
        return _extend_backward(network, v, k - 1, [v], {v}, cover, state)
    except _BudgetExceeded:
        return True  # conservative: keep v in the cover


class _BudgetExceeded(Exception):
    pass


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, remaining: int) -> None:
        self.remaining = remaining

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            raise _BudgetExceeded


def _extend_backward(
    network: RoadNetwork,
    head: int,
    needed: int,
    path: List[int],
    used: Set[int],
    cover: Set[int],
    state: _Budget,
) -> bool:
    """Grow the path backwards from ``head``; at each stage also try to
    complete it forwards from the original centre vertex ``path[0]``."""
    state.spend()
    if needed == 0:
        return True
    # try to complete forwards (from the centre vertex) with the remaining
    # vertex budget
    if _extend_forward(network, path[0], needed, used, cover, state):
        return True
    for u in network.in_neighbors(head):
        if u in used or u in cover:
            continue
        used.add(u)
        path.append(u)  # path order irrelevant; only membership matters
        ok = _extend_backward(network, u, needed - 1, path, used, cover, state)
        path.pop()
        used.discard(u)
        if ok:
            return True
    return False


def _extend_forward(
    network: RoadNetwork,
    tail: int,
    needed: int,
    used: Set[int],
    cover: Set[int],
    state: _Budget,
) -> bool:
    state.spend()
    if needed == 0:
        return True
    for w in network.neighbors(tail):
        if w in used or w in cover:
            continue
        used.add(w)
        ok = _extend_forward(network, w, needed - 1, used, cover, state)
        used.discard(w)
        if ok:
            return True
    return False


def _longest_uncovered_path(
    network: RoadNetwork, start: int, cover: Set[int], cap: int
) -> int:
    """Length (in vertices) of the longest uncovered simple path from
    ``start``, capped at ``cap`` for tractability."""
    best = 0

    def dfs(node: int, used: Set[int]) -> None:
        nonlocal best
        best = max(best, len(used))
        if best >= cap:
            return
        for w in network.neighbors(node):
            if w in used or w in cover:
                continue
            used.add(w)
            dfs(w, used)
            used.discard(w)

    dfs(start, {start})
    return best
