"""Exact distance rows for many sources at once.

:class:`~repro.roadnet.oracle.DistanceOracle` fills its pinned rows, its
tier-0 table and the area cover's hop-local distances here instead of
running one pure-Python :func:`~repro.roadnet.shortest_path.dijkstra` per
source.  Every row must still equal ``dijkstra()`` *bit for bit*, so each
pass has the same three parts:

1. **Candidate values.**  Full rows start from PHAST estimates
   (:meth:`~repro.roadnet.contraction.ContractionHierarchy.phast`); those
   are shortcut sums that round differently from Dijkstra's running sums,
   so :func:`exact_rows` re-accumulates them: taking each row's nodes in
   ascending estimate order, a window of consecutive positions at a time,
   it sets ``D[v] = min over in-arcs (D[u] + w)`` for the whole window
   and all rows in one vectorised pass, and repeats the pass until the
   window stops changing.  These are still only candidates.  Hop-local rows
   (:func:`local_rows`) come from a bounded label-correcting search that
   relaxes all sources' frontiers together.
2. **Verification.**  A row is accepted only if it is 0 at its source,
   satisfies ``D[v] == min over in-arcs (D[u] + w)`` in floats at every
   other node, and every finite non-source node has an in-arc that
   achieves its value from a *strictly* smaller ``D[u]``
   (:func:`verify_rows`, :func:`verify_local`).
3. **Fallback.**  The caller re-solves every rejected row with
   ``dijkstra()`` and counts it.

Why the checks suffice (docs/ALGORITHMS.md has the long form): let ``D``
be Dijkstra's floats and ``D'`` a row that passes.  Strict witnesses form
chains of decreasing values that can only end at the source, so every
``D'[v]`` is the left-to-right float sum of a real path, and float
addition is monotone, so ``D' >= D``.  Conversely, take the first node in
Dijkstra's settle order with ``D'[v] > D[v]``: its Dijkstra parent ``u``
settled earlier, so ``D'[u] == D[u]`` and the fixed-point equation gives
``D'[v] <= D[u] + w == D[v]``.  Hence ``D' == D``.  Zero-weight arcs (or
weights a sum absorbs) break the strict-witness condition; without it a
zero-weight cycle could hold any value below the truth and still be a
fixed point, so such rows go to the fallback.

A hop-local row only holds the cells its search reached (the *region*);
it is exact on its *targets* (the nodes within ``hops`` arcs) when, in
addition, every arc leaving the region yields at least ``M``, the largest
target value: the first node in settle order that is wrong would otherwise
have a Dijkstra path leaving the region below ``M``.

All work is chunked by the caller, :func:`chunk_rows` sources at a time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.shortest_path import INF

#: cells (rows x nodes) one chunk of a batched pass may hold: 1 MB per
#: float64 array, so a chunk's working set stays within a few MB beyond
#: the block it fills, whatever the source count
BATCH_CELLS = 1 << 17

#: rows a chunk holds at least: past BATCH_CELLS / MIN_CHUNK_ROWS nodes
#: (8,192) a chunk takes more cells rather than fewer rows
MIN_CHUNK_ROWS = 16

#: cells (positions x rows) one window of :func:`exact_rows` relaxes at
#: once: 48 positions of a 32-row chunk, 13 of a 117-row tier-0 chunk
WINDOW_CELLS = 1536


def chunk_rows(n: int) -> int:
    """Sources per chunk of a batched pass over ``n`` nodes."""
    return max(MIN_CHUNK_ROWS, BATCH_CELLS // max(n, 1))


class ArcArrays:
    """The network's arcs over node columns, padded per node.

    ``in_nbr[k, v]``/``in_w[k, v]`` is the ``k``-th in-arc of column ``v``
    (``out_*`` the out-arcs); missing slots point at ``v`` itself with an
    infinite weight, so they never win a minimum.
    """

    __slots__ = ("n", "in_nbr", "in_w", "out_nbr", "out_w")

    def __init__(
        self,
        network: RoadNetwork,
        nodes: Sequence[int],
        index: Optional[Dict[int, int]],
    ) -> None:
        self.n = len(nodes)
        # both directions come from ``adjacency``, the arcs dijkstra() reads
        tails: List[int] = []
        heads: List[int] = []
        costs: List[float] = []
        for u, node in enumerate(nodes):
            for v, cost in network.adjacency[node].items():
                tails.append(u)
                heads.append(v if index is None else index[v])
                costs.append(cost)
        tail = np.array(tails, dtype=np.int64)
        head = np.array(heads, dtype=np.int64)
        weight = np.array(costs, dtype=np.float64)
        self.in_nbr, self.in_w = _padded(head, tail, weight, self.n)
        self.out_nbr, self.out_w = _padded(tail, head, weight, self.n)


def _padded(
    owner: np.ndarray, other: np.ndarray, weight: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Arcs grouped by ``owner`` as ``(slots, n)`` arrays of the other end."""
    order = np.argsort(owner, kind="stable")
    owner, other, weight = owner[order], other[order], weight[order]
    counts = np.bincount(owner, minlength=n)
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    nbr = np.tile(np.arange(n, dtype=np.int64), (max(int(counts.max(initial=0)), 1), 1))
    padded = np.full(nbr.shape, INF)
    nbr[slot, owner] = other
    padded[slot, owner] = weight
    return nbr, padded


# ----------------------------------------------------------------------
# full rows
# ----------------------------------------------------------------------
def exact_rows(
    estimate: np.ndarray, sources: np.ndarray, arcs: ArcArrays
) -> Tuple[np.ndarray, int]:
    """Re-accumulate ``estimate`` (nodes x sources) in place.

    Each column's nodes are taken in ascending estimate order (its source
    first), a window of ``max(1, WINDOW_CELLS // len(sources))`` positions
    at a time.  One pass sets every cell of the window, in all columns at
    once, to ``min over in-arcs (D[u] + w)`` over the values written so
    far, the window's own included; passes repeat until the window stops
    changing, at most once more than it has positions.  With non-negative
    weights that is a Bellman-Ford run inside the window, so the cap never
    cuts one short; either way every value is a float path sum and only
    :func:`verify_rows` accepts a row.  Returns the rows and the number of
    passes.
    """
    n, count = estimate.shape
    columns = np.arange(count)
    estimate[sources, columns] = -1.0  # the source leads its order
    order = np.argsort(estimate, axis=0)  # order[i]: each column's i-th node
    dist = estimate
    dist.fill(INF)
    dist[sources, columns] = 0.0
    flat = dist.reshape(-1)
    width = max(1, WINDOW_CELLS // count)
    passes = 0
    for lo in range(1, n, width):
        block = order[lo:lo + width]
        # (slots, positions, columns); np.take is far cheaper than [:, block]
        heads = np.take(arcs.in_nbr, block, axis=1)
        heads *= count
        heads += columns
        weights = np.take(arcs.in_w, block, axis=1)
        cells = block * count + columns
        gathered = np.empty(heads.shape)
        old = np.full(block.shape, INF)
        new = np.empty(block.shape)
        for _ in range(len(block) + 1):
            # the indices are in range; "clip" skips the buffer "raise" needs
            np.take(flat, heads, out=gathered, mode="clip")
            gathered += weights
            np.minimum.reduce(gathered, axis=0, out=new)
            passes += 1
            if np.array_equal(new, old):
                break
            flat[cells] = new
            old, new = new, old
    return dist, passes


def verify_rows(dist: np.ndarray, sources: np.ndarray, arcs: ArcArrays) -> np.ndarray:
    """Which columns of ``dist`` (nodes x sources) provably equal
    ``dijkstra()`` of their source."""
    count = dist.shape[1]
    best = np.full(dist.shape, INF)
    witnessed = np.zeros(dist.shape, dtype=np.bool_)
    below = np.empty(dist.shape, dtype=np.bool_)
    candidate = np.empty(dist.shape)
    for nbr, weight in zip(arcs.in_nbr, arcs.in_w):
        np.take(dist, nbr, axis=0, out=candidate)
        np.less(candidate, dist, out=below)
        candidate += weight[:, None]
        np.minimum(best, candidate, out=best)
        below &= candidate == dist
        witnessed |= below
    ok = (dist == best) & (witnessed | (dist == INF))
    at_source = sources, np.arange(count)
    ok[at_source] = dist[at_source] == 0.0
    return ok.all(axis=0)


# ----------------------------------------------------------------------
# hop-local rows
# ----------------------------------------------------------------------
def local_rows(
    sources: np.ndarray, arcs: ArcArrays, hops: int, dist: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact distances from each source to every node within ``hops`` arcs.

    A label-correcting search relaxes the frontiers of all sources at once
    in the flat ``rows x nodes`` buffer ``dist`` (all ``inf`` on entry and
    again on return).  The first ``hops`` rounds reach exactly the
    targets; from then on a relaxation is kept only if it does not exceed
    its row's largest target value, which bounds the search to the ball
    holding every shorter path.  Returns the target cells (flat indices),
    their values and the per-row verdict of :func:`verify_local`.
    """
    n = arcs.n
    base = np.arange(len(sources)) * n
    frontier = base + sources
    dist[frontier] = 0.0
    reached: List[np.ndarray] = [frontier]
    targets: Optional[np.ndarray] = None
    bound: Optional[np.ndarray] = None
    rounds = 0
    while frontier.size:
        frontier = _relax(dist, frontier, arcs, bound)
        reached.append(frontier)
        rounds += 1
        if rounds == hops:
            targets = _unique(np.concatenate(reached))
            bound = _row_max(dist, targets, len(sources), n)
    region = _unique(np.concatenate(reached))
    if targets is None:
        targets = region
    values = dist[targets]
    ok = verify_local(dist, region, targets, sources, arcs)
    dist[region] = INF
    return targets, values, ok


def _relax(
    dist: np.ndarray,
    frontier: np.ndarray,
    arcs: ArcArrays,
    bound: Optional[np.ndarray],
) -> np.ndarray:
    """One round: relax every out-arc of the frontier; return the improved cells."""
    n = arcs.n
    nodes = frontier % n
    cells = (arcs.out_nbr[:, nodes] + (frontier - nodes)).ravel()
    values = (arcs.out_w[:, nodes] + dist[frontier]).ravel()
    keep = values < dist[cells]
    if bound is not None:
        keep &= values <= bound[cells // n]
    cells = cells[keep]
    np.minimum.at(dist, cells, values[keep])
    return _unique(cells)


def _unique(cells: np.ndarray) -> np.ndarray:
    """Sorted distinct cells (much faster than ``np.unique`` on int64)."""
    cells = np.sort(cells)
    if len(cells) < 2:
        return cells
    return cells[np.concatenate(([True], cells[1:] != cells[:-1]))]


def _row_max(dist: np.ndarray, cells: np.ndarray, count: int, n: int) -> np.ndarray:
    """The largest value of ``cells`` in each of ``count`` rows."""
    top = np.full(count, -INF)
    np.maximum.at(top, cells // n, dist[cells])
    return top


def verify_local(
    dist: np.ndarray,
    region: np.ndarray,
    targets: np.ndarray,
    sources: np.ndarray,
    arcs: ArcArrays,
) -> np.ndarray:
    """Per row: is the buffer exact on the row's targets?

    ``region`` holds every finite cell; all other cells are ``inf``.  On
    the region the checks of :func:`verify_rows` apply; on top, every arc
    leaving the region must yield at least the row's largest target value.
    """
    n = arcs.n
    count = len(sources)
    nodes = region % n
    tails = region - nodes
    values = dist[region]
    best = np.full(len(region), INF)
    witnessed = np.zeros(len(region), dtype=np.bool_)
    for nbr, weight in zip(arcs.in_nbr, arcs.in_w):
        heads = dist[nbr[nodes] + tails]
        candidate = heads + weight[nodes]
        np.minimum(best, candidate, out=best)
        witnessed |= (candidate == values) & (heads < values)
    at_source = nodes == sources[tails // n]
    ok = np.where(at_source, values == 0.0, (values == best) & witnessed)
    bad = [tails[~ok] // n]
    top = _row_max(dist, targets, count, n)
    for nbr, weight in zip(arcs.out_nbr, arcs.out_w):
        cells = nbr[nodes] + tails
        leaving = (dist[cells] == INF) & (values + weight[nodes] < top[tails // n])
        bad.append(tails[leaving] // n)
    verdict = np.ones(count, dtype=np.bool_)
    verdict[np.concatenate(bad)] = False
    return verdict
