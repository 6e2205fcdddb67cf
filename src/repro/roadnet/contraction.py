"""Contraction Hierarchies (CH) for fast exact distance queries.

The bench networks are small enough for an all-pairs table, but the paper's
real networks (264k nodes) are not — production deployments of this library
on DIMACS-scale graphs need a sublinear point-to-point method.  Contraction
Hierarchies are the standard answer:

- **preprocessing**: contract nodes in importance order; when removing node
  ``v``, add shortcut edges between its neighbours wherever ``v`` lay on
  their only shortest path (checked by a local *witness search*);
- **query**: bidirectional Dijkstra that only relaxes edges toward
  *more important* nodes; the searches meet at the highest-ranked node of
  the shortest path.  The two upward searches are interleaved and pruned
  against the best meeting so far, and — when landmark distance rows are
  supplied (:meth:`DistanceOracle.landmarks`) — made
  goal-directed: the landmark triangle bound seeds the pruning radius
  with an upper bound before the first pop and discards settled nodes
  that provably cannot lie on a better path (CH + ALT).  Both prunings
  are exactness-preserving; on city grids they cut the searched upward
  cone by roughly 4x.

Node importance uses the classic lazy heuristic: edge difference (shortcuts
added minus edges removed) plus contracted-neighbour count, re-evaluated
lazily on pop.  A caller that already has a good order (an earlier
hierarchy's :attr:`ContractionHierarchy.order` over the same nodes, say
after a travel-time change) passes it in and skips the heuristic: the
witness searches run on the current weights and no priority is evaluated.
Any order yields an exact hierarchy; the order only sets its size.

Every shortcut remembers the node it bypasses, so queries can *unpack* the
winning up-down path into original edges and accumulate the distance in
path order (source to target).  That makes the returned float bit-identical
to plain Dijkstra's left-to-right accumulation over the same path — which
is what lets the tiered :class:`~repro.roadnet.oracle.DistanceOracle` swap
CH in for the all-pairs table without perturbing any solver decision
(floating-point addition is not associative, so summing the same edges in a
different order can differ in the last ulp).

The hierarchy also serves many sources at once: :meth:`ContractionHierarchy.phast`
is PHAST (Delling, Goldberg, Nowatzyk and Werneck, IPDPS 2011) — an upward
sweep and a downward sweep over the vertices grouped into rank levels,
each level one NumPy column operation for every source together.  Its
values are shortcut sums, so they are estimates of the Dijkstra floats,
not copies of them; :mod:`repro.roadnet.batched` turns them into exact
rows.

The implementation is exact (verified against Dijkstra by the test suite)
and self-contained — no external solver, as everything else in this
reproduction.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.shortest_path import INF

#: base settled-node budget of each witness search; smaller is faster to
#: preprocess but inserts more (harmless) shortcuts.  Contraction-time
#: searches scale it with their target count (see
#: :meth:`ContractionHierarchy._simulate_contraction`) so the dense top of
#: the hierarchy still finds witnesses
WITNESS_HOP_LIMIT = 60

#: landmarks consulted per query: of the supplied landmarks, only
#: the few with the widest ``|d(L, s) - d(L, t)|`` gap are worth the
#: per-settle bound evaluation (the classic ALT subset heuristic)
_ACTIVE_LANDMARKS = 2


class ContractionHierarchy:
    """Preprocessed CH over an undirected road network.

    Parameters
    ----------
    network:
        The input network (undirected; directed support would need split
        upward/downward graphs, which the reproduction does not require).
    landmarks:
        Optional landmarks × nodes float64 array of exact distances from
        each landmark over the *same* network, columns in ascending
        node-id order, ``inf`` where unreachable
        (:meth:`DistanceOracle.landmarks`).  When given, queries read its
        triangle bounds for goal-directed pruning.  The caller owns
        keeping it fresh — stale rows (network mutated after the rebuild)
        would make the "lower" bounds inadmissible and the pruning wrong,
        so rebuild the hierarchy and the rows together
        (``DistanceOracle.invalidate`` drops both).
    order:
        Optional contraction order, lowest rank first: every node of the
        network exactly once (typically an earlier hierarchy's
        :attr:`order`).  Given one, the build contracts in that order and
        evaluates no priorities.
    column:
        Optional node id -> column map over the ascending node ids, the
        columns ``landmarks`` and :meth:`phast` use
        (``DistanceOracle`` passes its own); built here when the ids are
        not ``0..n-1`` and none is given.
    """

    def __init__(
        self,
        network: RoadNetwork,
        landmarks: Optional[np.ndarray] = None,
        order: Optional[Sequence[int]] = None,
        column: Optional[Mapping[int, int]] = None,
    ) -> None:
        if not network.undirected:
            raise ValueError("ContractionHierarchy requires an undirected network")
        if len(network) == 0:
            raise ValueError("cannot build a hierarchy over an empty network")
        if order is not None and (
            len(order) != len(network) or set(order) != set(network.adjacency)
        ):
            raise ValueError("order must list every node of the network once")
        if landmarks is not None and (
            landmarks.ndim != 2 or landmarks.shape[1] != len(network)
        ):
            raise ValueError("landmarks must hold one column per node")
        self.network = network
        #: contraction rank per node (higher = more important)
        self.rank: Dict[int, int] = {}
        #: search graph: node -> {neighbor: cost}, original edges + shortcuts
        self._graph: Optional[Dict[int, Dict[int, float]]] = {
            u: dict(nbrs) for u, nbrs in network.adjacency.items()
        }
        #: (u, v) -> bypassed node for every edge that is (currently) a
        #: shortcut; edges absent from this map are original network edges
        self._middle: Dict[Tuple[int, int], int] = {}
        #: build-time weight of every original edge a shorter shortcut
        #: replaced in ``_graph`` (see :meth:`changed_arcs`)
        self._displaced: Dict[Tuple[int, int], float] = {}
        self.num_shortcuts = 0
        #: lazy-update churn: how many popped nodes were re-pushed because
        #: their fresh priority lost to the (live) heap top
        self.num_repushes = 0
        #: the nodes in contraction order, lowest rank first
        self.order: List[int] = []
        self._build(order)
        #: upward adjacency used by queries (toward higher ranks only)
        self._upward: Dict[int, List[Tuple[int, float]]] = {
            u: [
                (v, cost)
                for v, cost in nbrs.items()
                if self.rank[v] > self.rank[u]
            ]
            for u, nbrs in self._graph.items()
        }
        #: node column of the landmark rows and the PHAST sweeps: the
        #: node itself when the node ids are 0..n-1, ``self._column[node]``
        #: otherwise
        self._column: Optional[Mapping[int, int]] = None
        nodes = sorted(self.rank)
        if nodes != list(range(len(nodes))):
            self._column = (
                column if column is not None
                else {node: i for i, node in enumerate(nodes)}
            )
        #: the landmark rows as python-float views (no copy), read by
        #: node column
        self._goals: Optional[List[memoryview]] = None
        if landmarks is not None:
            rows = np.ascontiguousarray(landmarks, dtype=np.float64)
            self._goals = [memoryview(row) for row in rows]
        #: PHAST sweep plan over node columns, built on first use
        self._sweeps: Optional[Tuple[list, list]] = None

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    def _build(self, order: Optional[Sequence[int]]) -> None:
        remaining: Dict[int, Dict[int, float]] = {
            u: dict(nbrs) for u, nbrs in self._graph.items()
        }
        contracted_neighbors: Dict[int, int] = {u: 0 for u in remaining}
        if order is not None:
            for rank, node in enumerate(order):
                self._contract(node, remaining, contracted_neighbors)
                self.rank[node] = rank
            self.order = list(order)
            return
        heap: List[Tuple[float, int]] = []
        for node in remaining:
            priority = self._priority(node, remaining, contracted_neighbors)
            heapq.heappush(heap, (priority, node))

        next_rank = 0
        while heap:
            priority, node = heapq.heappop(heap)
            if node in self.rank:
                continue
            # lazy update: re-evaluate; re-push unless still the minimum.
            # Stale entries (already-contracted nodes) must come off the
            # top first — comparing against a stale minimum forces
            # spurious re-pushes and priority re-evaluations, churn that
            # compounds on larger graphs.
            fresh = self._priority(node, remaining, contracted_neighbors)
            while heap and heap[0][1] in self.rank:
                heapq.heappop(heap)
            if heap and fresh > heap[0][0] + 1e-12:
                heapq.heappush(heap, (fresh, node))
                self.num_repushes += 1
                continue
            self._contract(node, remaining, contracted_neighbors)
            self.rank[node] = next_rank
            self.order.append(node)
            next_rank += 1

    def _priority(
        self,
        node: int,
        remaining: Dict[int, Dict[int, float]],
        contracted_neighbors: Dict[int, int],
    ) -> float:
        shortcuts = self._simulate_contraction(node, remaining, count_only=True)
        degree = len(remaining[node])
        return (shortcuts - degree) + 0.75 * contracted_neighbors[node]

    def _simulate_contraction(
        self,
        node: int,
        remaining: Dict[int, Dict[int, float]],
        count_only: bool,
    ) -> int:
        """Count (or collect) the shortcuts contracting ``node`` needs.

        One *one-to-many* witness search per source neighbor covers every
        pair ``(u, v)`` with ``u < v`` at once — the search from ``u``
        labels all later neighbors together, which is what keeps
        preprocessing tractable at DIMACS scale (the per-pair variant
        re-explores the same ball ``degree/2`` times over).

        The witness budget is asymmetric on purpose.  Priority estimation
        (``count_only``) runs constantly under the lazy-update scheme, so
        it uses the cheap flat :data:`WITNESS_HOP_LIMIT`; a miscount only
        nudges the contraction order.  A *contraction* search scales the
        budget with its target count instead: in the dense top of the
        hierarchy a node can have dozens of neighbours, and a flat budget
        that cannot even settle the targets finds no witnesses, inserts
        shortcuts for every pair, and densifies what is left — a cascade
        that blows preprocessing from minutes to hours at 100k nodes.
        """
        neighbors = remaining[node]
        items = sorted(neighbors.items())
        added = 0
        for i, (u, cu) in enumerate(items):
            rest = items[i + 1:]
            if not rest:
                break
            targets = {v: cu + cv for v, cv in rest}
            if count_only:
                budget = WITNESS_HOP_LIMIT
            else:
                budget = max(WITNESS_HOP_LIMIT, 64 * len(targets))
            witnessed = self._witness_search(u, targets, node, remaining, budget)
            for v, cv in rest:
                if v not in witnessed:
                    added += 1
                    if not count_only:
                        self._add_shortcut(u, v, cu + cv, node, remaining)
        return added

    def _witness_search(
        self,
        source: int,
        targets: Dict[int, float],
        skip: int,
        remaining: Dict[int, Dict[int, float]],
        budget: int,
    ) -> set:
        """Bounded one-to-many Dijkstra in the remaining graph avoiding
        ``skip``: which targets have a path from ``source`` no longer than
        their via-``skip`` cost?  Conservative under the settled-node
        budget — an undiscovered witness only means a redundant (harmless)
        shortcut."""
        eps = 1e-12
        limit = max(targets.values()) + eps
        dist: Dict[int, float] = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        pop, push = heapq.heappop, heapq.heappush
        pending = len(targets)
        while heap and budget > 0:
            d, u = pop(heap)
            if d > limit:
                break
            if d > dist[u]:
                continue
            budget -= 1
            if u in targets:
                pending -= 1
                if pending == 0:
                    break
            for v, cost in remaining[u].items():
                if v == skip:
                    continue
                nd = d + cost
                if nd <= limit and nd < dist.get(v, INF):
                    dist[v] = nd
                    push(heap, (nd, v))
        return {
            v for v, via in targets.items() if dist.get(v, INF) <= via + eps
        }

    def _add_shortcut(
        self,
        u: int,
        v: int,
        cost: float,
        via: int,
        remaining: Dict[int, Dict[int, float]],
    ) -> None:
        for a, b in ((u, v), (v, u)):
            if cost < remaining[a].get(b, INF):
                remaining[a][b] = cost
            old = self._graph[a].get(b, INF)
            if cost < old:
                if old < INF and (a, b) not in self._middle:
                    self._displaced[(a, b)] = old
                self._graph[a][b] = cost
                self._middle[(a, b)] = via
        self.num_shortcuts += 1

    def _contract(
        self,
        node: int,
        remaining: Dict[int, Dict[int, float]],
        contracted_neighbors: Dict[int, int],
    ) -> None:
        self._simulate_contraction(node, remaining, count_only=False)
        for neighbor in list(remaining[node]):
            del remaining[neighbor][node]
            contracted_neighbors[neighbor] += 1
        remaining[node] = {}

    def changed_arcs(self) -> List[Tuple[int, int, float, float]]:
        """Every arc whose weight in the network now differs from the
        weight this hierarchy was built on, as ``(tail, head, old, new)``
        with ``inf`` for a missing arc (an added arc has an infinite old
        weight, a removed one an infinite new weight).  Call it only
        while the network has the hierarchy's node set."""
        middle, displaced = self._middle, self._displaced
        adjacency = self.network.adjacency
        changed: List[Tuple[int, int, float, float]] = []
        for u, arcs in self._graph.items():
            now = adjacency[u]
            for v, w in arcs.items():
                if (u, v) in middle:
                    w = displaced.get((u, v))
                    if w is None:
                        continue  # a shortcut, not an original arc
                new = now.get(v, INF)
                if new != w:
                    changed.append((u, v, w, new))
            for v, new in now.items():
                if v not in arcs or ((u, v) in middle and (u, v) not in displaced):
                    changed.append((u, v, INF, new))
        return changed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cost(self, source: int, target: int) -> float:
        """Exact shortest distance (inf when unreachable).

        Interleaved bidirectional upward search.  A direction stops once
        its queue minimum reaches the best meeting found so far (standard
        CH termination), and with landmark rows the search also

        - seeds the bound with the landmark triangle *upper* bound
          ``min_L d(s, L) + d(L, t)`` (padded by a relative epsilon so
          float rounding cannot exclude the optimum), and
        - skips relaxing any settled node ``u`` whose admissible remaining
          distance ``d + max_L |d(L, u) - d(L, goal)|`` already reaches
          the bound — ``u`` stays a valid meeting point, but no shortest
          path can leave the pruned radius through it.

        The winning up-down path is unpacked into original network edges
        and the distance re-accumulated from ``source`` in path order, so
        the result is bit-identical to plain Dijkstra's over the same
        path (shortcut costs are pairwise sums and would otherwise round
        differently in the last ulp).
        """
        if source == target:
            return 0.0
        upward = self._upward
        heappop, heappush = heapq.heappop, heapq.heappush
        best = INF
        goals0: Optional[List[Tuple[object, float]]] = None
        goals1: Optional[List[Tuple[object, float]]] = None
        tables = self._goals
        column = self._column
        if tables is not None:
            src_col = source if column is None else column[source]
            dst_col = target if column is None else column[target]
            src_d = [row[src_col] for row in tables]
            dst_d = [row[dst_col] for row in tables]
            upper = min(a + b for a, b in zip(src_d, dst_d))
            # a zero bound would prune the very first pop (d >= best):
            # zero-cost pairs are left to the plain search.  A landmark
            # lower bound is a difference of two landmark distances and
            # carries their rounding, not the pair's: the seeded radius
            # is padded by it too, or a short pair far from every
            # landmark prunes its own source before any meeting
            if 0.0 < upper < INF:
                scale = max(x for x in src_d + dst_d if x < INF)
                best = upper * (1.0 + 1e-9) + 1e-12 * scale
            # widest-gap landmarks give the tightest bounds for this pair
            gaps = []
            for i, (a, b) in enumerate(zip(src_d, dst_d)):
                gap = abs(a - b)
                gaps.append((gap, i) if gap == gap else (-1.0, i))
            gaps.sort(reverse=True)
            active = [i for _, i in gaps[:_ACTIVE_LANDMARKS]]
            goals0 = [(tables[i], dst_d[i]) for i in active]  # fwd -> target
            goals1 = [(tables[i], src_d[i]) for i in active]  # bwd -> source
        # the two directions are written out twice with all-local state:
        # this is the hottest loop in a tier-1 oracle and indexing
        # (heaps[side], settled[1 - side], ...) measurably slows it
        dist0 = {source: 0.0}
        dist1 = {target: 0.0}
        set0: Dict[int, float] = {}
        set1: Dict[int, float] = {}
        pred0: Dict[int, int] = {}
        pred1: Dict[int, int] = {}
        h0: List[Tuple[float, int]] = [(0.0, source)]
        h1: List[Tuple[float, int]] = [(0.0, target)]
        meet: Optional[int] = None
        while h0 or h1:
            if h0 and (not h1 or h0[0][0] <= h1[0][0]):
                d, u = heappop(h0)
                if d >= best:
                    # queue minima only grow: this direction is exhausted
                    h0 = []
                    continue
                if u in set0:
                    continue
                set0[u] = d
                o = set1.get(u)
                if o is not None and d + o < best:
                    best = d + o
                    meet = u
                if goals0 is not None:
                    c = u if column is None else column[u]
                    bound = 0.0
                    for table, goal_d in goals0:
                        diff = table[c] - goal_d
                        if diff < 0.0:
                            diff = -diff
                        if diff > bound:
                            bound = diff
                    if d + bound >= best:
                        continue
                for v, cost in upward[u]:
                    nd = d + cost
                    if nd < dist0.get(v, INF):
                        dist0[v] = nd
                        pred0[v] = u
                        heappush(h0, (nd, v))
            else:
                d, u = heappop(h1)
                if d >= best:
                    h1 = []
                    continue
                if u in set1:
                    continue
                set1[u] = d
                o = set0.get(u)
                if o is not None and d + o < best:
                    best = d + o
                    meet = u
                if goals1 is not None:
                    c = u if column is None else column[u]
                    bound = 0.0
                    for table, goal_d in goals1:
                        diff = table[c] - goal_d
                        if diff < 0.0:
                            diff = -diff
                        if diff > bound:
                            bound = diff
                    if d + bound >= best:
                        continue
                for v, cost in upward[u]:
                    nd = d + cost
                    if nd < dist1.get(v, INF):
                        dist1[v] = nd
                        pred1[v] = u
                        heappush(h1, (nd, v))
        if meet is None:
            return INF
        edges: List[Tuple[int, int]] = []
        self._append_upward_path(pred0, source, meet, edges)
        down: List[Tuple[int, int]] = []
        self._append_upward_path(pred1, target, meet, down)
        edges.extend((b, a) for a, b in reversed(down))
        adjacency = self.network.adjacency
        total = 0.0
        for a, b in edges:
            total += adjacency[a][b]
        return total

    __call__ = cost

    def _append_upward_path(
        self,
        pred: Dict[int, int],
        source: int,
        meet: int,
        out: List[Tuple[int, int]],
    ) -> None:
        """Append the unpacked ``source -> meet`` path as original edges."""
        chain: List[int] = [meet]
        while chain[-1] != source:
            chain.append(pred[chain[-1]])
        chain.reverse()
        for a, b in zip(chain, chain[1:]):
            self._unpack(a, b, out)

    def _unpack(self, a: int, b: int, out: List[Tuple[int, int]]) -> None:
        """Expand search-graph edge ``(a, b)`` into original network edges
        left to right (a shortcut's middle node splits it in two);
        iterative — deep hierarchies would otherwise recurse past Python's
        default limit."""
        middle = self._middle
        stack = [(a, b)]
        pop, push = stack.pop, stack.append
        while stack:
            x, y = pop()
            mid = middle.get((x, y))
            if mid is None:
                out.append((x, y))
            else:
                # left half popped (and hence emitted) first
                push((mid, y))
                push((x, mid))

    # ------------------------------------------------------------------
    # many sources at once (PHAST)
    # ------------------------------------------------------------------
    def phast(self, sources: np.ndarray) -> np.ndarray:
        """Distance estimates from every source to every node.

        ``sources`` are node columns: positions in the ascending node-id
        order (:meth:`DistanceOracle.column`).  Returns an
        ``(nodes, sources)`` float64 array, ``inf`` where unreachable.
        The upward sweep leaves each column holding its source's upward
        search space; the downward sweep then settles every node from its
        higher-ranked neighbours.  Both walk the rank levels of
        :meth:`_sweep_plan`, one vectorised step per level for all
        sources.  Entries are shortcut sums and may differ from
        :func:`~repro.roadnet.shortest_path.dijkstra` in the last ulps.
        """
        upward, downward = self._sweep_plan()
        dist = np.full((len(self.rank), len(sources)), INF)
        dist[sources, np.arange(len(sources))] = 0.0
        for plan in (upward, downward):
            for targets, heads, weights, starts in plan:
                best = np.minimum.reduceat(dist[heads] + weights, starts, axis=0)
                np.minimum(best, dist[targets], out=best)
                dist[targets] = best
        return dist

    def _sweep_plan(self) -> Tuple[list, list]:
        """Level-grouped arcs of the upward and the downward sweep.

        A node's upward level is one more than the highest level among
        its lower-ranked neighbours (0 without any), its downward level
        one more than the highest among its higher-ranked neighbours;
        nodes of one level share no arc, so each level relaxes in one
        step.  Each step is ``(targets, heads, weights, starts)``: arcs
        ``heads -> targets`` sorted by target, with ``starts`` the first
        arc of every target (the segments of ``minimum.reduceat``).
        """
        if self._sweeps is not None:
            return self._sweeps
        nodes = sorted(self.rank)
        column = self._column
        low: List[int] = []
        high: List[int] = []
        cost: List[float] = []
        for u, arcs in self._upward.items():
            for v, c in arcs:
                low.append(u if column is None else column[u])
                high.append(v if column is None else column[v])
                cost.append(c)
        lo = np.array(low, dtype=np.int64)
        hi = np.array(high, dtype=np.int64)
        weight = np.array(cost, dtype=np.float64)
        by_rank = sorted(range(len(nodes)), key=lambda i: self.rank[nodes[i]])
        below: List[List[int]] = [[] for _ in nodes]
        above: List[List[int]] = [[] for _ in nodes]
        for a, b in zip(low, high):
            below[b].append(a)
            above[a].append(b)
        up_level = [0] * len(nodes)
        for v in by_rank:
            if below[v]:
                up_level[v] = 1 + max(up_level[a] for a in below[v])
        down_level = [0] * len(nodes)
        for v in reversed(by_rank):
            if above[v]:
                down_level[v] = 1 + max(down_level[b] for b in above[v])
        self._sweeps = (
            _level_steps(np.array(up_level), hi, lo, weight),
            _level_steps(np.array(down_level), lo, hi, weight),
        )
        return self._sweeps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContractionHierarchy(nodes={len(self.rank)}, "
            f"shortcuts={self.num_shortcuts})"
        )


def _level_steps(
    level: np.ndarray, targets: np.ndarray, heads: np.ndarray, weights: np.ndarray
) -> list:
    """Group arcs ``heads -> targets`` into one sweep step per target level."""
    order = np.lexsort((targets, level[targets]))
    targets, heads, weights = targets[order], heads[order], weights[order]
    levels = level[targets]
    steps = []
    for arcs in np.split(np.arange(len(targets)), np.flatnonzero(np.diff(levels)) + 1):
        if not len(arcs):
            continue
        t = targets[arcs]
        starts = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
        steps.append((t[starts], heads[arcs], weights[arcs][:, None], starts))
    return steps
