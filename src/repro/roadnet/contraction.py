"""Contraction Hierarchies (CH) for fast exact distance queries.

The bench networks are small enough for an all-pairs table, but the paper's
real networks (264k nodes) are not — production deployments of this library
on DIMACS-scale graphs need a sublinear point-to-point method.  Contraction
Hierarchies are the standard answer:

- **preprocessing**: contract nodes in importance order; when removing node
  ``v``, add shortcut edges between its neighbours wherever ``v`` lay on
  their only shortest path (checked by a local *witness search*);
- **query**: the shortest up-down path meets at the node common to the
  *upward search spaces* of both ends (the nodes a Dijkstra that only
  relaxes edges toward *more important* nodes settles, less the ones
  stall-on-demand proves off every shortest path) that minimises the
  sum of the two upward distances.  A node's space is searched once, in
  full, on its first query and kept in a bounded LRU
  (:data:`CACHE_SPACES`), the bucket idea of Knopp et al., *Computing
  Many-to-Many Shortest Paths Using Highway Hierarchies* (ALENEX 2007),
  applied one node at a time: dispatch queries reuse few endpoints
  (popular pickups, parked vehicles), so most queries search nothing and
  only scan two cached spaces of a few dozen nodes each.

Node importance uses the classic lazy heuristic: edge difference (shortcuts
added minus edges removed) plus contracted-neighbour count, re-evaluated
lazily on pop.  A caller that already has a good order (an earlier
hierarchy's :attr:`ContractionHierarchy.order` over the same nodes, say
after a travel-time change) passes it in and skips the heuristic: the
witness searches run on the current weights and no priority is evaluated.
Any order yields an exact hierarchy; the order only sets its size.

Every hierarchy keeps a :class:`ContractionRecord` of its build: per
node, the nodes its contraction-time witness searches settled and the
shortcuts it added, plus the arc weights it was built on.  A rebuild
from a record (``record=``, after a travel-time change) walks the
recorded order with a set of *dirty* nodes, those whose arcs may differ
from the recorded build's: it re-runs the witness searches of a node
only when the node is dirty or its recorded searches settled a dirty
node, and replays the recorded shortcuts of every other node.  The
result equals the hierarchy ``order=record.order`` would build.

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
from array import array
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.shortest_path import INF

#: base settled-node budget of each witness search; smaller is faster to
#: preprocess but inserts more (harmless) shortcuts.  Contraction-time
#: searches scale it with their target count (see
#: :meth:`ContractionHierarchy._simulate_contraction`) so the dense top of
#: the hierarchy still finds witnesses
WITNESS_HOP_LIMIT = 60

#: upward search spaces a hierarchy keeps (LRU).  A space holds a few
#: dozen nodes on a 4k-node city grid, about 3 kB with its
#: predecessors, and hundreds on larger grids: the bound caps the memory
#: however many distinct nodes a long run queries
CACHE_SPACES = 1024


class ContractionHierarchy:
    """Preprocessed CH over an undirected road network.

    Parameters
    ----------
    network:
        The input network (undirected; directed support would need split
        upward/downward graphs, which the reproduction does not require).
    order:
        Optional contraction order, lowest rank first: every node of the
        network exactly once (typically an earlier hierarchy's
        :attr:`order`).  Given one, the build contracts in that order and
        evaluates no priorities.
    column:
        Optional node id -> column map over the ascending node ids, the
        columns :meth:`phast` uses (``DistanceOracle`` passes its own);
        built here when the ids are not ``0..n-1`` and none is given.
    record:
        Optional :attr:`record` of an earlier hierarchy over the same
        nodes (not with ``order``).  The build contracts in its order,
        re-runs the witness searches only of the nodes the weight
        change may reach and replays the recorded shortcuts of all
        others; the result is the hierarchy ``order=record.order``
        builds.
    """

    def __init__(
        self,
        network: RoadNetwork,
        order: Optional[Sequence[int]] = None,
        column: Optional[Mapping[int, int]] = None,
        record: Optional["ContractionRecord"] = None,
    ) -> None:
        if not network.undirected:
            raise ValueError("ContractionHierarchy requires an undirected network")
        if len(network) == 0:
            raise ValueError("cannot build a hierarchy over an empty network")
        if record is not None:
            if order is not None:
                raise ValueError("pass an order or a record, not both")
            order = record.order
        if order is not None and (
            len(order) != len(network) or set(order) != set(network.adjacency)
        ):
            raise ValueError("order must list every node of the network once")
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
        self.num_shortcuts = 0
        #: lazy-update churn: how many popped nodes were re-pushed because
        #: their fresh priority lost to the (live) heap top
        self.num_repushes = 0
        #: nodes whose witness searches ran in this build: all of them,
        #: unless it was built from a ``record``
        self.recontracted = 0
        #: the nodes in contraction order, lowest rank first
        self.order: List[int] = []
        writer = _RecordWriter()
        if record is None:
            self._build(order, writer)
        else:
            self._rebuild(record, writer)
        #: what this build saw and did, for a rebuild after a change
        self.record = writer.finish(self.order, network.adjacency)
        #: upward adjacency used by queries (toward higher ranks only)
        self._upward: Dict[int, List[Tuple[int, float]]] = {
            u: [
                (v, cost)
                for v, cost in nbrs.items()
                if self.rank[v] > self.rank[u]
            ]
            for u, nbrs in self._graph.items()
        }
        #: node column of the PHAST sweeps: the node itself when the node
        #: ids are 0..n-1, ``self._column[node]`` otherwise
        self._column: Optional[Mapping[int, int]] = None
        nodes = sorted(self.rank)
        if nodes != list(range(len(nodes))):
            self._column = (
                column if column is not None
                else {node: i for i, node in enumerate(nodes)}
            )
        #: PHAST sweep plan over node columns, built on first use
        self._sweeps: Optional[Tuple[list, list]] = None
        #: node -> its upward search space ``(dist, pred)`` (:meth:`_space`),
        #: least recently used first
        self._spaces: "OrderedDict[int, tuple]" = OrderedDict()
        #: upward spaces searched so far (each query searches at most two)
        self.space_searches = 0

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    def _build(self, order: Optional[Sequence[int]], writer: "_RecordWriter") -> None:
        remaining: Dict[int, Dict[int, float]] = {
            u: dict(nbrs) for u, nbrs in self._graph.items()
        }
        self.recontracted = len(remaining)
        if order is not None:
            for rank, node in enumerate(order):
                self._contract(node, remaining, writer)
                self.rank[node] = rank
            self.order = list(order)
            return
        contracted_neighbors: Dict[int, int] = {u: 0 for u in remaining}
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
            for neighbor in remaining[node]:
                contracted_neighbors[neighbor] += 1
            self._contract(node, remaining, writer)
            self.rank[node] = next_rank
            self.order.append(node)
            next_rank += 1

    def _rebuild(self, record: "ContractionRecord", writer: "_RecordWriter") -> None:
        """Contract in ``record``'s order, re-running only the witness
        searches whose outcome may have changed.

        A node is *dirty* while its arcs in the remaining graph may
        differ from the recorded build's at the same step: at first the
        endpoints of every changed arc, later also both ends of every
        shortcut a re-run added or dropped.  A node that is not dirty,
        and whose recorded witness searches settled no dirty node,
        would search exactly the same arcs with the same weights (pops
        go in ``(d, node)`` order, neighbours are sorted), so its
        recorded shortcuts are replayed.  Any other node runs its
        witness searches again.  Every shortcut reaches
        :meth:`_add_shortcut` in the order a full build adds it, so
        the result equals ``order=record.order``.
        """
        remaining: Dict[int, Dict[int, float]] = {
            u: dict(nbrs) for u, nbrs in self._graph.items()
        }
        dirty: Set[int] = set()
        for u, v, _, _ in record.changed_arcs(self.network):
            dirty.add(u)
            dirty.add(v)
        order = record.order
        cut_at = record.shortcut_at.tolist()
        tails = record.shortcut_tail.tolist()
        heads = record.shortcut_head.tolist()
        costs = record.shortcut_cost.tolist()
        add, remove, saw = self._add_shortcut, self._remove, record.saw
        replayed = 0  # first rank of the run of replayed ranks being built
        for rank, node in enumerate(order):
            self.rank[node] = rank
            lo, hi = cut_at[rank], cut_at[rank + 1]
            if node not in dirty and not saw(rank, dirty):
                for j in range(lo, hi):
                    add(tails[j], heads[j], costs[j], node, remaining)
                remove(node, remaining)
                continue
            writer.copy(record, replayed, rank)
            replayed = rank + 1
            self.recontracted += 1
            added = self._contract(node, remaining, writer)
            before = list(zip(tails[lo:hi], heads[lo:hi], costs[lo:hi]))
            if added != before:
                for u, v, _ in set(added).symmetric_difference(before):
                    dirty.add(u)
                    dirty.add(v)
        writer.copy(record, replayed, len(order))
        self.order = list(order)

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
        settled: Optional[Set[int]] = None,
        added: Optional[List[Tuple[int, int, float]]] = None,
    ) -> int:
        """Count (or collect) the shortcuts contracting ``node`` needs.

        Collecting adds them, appends each as ``(u, v, cost)`` to
        ``added`` and puts every node a witness search settles in
        ``settled`` (the node's line of the :class:`ContractionRecord`).

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
        count = 0
        for i, (u, cu) in enumerate(items):
            rest = items[i + 1:]
            if not rest:
                break
            targets = {v: cu + cv for v, cv in rest}
            if count_only:
                budget = WITNESS_HOP_LIMIT
            else:
                budget = max(WITNESS_HOP_LIMIT, 64 * len(targets))
            witnessed = self._witness_search(
                u, targets, node, remaining, budget, settled
            )
            for v, cv in rest:
                if v not in witnessed:
                    count += 1
                    if not count_only:
                        self._add_shortcut(u, v, cu + cv, node, remaining)
                        added.append((u, v, cu + cv))
        return count

    def _witness_search(
        self,
        source: int,
        targets: Dict[int, float],
        skip: int,
        remaining: Dict[int, Dict[int, float]],
        budget: int,
        settled: Optional[Set[int]] = None,
    ) -> set:
        """Bounded one-to-many Dijkstra in the remaining graph avoiding
        ``skip``: which targets have a path from ``source`` no longer than
        their via-``skip`` cost?  Conservative under the settled-node
        budget — an undiscovered witness only means a redundant (harmless)
        shortcut.  Every node the search settles (pops and expands) goes
        into ``settled``: besides ``targets`` and ``budget``, the outcome
        depends on their arcs and on nothing else.  The comparison has no
        tolerance: one would let a witness up to it longer than the
        shortcut stand in for it, and on networks with arcs of that size
        (``1e-12`` next to ``0.0``) the hierarchy's distances would then
        exceed the true ones."""
        limit = max(targets.values())
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
            if settled is not None:
                settled.add(u)
            for v, cost in remaining[u].items():
                if v == skip:
                    continue
                nd = d + cost
                if nd <= limit and nd < dist.get(v, INF):
                    dist[v] = nd
                    push(heap, (nd, v))
        return {
            v for v, via in targets.items() if dist.get(v, INF) <= via
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
            if cost < self._graph[a].get(b, INF):
                self._graph[a][b] = cost
                self._middle[(a, b)] = via
        self.num_shortcuts += 1

    def _contract(
        self,
        node: int,
        remaining: Dict[int, Dict[int, float]],
        writer: "_RecordWriter",
    ) -> List[Tuple[int, int, float]]:
        """Contract ``node``, append its line to the record and take it out
        of the remaining graph; returns the shortcuts it added."""
        settled: Set[int] = set()
        added: List[Tuple[int, int, float]] = []
        self._simulate_contraction(node, remaining, False, settled, added)
        writer.add(settled, added)
        self._remove(node, remaining)
        return added

    @staticmethod
    def _remove(node: int, remaining: Dict[int, Dict[int, float]]) -> None:
        """Take ``node`` out of the remaining graph."""
        for neighbor in remaining[node]:
            del remaining[neighbor][node]
        remaining[node] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cost(self, source: int, target: int) -> float:
        """Exact shortest distance (inf when unreachable).

        The meeting node is the node ``m`` common to both ends' upward
        spaces with the least ``d_source[m] + d_target[m]``.  The winning
        up-down path is unpacked into original network edges and the
        distance re-accumulated from ``source`` in path order, so the
        result is bit-identical to plain Dijkstra's over the same path
        (shortcut costs are pairwise sums and would otherwise round
        differently in the last ulp).
        """
        if source == target:
            return 0.0
        dist0, pred0 = self._space(source)
        dist1, pred1 = self._space(target)
        if len(dist0) > len(dist1):
            small, get = dist1, dist0.get
        else:
            small, get = dist0, dist1.get
        best = INF
        meet: Optional[int] = None
        for node, d in small.items():
            o = get(node)
            if o is not None and d + o < best:
                best = d + o
                meet = node
        if meet is None:
            return INF
        # the up-down path's search-graph nodes, source to target (a
        # shortcut bypasses the same node both ways, so the target's
        # upward chain unpacks the same read downward)
        path = [meet]
        while path[-1] != source:
            path.append(pred0[path[-1]])
        path.reverse()
        node = meet
        while node != target:
            node = pred1[node]
            path.append(node)
        edges: List[Tuple[int, int]] = []
        for a, b in zip(path, path[1:]):
            self._unpack(a, b, edges)
        adjacency = self.network.adjacency
        total = 0.0
        for a, b in edges:
            total += adjacency[a][b]
        return total

    __call__ = cost

    def _space(self, node: int) -> Tuple[Dict[int, float], Dict[int, int]]:
        """``node``'s upward search space: the distance of every node an
        upward Dijkstra from it settles, and each one's predecessor.

        Searched to exhaustion (no target) on first use and kept under
        the :data:`CACHE_SPACES` LRU.  The network is undirected, so one
        space serves ``node`` as either end of a query.  A node that a
        higher neighbour already labelled reaches for less is *stalled*
        (stall-on-demand): its label is not its distance, so no shortest
        up-down path meets there or passes through it, and it is neither
        kept nor expanded.  On grids this drops nearly half of a space on
        the 64×64 city and five sixths on 128×128.
        """
        spaces = self._spaces
        space = spaces.get(node)
        if space is not None:
            spaces.move_to_end(node)
            return space
        upward = self._upward
        heappop, heappush = heapq.heappop, heapq.heappush
        label = {node: 0.0}
        parent: Dict[int, int] = {}
        dist: Dict[int, float] = {}
        pred: Dict[int, int] = {}
        heap: List[Tuple[float, int]] = [(0.0, node)]
        while heap:
            d, u = heappop(heap)
            if d > label[u]:
                continue  # a stale entry: u was settled closer
            arcs = upward[u]
            for v, cost in arcs:
                # stall on demand: a higher node reaches u for less, so u
                # lies on no shortest path and can meet nothing
                w = label.get(v)
                if w is not None and w + cost < d:
                    break
            else:
                dist[u] = d
                if u != node:
                    pred[u] = parent[u]
                for v, cost in arcs:
                    nd = d + cost
                    if nd < label.get(v, INF):
                        label[v] = nd
                        parent[v] = u
                        heappush(heap, (nd, v))
        self.space_searches += 1
        spaces[node] = space = (dist, pred)
        if len(spaces) > CACHE_SPACES:
            spaces.popitem(last=False)
        return space

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


class ContractionRecord:
    """What one build of a :class:`ContractionHierarchy` saw and did.

    Three CSR tables over the ranks ``0..n-1`` of :attr:`order`, each
    with offsets of ``n + 1`` entries (``*_at``), all NumPy arrays:

    - ``arc_head``/``arc_cost``: the node's arcs in the network the
      hierarchy was built on (:meth:`changed_arcs`);
    - ``settled``: every node the node's witness searches settled;
    - ``shortcut_tail``/``shortcut_head``/``shortcut_cost``: the
      shortcuts contracting the node added, in the order it added them.
    """

    def __init__(
        self,
        order: List[int],
        arc_at: np.ndarray,
        arc_head: np.ndarray,
        arc_cost: np.ndarray,
        settled_at: np.ndarray,
        settled: np.ndarray,
        shortcut_at: np.ndarray,
        shortcut_tail: np.ndarray,
        shortcut_head: np.ndarray,
        shortcut_cost: np.ndarray,
    ) -> None:
        self.order = order
        self.arc_at, self.arc_head, self.arc_cost = arc_at, arc_head, arc_cost
        self.settled_at, self.settled = settled_at, settled
        self.shortcut_at = shortcut_at
        self.shortcut_tail, self.shortcut_head = shortcut_tail, shortcut_head
        self.shortcut_cost = shortcut_cost
        # python-int views of settled_at and settled, made on the first saw()
        self._settled_bounds: Optional[List[int]] = None
        self._settled_view: Optional[memoryview] = None

    def saw(self, rank: int, nodes: Set[int]) -> bool:
        """Whether the witness searches of the node at ``rank`` settled
        any of ``nodes``."""
        if self._settled_bounds is None:
            self._settled_bounds = self.settled_at.tolist()
            self._settled_view = memoryview(self.settled)
        bounds = self._settled_bounds
        return not nodes.isdisjoint(self._settled_view[bounds[rank]:bounds[rank + 1]])

    def changed_arcs(self, network: RoadNetwork) -> List[Tuple[int, int, float, float]]:
        """Every arc whose weight in ``network`` differs from the weight
        the recorded build saw, as ``(tail, head, old, new)`` with
        ``inf`` for a missing arc (an added arc has an infinite old
        weight, a removed one an infinite new weight).  ``network`` must
        have the recorded node set."""
        adjacency = network.adjacency
        at = self.arc_at.tolist()
        heads = self.arc_head.tolist()
        costs = self.arc_cost.tolist()
        changed: List[Tuple[int, int, float, float]] = []
        for rank, u in enumerate(self.order):
            now = adjacency[u]
            lo, hi = at[rank], at[rank + 1]
            before = dict(zip(heads[lo:hi], costs[lo:hi]))
            if before == now:
                continue
            for v, w in before.items():
                new = now.get(v, INF)
                if new != w:
                    changed.append((u, v, w, new))
            for v, new in now.items():
                if v not in before:
                    changed.append((u, v, INF, new))
        return changed


class _RecordWriter:
    """Builds a :class:`ContractionRecord` one rank at a time."""

    def __init__(self) -> None:
        self.settled_at = array("q", [0])
        self.settled = array("q")
        self.shortcut_at = array("q", [0])
        self.tail = array("q")
        self.head = array("q")
        self.cost = array("d")

    def add(self, settled: Iterable[int], added: List[Tuple[int, int, float]]) -> None:
        """Append the next rank's line."""
        self.settled.extend(settled)
        self.settled_at.append(len(self.settled))
        for u, v, cost in added:
            self.tail.append(u)
            self.head.append(v)
            self.cost.append(cost)
        self.shortcut_at.append(len(self.tail))

    def copy(self, record: ContractionRecord, first: int, last: int) -> None:
        """Append the lines of ranks ``first`` to ``last - 1`` of ``record``."""
        if first >= last:
            return
        lo, hi = record.settled_at[first], record.settled_at[last]
        shift = len(self.settled) - lo
        self.settled_at.frombytes(
            (record.settled_at[first + 1:last + 1] + shift).tobytes()
        )
        self.settled.frombytes(record.settled[lo:hi].tobytes())
        lo, hi = record.shortcut_at[first], record.shortcut_at[last]
        shift = len(self.tail) - lo
        self.shortcut_at.frombytes(
            (record.shortcut_at[first + 1:last + 1] + shift).tobytes()
        )
        self.tail.frombytes(record.shortcut_tail[lo:hi].tobytes())
        self.head.frombytes(record.shortcut_head[lo:hi].tobytes())
        self.cost.frombytes(record.shortcut_cost[lo:hi].tobytes())

    def finish(
        self, order: List[int], adjacency: Mapping[int, Mapping[int, float]]
    ) -> ContractionRecord:
        """The record, with the arcs of ``adjacency`` as its build weights."""
        arc_at = array("q", [0])
        heads = array("q")
        costs = array("d")
        for node in order:
            arcs = adjacency[node]
            heads.extend(arcs)
            costs.extend(arcs.values())
            arc_at.append(len(heads))
        return ContractionRecord(
            order,
            arc_at=_int64(arc_at),
            arc_head=_int64(heads),
            arc_cost=_float64(costs),
            settled_at=_int64(self.settled_at),
            settled=_int64(self.settled),
            shortcut_at=_int64(self.shortcut_at),
            shortcut_tail=_int64(self.tail),
            shortcut_head=_int64(self.head),
            shortcut_cost=_float64(self.cost),
        )


def _int64(buf: array) -> np.ndarray:
    return np.frombuffer(buf, dtype=np.int64)


def _float64(buf: array) -> np.ndarray:
    return np.frombuffer(buf, dtype=np.float64)
