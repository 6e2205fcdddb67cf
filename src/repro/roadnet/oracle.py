"""Tiered cached distance oracle.

Every URR solver issues very many ``cost(u, v)`` queries with heavily skewed
locality (the same pickup/drop-off locations appear in many candidate
insertions).  :class:`DistanceOracle` serves them from one of three tiers,
auto-picked from network size and a memory budget:

- **tier 0 — APSP table** (small networks): a full all-pairs
  precomputation stored as one flat ``numpy.float64`` array over interned
  node indices; O(1) indexed reads, no per-query dict hashing.
  :meth:`lower_bounds` gathers its entries for many nodes at once, so
  the reachability gate of the solvers is exact on this tier.
- **tier 1 — contraction hierarchy** (city-scale networks): exact CH
  point-to-point queries (:mod:`repro.roadnet.contraction`) under the pair
  LRU.  A query scans the cached upward search spaces of its two ends,
  each searched once per hierarchy, so a stream that keeps reusing the
  same pickups and vehicle positions does little graph work.  The exact
  distances from a few well-spread *landmarks* live in one landmarks ×
  nodes float64 array (:meth:`landmarks`): :meth:`lower_bounds` turns it
  into the ALT triangle bound for many nodes at once, which gates every
  reachability test of the solvers (``repro.core.scoring``).
- **tier 2 — LRU fallback** (everything else, and directed networks): an
  LRU cache of full single-source Dijkstra runs plus bidirectional
  point-to-point search for one-off queries, with the pair LRU on top.

On **undirected** networks every query is canonicalised to
``(min(u, v), max(u, v))`` before touching any tier, so ``cost`` is exactly
symmetric, the pair LRU holds each unordered pair once (double the
effective capacity), and — because the CH query unpacks its up-down path
into original edges and re-accumulates from the canonical source in path
order — tiers 0 and 1 return *bit-identical* floats for every pair whose
shortest route is unique or sums exactly.  Two routes of equal real
length whose float sums round differently may leave the hierarchy on the
other one, one ulp away.  That bitwise contract is what lets the
differential fuzz harness compare tiered and untiered dispatch runs with
``==`` instead of tolerances.

Sources pinned by :meth:`warm` keep their full distance rows in one flat
float64 block (:meth:`pinned_block`; at tier 0 the APSP table is the
block), bit-identical to :func:`dijkstra` and read like the table.  The
candidate index prunes straight off it; dict views are built only for
callers of :meth:`costs_from`.

The table, the pinned rows and the eager re-pin of :meth:`invalidate` are
all filled by one batched many-source pass (:mod:`repro.roadnet.batched`):
PHAST over the epoch's contraction hierarchy, exact re-accumulation and a
verifier that proves each row equal to :func:`dijkstra`, which re-solves
only the rows it rejects.  At tier 0 the hierarchy is built for the table
and dropped; without one (directed networks, tier 2) every row is a
:func:`dijkstra`.  :meth:`hop_local_cost_fn` serves the
area cover's pair checks from the same verifier.

Disruption-epoch invalidation (:meth:`invalidate`) drops every cache,
the pair LRU included, with the CH (its cached search spaces with it) and
the landmark rows; at tier 1 it rebuilds both before it returns, so no
query pays for a contraction.  While the node set is unchanged the
rebuild starts from the last hierarchy's
:class:`~repro.roadnet.contraction.ContractionRecord` (its order, with
the witness searches re-run only where the change can reach) and keeps
the landmarks, re-filling their rows by the batched pass.

The oracle is a drop-in ``cost(u, v)`` callable, which is the only
interface the scheduling layer (Section 3) depends on.  All work is counted
(``query_count``, ``dijkstra_count``, ``bidirectional_count``,
``ch_query_count``, ``ch_space_searches``, cache hits) and summarised by
:mod:`repro.perf`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs import trace as _trace
from repro.roadnet import batched
from repro.roadnet.contraction import ContractionHierarchy, ContractionRecord
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.shortest_path import INF, bidirectional_dijkstra, dijkstra

#: below this many nodes, auto-selection never picks tier 1 — the CH build
#: is pure overhead when per-pair bidirectional searches are already cheap
TIER1_MIN_NODES = 4000

#: hop-local rows :meth:`DistanceOracle.hop_local_cost_fn` keeps as dicts;
#: the area cover checks vertices in an order whose neighbourhoods overlap,
#: so a window of recent sources serves almost every lookup
_RECENT_LOCAL_ROWS = 1024

#: one-off point-to-point results kept in the pair LRU; each entry is a
#: single float, which is what makes repeated distinct pairs affordable on
#: networks too large for the table
CACHE_PAIRS = 65536

#: :meth:`DistanceOracle.costs_from` dict views kept (LRU); each costs
#: O(|V|) on top of its row, so unbounded growth would quietly rebuild the
#: dict-of-dicts representation the table replaced
CACHE_ROWS = 1024

#: memory budget for precomputed structures, read by tier auto-selection:
#: tier 0 must fit the n² table, tier 1 the CH + landmark estimate.  Not a
#: hard cap — an explicit ``tier`` is always honoured.
MEMORY_BUDGET_MB = 256.0

#: landmarks of the tier-1 rows, read only by
#: :meth:`DistanceOracle.lower_bounds` (the reachability gate): more
#: landmarks tighten the bound and widen every gather over the rows
NUM_LANDMARKS = 16


class DistanceOracle:
    """Shortest travel-cost oracle over a road network.

    Parameters
    ----------
    network:
        The road network.  The oracle assumes the network is not mutated
        afterwards; call :meth:`invalidate` if it is.
    cache_sources:
        Maximum number of full single-source Dijkstra result dicts to keep
        (LRU).  Each entry costs O(|V|) memory.
    apsp_threshold:
        When ``len(network) <= apsp_threshold`` (and the table fits the
        memory budget), the first query triggers a full all-pairs
        precomputation (|V| Dijkstras) and all later queries are O(1)
        array reads (subject to :data:`MEMORY_BUDGET_MB`).  Set to 0 to
        disable.
    tier:
        Force a tier (0 = APSP, 1 = CH + landmarks, 2 = LRU/bidirectional)
        instead of auto-selecting.  ``tier=1`` requires an undirected
        network.
    """

    def __init__(
        self,
        network: RoadNetwork,
        cache_sources: int = 2048,
        apsp_threshold: int = 1500,
        tier: Optional[int] = None,
    ) -> None:
        if tier is not None:
            if tier not in (0, 1, 2):
                raise ValueError(f"tier must be 0, 1, or 2 (got {tier!r})")
            if tier == 1 and not network.undirected:
                raise ValueError("tier 1 (CH) requires an undirected network")
        self.network = network
        self.cache_sources = cache_sources
        self.apsp_threshold = apsp_threshold
        self._tier_override = tier
        self._tier: Optional[int] = None  # resolved lazily by .tier
        self._source_cache: "OrderedDict[int, Dict[int, float]]" = OrderedDict()
        self._pair_cache: "OrderedDict[tuple, float]" = OrderedDict()
        # node interning shared by the APSP table and the pinned block:
        # column -> node id, and node id -> column (None: ids are 0..n-1)
        self._nodes: Optional[List[int]] = None
        self._index: Optional[Dict[int, int]] = None
        self._node_ids: Optional[np.ndarray] = None  # _nodes as int64, with _index
        self._n = 0
        # APSP state: flat numpy table over interned node columns
        self._apsp: Optional[np.ndarray] = None  # shape (n*n,), float64
        self._apsp_matrix: Optional[np.ndarray] = None  # (n, n) view of it
        self._apsp_view: Optional[memoryview] = None  # python-float reads
        # pinned rows (tiers 1 and 2): one float64 block, one row per
        # pinned source, inf where unreachable; tier 0 pins read the table
        self._pin_rows: Dict[int, int] = {}  # pinned source -> block row
        self._pin_block: Optional[np.ndarray] = None  # (capacity, n)
        self._pin_view: Optional[memoryview] = None  # flat python-float reads
        # tier-1 state, built lazily on first query
        self._ch: Optional[ContractionHierarchy] = None
        # landmarks x node columns, inf where a landmark cannot reach a
        # node; the landmark node of each row alongside
        self._landmarks: Optional[np.ndarray] = None
        self._landmark_nodes: Optional[List[int]] = None
        # queries on undirected networks are canonicalised to (min, max)
        self._undirected = network.undirected
        # costs_from dict views of table/block rows, bounded like
        # _source_cache (a view is rebuilt from its row, never re-searched)
        self._row_cache: "OrderedDict[int, Dict[int, float]]" = OrderedDict()
        # sources pinned by warm(): held in the block, never evicted
        self._pinned_sources: Set[int] = set()
        # padded arc arrays of the batched pass (once per epoch)
        self._arcs: Optional[batched.ArcArrays] = None
        # the record of the last hierarchy built (None: next build is fresh)
        self._record: Optional[ContractionRecord] = None
        # counters (read by repro.perf); dijkstra_count counts every
        # dijkstra() run, batch fallbacks included
        self.query_count = 0
        self.dijkstra_count = 0
        self.batch_rows = 0
        self.batch_fallbacks = 0
        self.bidirectional_count = 0
        self.ch_query_count = 0
        # upward search spaces of the hierarchies before the current one
        self._retired_space_searches = 0
        self.pair_cache_hits = 0
        self.source_cache_hits = 0
        # nodes whose witness searches a rebuild from a record re-ran
        self.nodes_recontracted = 0
        # dijkstra() runs that pick and fill the landmark rows (kept out
        # of dijkstra_count, which counts query and batch-pass searches)
        self.landmark_rows = 0
        # whether fast_cost_fn() handed out a counter-bypassing closure —
        # when true, query_count undercounts the real query volume
        self.fast_path = False
        # bumped by invalidate(); lets holders of fast_cost_fn() closures
        # (built against the pre-invalidation table) detect staleness
        self.epoch = 0

    # ------------------------------------------------------------------
    # tier selection
    # ------------------------------------------------------------------
    @property
    def tier(self) -> int:
        """The configured tier (0 = APSP, 1 = CH + landmarks, 2 = LRU)."""
        if self._tier is None:
            if self._tier_override is not None:
                self._tier = self._tier_override
            else:
                self._tier = self._select_tier()
        return self._tier

    def _select_tier(self) -> int:
        n = len(self.network)
        budget_bytes = MEMORY_BUDGET_MB * 1e6
        if 0 < n <= self.apsp_threshold and n * n * 8 <= budget_bytes:
            return 0
        if (
            self._undirected
            and n >= TIER1_MIN_NODES
            and self._tier1_estimate_bytes() <= budget_bytes
        ):
            return 1
        return 2

    def _tier1_estimate_bytes(self) -> float:
        """Rough memory estimate for the CH and landmark structures.

        CH shortcuts empirically land near the original (directed) edge
        count on road grids, and every search-graph entry costs a dict
        slot plus an upward-list tuple.  The landmark term still prices
        the per-landmark distance dicts and goal tables of an earlier
        layout, although the rows now take 8 bytes an entry, and the
        hierarchy's search-space LRU is not priced: the estimate is kept
        so that tier auto-selection does not move.
        """
        n = len(self.network)
        m = self.network.num_edges
        ch_bytes = 2 * m * 100
        alt_bytes = NUM_LANDMARKS * n * 100
        return float(ch_bytes + alt_bytes)

    def _ensure_ch(self) -> ContractionHierarchy:
        if self._ch is None:
            # the landmark rows (the reachability gate's bound) are built
            # with the hierarchy, not in the first lower_bounds() call of
            # the stream; they come second: kept landmarks are re-filled
            # by the batched pass over this hierarchy
            self._ch = self._build_ch()
            self._ensure_landmarks()
        return self._ch

    def _build_ch(self) -> ContractionHierarchy:
        """A hierarchy over the network as it is now.

        Over the node set of the last hierarchy it is built from that
        hierarchy's record: in its order, which a metric change leaves
        valid (any order gives an exact hierarchy) and which saves
        evaluating every node's priority again, re-running only the
        witness searches the changed arcs can reach.  Otherwise it picks
        a fresh order.
        """
        network = self.network
        record = self._record
        self._intern()
        with _trace.span(
            "oracle.build_ch", nodes=len(network), kept_order=record is not None
        ) as span:
            hierarchy = ContractionHierarchy(network, record=record, column=self._index)
            span.annotate(recontracted=hierarchy.recontracted)
        if record is not None:
            self.nodes_recontracted += hierarchy.recontracted
        self._record = hierarchy.record
        return hierarchy

    def _ensure_landmarks(self) -> np.ndarray:
        if self._landmarks is None and self._landmark_nodes is not None:
            # kept landmarks: building the epoch's hierarchy re-fills
            # their rows through it (see _ensure_ch)
            self._row_hierarchy()
        if self._landmarks is None:
            kept = self._landmark_nodes
            with _trace.span(
                "oracle.build_landmarks",
                nodes=len(self.network),
                landmarks=NUM_LANDMARKS,
                kept=kept is not None,
            ) as span:
                before = self.landmark_rows
                if kept is None:
                    self._landmark_nodes, self._landmarks = self._select_landmarks()
                else:
                    self._intern()
                    rows = np.empty((len(kept), self._n))
                    self._fill_rows(kept, rows)
                    self._landmarks = rows
                span.annotate(rows=self.landmark_rows - before)
        return self._landmarks

    def _select_landmarks(self) -> Tuple[List[int], np.ndarray]:
        """Farthest-point ("avoid") sampling of :data:`NUM_LANDMARKS`
        landmarks and their :func:`dijkstra` rows.

        The first landmark is the node farthest from the first node in
        iteration order; each next one maximises the distance to its
        nearest landmark so far, ties going to the earlier node in
        iteration order.  Selection stops early once every reachable
        node is a landmark.  Every :func:`dijkstra` run here, the seed
        search included, counts in ``landmark_rows``.
        """
        network = self.network
        nodes = list(network.nodes())
        if not nodes:
            raise ValueError("cannot pick landmarks in an empty network")
        self._intern()
        seed = dijkstra(network, nodes[0])
        chosen = [max(seed, key=seed.get)]
        rows = np.empty((min(NUM_LANDMARKS, len(nodes)), self._n))
        self._write_row(dijkstra(network, chosen[0]), rows[0])
        nearest = rows[0].copy()  # distance to the nearest landmark so far
        by_order = self.columns(nodes)
        while len(chosen) < len(rows):
            score = nearest[by_order]
            score[score == INF] = -1.0
            best = int(np.argmax(score))  # the first of the farthest
            if score[best] <= 0.0:
                break  # every reachable node is already a landmark
            row = rows[len(chosen)]
            chosen.append(nodes[best])
            self._write_row(dijkstra(network, chosen[-1]), row)
            np.minimum(nearest, row, out=nearest)
        self.landmark_rows += 1 + len(chosen)  # the seed search and a row each
        return chosen, rows[: len(chosen)]

    # ------------------------------------------------------------------
    def cost(self, u: int, v: int) -> float:
        """Shortest travel cost from ``u`` to ``v`` (inf if unreachable).

        On undirected networks the query is canonicalised to
        ``(min(u, v), max(u, v))`` first, so ``cost`` is exactly symmetric
        and every tier returns the identical float for both directions.
        """
        self.query_count += 1
        if u == v:
            return 0.0
        if self._undirected and u > v:
            u, v = v, u
        tier = self.tier
        if tier == 0:
            if self._apsp is None:
                self._build_apsp()
            index = self._index
            if index is None:
                return self._apsp_view[u * self._n + v]
            return self._apsp_view[index[u] * self._n + index[v]]
        row = self._pin_rows.get(u)
        if row is not None:
            self.source_cache_hits += 1
            index = self._index
            return self._pin_view[row * self._n + (v if index is None else index[v])]
        cached = self._source_cache.get(u)
        if cached is not None:
            self._source_cache.move_to_end(u)
            self.source_cache_hits += 1
            return cached.get(v, INF)
        pair = (u, v)
        hit = self._pair_cache.get(pair)
        if hit is not None:
            self._pair_cache.move_to_end(pair)
            self.pair_cache_hits += 1
            return hit
        if tier == 1:
            self.ch_query_count += 1
            d = self._ensure_ch().cost(u, v)
        else:
            # one-off query: bidirectional is cheaper than a full Dijkstra
            self.bidirectional_count += 1
            d = bidirectional_dijkstra(self.network, u, v)
        self._pair_cache[pair] = d
        if len(self._pair_cache) > CACHE_PAIRS:
            self._pair_cache.popitem(last=False)
        return d

    __call__ = cost

    def lower_bound(self, u: int, v: int) -> float:
        """Admissible lower bound on ``cost(u, v)``: the one-node case of
        :meth:`lower_bounds` at tier 1 (``0.0`` for ``u == v`` and off
        tier 1, where :meth:`cost` is as cheap as any bound)."""
        if u == v or self.tier != 1:
            return 0.0
        return float(self.lower_bounds(np.array([self.column(u)]), v)[0])

    def lower_bounds(self, columns: np.ndarray, target: int) -> np.ndarray:
        """Admissible lower bounds on ``cost(node, target)`` for the node
        at each of ``columns`` (see :meth:`column`), as float64.

        Tier 0 serves the table entry itself, gathered in one array
        operation: on undirected networks the smaller of its two
        directions, because :meth:`cost` reads the canonical one and the
        two may differ in the last ulp.  Tier 1 serves the ALT triangle
        bound ``max_L |d(L, u) - d(L, t)|`` over :meth:`landmarks`
        (building the rows on first use); a landmark that reaches only
        one of the two nodes proves them in different components and
        gives ``inf``, which is the cost.  Tier 2 returns the trivial
        ``0.0``.  Always safe to use for feasibility pruning: no bound
        exceeds the true cost (tier 1 networks are undirected, so the
        bound holds in both directions).
        """
        if self.tier == 0:
            table = self.pinned_block()
            t = self.column(target)
            bounds = table[columns, t]
            if self._undirected:
                np.minimum(bounds, table[t, columns], out=bounds)
            return bounds
        rows = self.landmarks()
        if rows is None:
            return np.zeros(len(columns))
        # a landmark reaching neither node gives inf - inf = nan, which
        # fmax skips
        with np.errstate(invalid="ignore"):
            gap = np.abs(rows[:, columns] - rows[:, self.column(target), None])
        return np.fmax.reduce(gap, axis=0, initial=0.0)

    def landmarks(self) -> Optional[np.ndarray]:
        """The landmarks × nodes float64 array of exact landmark distances.

        Row ``i`` is :func:`dijkstra` from landmark ``i``, bit-identical,
        indexed by :meth:`column`, with ``inf`` where the landmark cannot
        reach the node.  ``None`` unless tier 1 is configured.  Built on
        first use and dropped by :meth:`invalidate`, so it is always the
        current epoch's; holders re-fetch it after an epoch change.  The
        landmarks are picked once (:meth:`_select_landmarks`) and kept
        while the node set is; a new epoch re-fills their rows with the
        batched pass (:meth:`_fill_rows`).
        """
        if self.tier != 1:
            return None
        return self._ensure_landmarks()

    def fast_cost_fn(self) -> "Callable[[int, int], float]":
        """A minimal-overhead ``cost(u, v)`` callable.

        When the network qualifies for the all-pairs table this returns a
        closure over a ``memoryview`` of the flat table (python-float reads,
        no bookkeeping per query) — the solvers' hot loops issue millions of
        cost queries, so the saved attribute lookups and counters matter.
        The closure applies the same undirected canonicalisation as
        :meth:`cost`, so both paths return bit-identical floats.
        Falls back to :meth:`cost` otherwise.
        """
        if self.tier == 0 and self._apsp is None:
            self._build_apsp()
        if self._apsp_view is None:
            return self.cost
        self.fast_path = True
        view = self._apsp_view
        n = self._n
        index = self._index

        if index is None:
            if self._undirected:

                def fast_cost(u: int, v: int) -> float:
                    if u == v:
                        return 0.0
                    if u > v:
                        u, v = v, u
                    return view[u * n + v]

            else:

                def fast_cost(u: int, v: int) -> float:
                    if u == v:
                        return 0.0
                    return view[u * n + v]

        else:
            if self._undirected:

                def fast_cost(u: int, v: int) -> float:
                    if u == v:
                        return 0.0
                    if u > v:
                        u, v = v, u
                    return view[index[u] * n + index[v]]

            else:

                def fast_cost(u: int, v: int) -> float:
                    if u == v:
                        return 0.0
                    return view[index[u] * n + index[v]]

        return fast_cost

    def costs_from(self, source: int) -> Dict[int, float]:
        """All shortest distances from ``source`` (cached).

        Table rows (tier 0) and pinned rows are handed out as lazily-built
        dict views (finite entries only, matching :func:`dijkstra`'s
        convention) under a bounded LRU; evicting a view costs a rebuild
        from its row, never a search.  Rows are direction-specific
        (distances *from* ``source``); on undirected networks
        ``cost(u, v)`` may therefore differ from ``costs_from(u)[v]`` in
        the last ulp when ``u > v`` — point queries read the canonical
        direction.
        """
        if self.tier == 0 and self._apsp is None:
            self._build_apsp()
        view = self._row_cache.get(source)
        if view is not None:
            self._row_cache.move_to_end(source)
            return view
        if self._apsp is not None:
            row = self._apsp_matrix[self.column(source)]
        else:
            slot = self._pin_rows.get(source)
            if slot is None:
                return self._search_from(source)
            self.source_cache_hits += 1
            row = self._pin_block[slot]
        values = row.tolist()
        view = {node: d for node, d in zip(self._nodes, values) if d != INF}
        self._row_cache[source] = view
        self._evict(self._row_cache, CACHE_ROWS)
        return view

    def _search_from(self, source: int) -> Dict[int, float]:
        """An unpinned source's full Dijkstra result, under the LRU."""
        cached = self._source_cache.get(source)
        if cached is not None:
            self._source_cache.move_to_end(source)
            self.source_cache_hits += 1
            return cached
        self.dijkstra_count += 1
        dist = dijkstra(self.network, source)
        self._source_cache[source] = dist
        self._evict(self._source_cache, self.cache_sources)
        return dist

    @staticmethod
    def _evict(cache: "OrderedDict", limit: int) -> None:
        """Shrink ``cache`` to ``limit`` entries, oldest first."""
        while len(cache) > limit:
            cache.popitem(last=False)

    # ------------------------------------------------------------------
    # node columns and the pinned block
    # ------------------------------------------------------------------
    def _intern(self) -> None:
        """Intern node ids to dense columns (once per epoch)."""
        if self._nodes is not None:
            return
        nodes = sorted(self.network.nodes())
        n = len(nodes)
        self._nodes = nodes
        contiguous = nodes == list(range(n))
        self._index = None if contiguous else {node: i for i, node in enumerate(nodes)}
        self._node_ids = None if contiguous else np.array(nodes, dtype=np.int64)
        self._n = n

    def column(self, node: int) -> int:
        """The column of ``node`` in the table and the pinned block."""
        self._intern()
        return node if self._index is None else self._index[node]

    def columns(self, nodes: Iterable[int]) -> np.ndarray:
        """:meth:`column` of every node (all in the network), as int64.

        When the ids are not ``0..n-1``, an integer array of ids is mapped
        in one ``searchsorted`` over the sorted ids, and an unknown id
        raises ``KeyError`` (as it does for any other iterable).
        """
        self._intern()
        index = self._index
        if isinstance(nodes, np.ndarray):
            if index is None:
                return nodes
            ids = self._node_ids
            cols = np.searchsorted(ids, nodes)
            found = ids[np.minimum(cols, len(ids) - 1)] == nodes
            if not found.all():
                raise KeyError(int(nodes[np.argmin(found)]))
            return cols
        if index is not None:
            return np.fromiter((index[node] for node in nodes), dtype=np.int64)
        return np.fromiter(nodes, dtype=np.int64)

    def _dijkstra_row(self, source: int, out: np.ndarray) -> None:
        """Write ``dijkstra(source)`` into ``out`` (inf where unreachable)."""
        self.dijkstra_count += 1
        self._write_row(dijkstra(self.network, source), out)

    def _write_row(self, dist: Dict[int, float], out: np.ndarray) -> None:
        """Write a :func:`dijkstra` result into the row ``out``."""
        out.fill(INF)
        out[self.columns(dist.keys())] = np.fromiter(
            dist.values(), dtype=np.float64, count=len(dist)
        )

    def _fill_rows(self, sources: Sequence[int], out: np.ndarray) -> None:
        """Write ``dijkstra(source)`` of every source into the rows of ``out``.

        ``out`` holds one row per source.  With a contraction
        hierarchy (:meth:`_row_hierarchy`) the rows come from the batched
        pass, :func:`~repro.roadnet.batched.chunk_rows` sources at a time:
        PHAST estimates, exact re-accumulation, verification.
        Each rejected row is re-solved with :func:`dijkstra` and counted
        in ``batch_fallbacks``.  Without a hierarchy every row is a
        :func:`dijkstra`.
        """
        fallbacks = passes = 0
        with _trace.span("oracle.fill_rows", sources=len(sources)) as span:
            hierarchy = self._row_hierarchy()
            if hierarchy is None:
                for source, row in zip(sources, out):
                    self._dijkstra_row(source, row)
            else:
                arcs = self._arc_arrays()
                columns = self.columns(sources)
                step = batched.chunk_rows(self._n)
                for lo in range(0, len(columns), step):
                    chunk = columns[lo:lo + step]
                    dist, chunk_passes = batched.exact_rows(
                        hierarchy.phast(chunk), chunk, arcs
                    )
                    passes += chunk_passes
                    rows = out[lo:lo + step]
                    rows[:] = dist.T
                    for i in np.flatnonzero(~batched.verify_rows(dist, chunk, arcs)):
                        self._dijkstra_row(sources[lo + i], rows[i])
                        fallbacks += 1
                self.batch_rows += len(columns)
                self.batch_fallbacks += fallbacks
            span.annotate(fallbacks=fallbacks, passes=passes)

    def _row_hierarchy(self) -> Optional[ContractionHierarchy]:
        """The hierarchy the batched pass sweeps, or ``None``.

        Tier 1 uses the epoch's own; tier 0 builds one for the table,
        which the caller drops with it.  Directed networks and tier 2 have
        none.
        """
        if not self._undirected or not len(self.network):
            return None
        tier = self.tier
        if tier == 1:
            return self._ensure_ch()
        if tier == 0:
            return self._build_ch()
        return None

    def _arc_arrays(self) -> batched.ArcArrays:
        self._intern()
        if self._arcs is None:
            self._arcs = batched.ArcArrays(self.network, self._nodes, self._index)
        return self._arcs

    def hop_local_cost_fn(self, hops: int) -> "Callable[[int, int], float]":
        """``cost(u, v)`` for pairs joined by a path of at most ``hops`` arcs.

        These are the only pairs the area cover
        (:func:`~repro.roadnet.kpathcover.k_shortest_path_cover`) checks.
        Tier 0 reads the table (:meth:`fast_cost_fn`).  Otherwise one
        batched hop-local pass (:func:`~repro.roadnet.batched.local_rows`)
        over every source, :func:`~repro.roadnet.batched.chunk_rows` at a
        time, tables the exact
        canonical distance of every such pair, so the cover makes no point
        query.  Rows the verifier rejects are re-solved with
        :func:`dijkstra` and counted in ``batch_fallbacks``.  Any other
        pair falls back to :meth:`cost`.
        """
        if self.tier == 0 or not len(self.network):
            return self.fast_cost_fn()
        arcs = self._arc_arrays()
        n = self._n
        step = batched.chunk_rows(n)
        dist = np.full(min(step, n) * n, INF)
        sources: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        values: List[np.ndarray] = []
        fallbacks = 0
        with _trace.span("oracle.fill_local", sources=n, hops=hops) as span:
            for lo in range(0, n, step):
                chunk = np.arange(lo, min(n, lo + step))
                cells, found, ok = batched.local_rows(chunk, arcs, hops, dist)
                rows, cols = np.divmod(cells, n)
                for i in np.flatnonzero(~ok):
                    exact = np.empty(n)
                    self._dijkstra_row(self._nodes[lo + i], exact)
                    mine = rows == i
                    found[mine] = exact[cols[mine]]
                    fallbacks += 1
                rows += lo
                keep = cols > rows if self._undirected else cols != rows
                sources.append(rows[keep])
                targets.append(cols[keep])
                values.append(found[keep])
            span.annotate(fallbacks=fallbacks)
        self.batch_rows += n
        self.batch_fallbacks += fallbacks
        # CSR by source column (cells come out sorted); a row becomes a
        # dict only while recent, so the table holds no per-pair objects
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(np.concatenate(sources), minlength=n)))
        ).tolist()
        targets_all = np.concatenate(targets)
        values_all = np.concatenate(values)
        recent: Dict[int, Dict[int, float]] = {}
        nodes = self._nodes
        index = self._index
        undirected = self._undirected
        cost = self.cost
        # at tier 1 every answer equals the CH's, so it goes into the pair
        # LRU as a point query's would: later queries between nearby nodes
        # (a vehicle and a pickup, say) still hit it
        pairs = self._pair_cache if self.tier == 1 else None
        capacity = CACHE_PAIRS

        def local_cost(u: int, v: int) -> float:
            if u == v:
                return 0.0
            if undirected and u > v:
                u, v = v, u
            if pairs is not None:
                hit = pairs.get((u, v))
                if hit is not None:
                    pairs.move_to_end((u, v))
                    return hit
            if index is not None:
                u, v = index[u], index[v]
            row = recent.get(u)
            if row is None:
                lo, hi = indptr[u], indptr[u + 1]
                row = dict(zip(targets_all[lo:hi].tolist(), values_all[lo:hi].tolist()))
                if len(recent) >= _RECENT_LOCAL_ROWS:
                    del recent[next(iter(recent))]  # oldest first
                recent[u] = row
            d = row.get(v)
            if d is None:
                return cost(nodes[u], nodes[v])
            if pairs is not None:
                pairs[nodes[u], nodes[v]] = d
                if len(pairs) > capacity:
                    pairs.popitem(last=False)
            return d

        return local_cost

    def _pin(self, sources: Iterable[int]) -> None:
        """Give every source not yet in the pinned block its own row."""
        new = [s for s in dict.fromkeys(sources) if s not in self._pin_rows]
        if not new:
            return
        self._intern()
        used = len(self._pin_rows)
        capacity = 0 if self._pin_block is None else len(self._pin_block)
        if used + len(new) > capacity:
            block = np.empty(
                (max(used + len(new), capacity + capacity // 2), self._n),
                dtype=np.float64,
            )
            if used:
                block[:used] = self._pin_block[:used]
            self._pin_block = block
            self._pin_view = memoryview(block.reshape(-1))
        self._fill_rows(new, self._pin_block[used:used + len(new)])
        for row, source in enumerate(new, start=used):
            self._pin_rows[source] = row
            # a dict row searched before the pin would duplicate the block
            self._source_cache.pop(source, None)

    def pinned_block(self) -> Optional[np.ndarray]:
        """The rows × nodes float64 matrix every pinned row lives in.

        At tier 0 this is the APSP table itself (one row per node);
        otherwise it is the block :meth:`warm` fills, ``None`` while
        nothing is pinned.  Entries are bit-identical to
        :func:`dijkstra` and hold ``inf`` where unreachable.  Index it
        with :meth:`pinned_row` and :meth:`column`.  Rows past the pinned
        ones are unused capacity.  A warm() that grows the block, an
        :meth:`unpin` and an :meth:`invalidate` replace the returned
        array, so holders compare identity to detect a new block.
        """
        if self.tier == 0:
            if self._apsp is None:
                self._build_apsp()
            return self._apsp_matrix
        return self._pin_block

    def pinned_row(self, source: int) -> int:
        """The row of pinned ``source`` in :meth:`pinned_block`."""
        if self.tier == 0:
            return self.column(source)
        return self._pin_rows[source]

    def warm(self, sources: Iterable[int]) -> None:
        """Precompute the given sources and pin them.

        Pinned rows live in one flat float64 block (at tier 0, in the
        APSP table) and are never evicted by later queries, so a
        dispatcher can warm its area centres once and keep them hot for
        the whole run.  ``cost(u, v)`` with a pinned ``u`` is one block
        read.  Pins survive :meth:`invalidate` — the rows are dropped
        with everything else and the pinned sources are recomputed
        eagerly against the mutated network, so a warmed row is never
        served stale.
        """
        sources = list(sources)
        self._pinned_sources.update(sources)
        if self.tier == 0:
            if self._apsp is None:
                self._build_apsp()
        else:
            self._pin(sources)

    def unpin(self) -> None:
        """Forget all warm() pins and free their block."""
        self._pinned_sources.clear()
        self._drop_pins()

    def _drop_pins(self) -> None:
        self._pin_rows = {}
        self._pin_block = None
        self._pin_view = None

    def invalidate(self) -> None:
        """Drop the caches a network change may have made stale; call
        after mutating the underlying network.

        Every cache goes, the pair LRU included.  warm() pins survive
        *and are recomputed eagerly*: the pinned rows are dropped with
        everything else, but each pinned source is immediately re-solved
        against the mutated network into a new block, so warmed rows are
        never silently stale and stay hot for the next frame.  Use
        :meth:`unpin` to forget the pins entirely.

        At tier 1 the hierarchy and the landmark rows are rebuilt before
        this returns, so no query (and no budgeted frame) pays for a
        contraction.  Over the same node set the rebuild starts from the
        last hierarchy's record (:meth:`_build_ch`) and keeps the
        landmarks, re-filling their rows; a changed node set drops both.

        Every call bumps :attr:`epoch`.  Holders of
        :meth:`fast_cost_fn` closures must not use them across an epoch
        change — the closure reads the pre-invalidation table.
        """
        with _trace.span(
            "oracle.invalidate",
            pinned=len(self._pinned_sources),
            tier=self._tier if self._tier is not None else -1,
        ):
            # the outgoing node set, if known: the record's (kept only
            # while the node set is) or the epoch's interned columns
            before = self._nodes if self._record is None else self._record.order
            nodes = self.network.adjacency.keys()
            if before is None or len(before) != len(nodes) or nodes != set(before):
                # a new node set: a fresh order and fresh landmarks
                self._record = None
                self._landmark_nodes = None
            self._pair_cache.clear()
            self._source_cache.clear()
            self._row_cache.clear()
            self._apsp = None
            self._apsp_matrix = None
            self._apsp_view = None
            self._drop_pins()
            self._nodes = None
            self._index = None
            self._node_ids = None
            self._n = 0
            self._arcs = None
            if self._ch is not None:
                self._retired_space_searches += self._ch.space_searches
            self._ch = None  # freed before the rebuild
            self._landmarks = None
            self.fast_path = False
            self._tier = None  # re-resolve (mutation may change the size class)
            self.epoch += 1
            if self.tier == 1 and len(self.network):
                self._ensure_ch()
            if self._pinned_sources:
                self.warm(sorted(self._pinned_sources))

    @property
    def ch_space_searches(self) -> int:
        """Upward search spaces the tier-1 hierarchies of every epoch have
        searched (the graph work behind ``ch_query_count``)."""
        ch = self._ch
        current = 0 if ch is None else ch.space_searches
        return self._retired_space_searches + current

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counter snapshot (see :mod:`repro.perf` for the typed view)."""
        return {
            "mode": self.mode,
            "nodes": len(self.network),
            "query_count": self.query_count,
            "dijkstra_count": self.dijkstra_count,
            "batch_rows": self.batch_rows,
            "batch_fallbacks": self.batch_fallbacks,
            "bidirectional_count": self.bidirectional_count,
            "ch_query_count": self.ch_query_count,
            "ch_space_searches": self.ch_space_searches,
            "pair_cache_hits": self.pair_cache_hits,
            "pair_cache_size": len(self._pair_cache),
            "nodes_recontracted": self.nodes_recontracted,
            "landmark_rows": self.landmark_rows,
            "source_cache_hits": self.source_cache_hits,
            "source_cache_size": len(self._source_cache),
            "row_cache_size": len(self._row_cache),
            "pinned_sources": len(self._pinned_sources),
            "fast_path": self.fast_path,
            "epoch": self.epoch,
            "tier": self.tier,
        }

    @property
    def mode(self) -> str:
        """``"apsp"`` once the table is built, ``"ch"`` when tier-1 queries
        are active, ``"lru"`` otherwise."""
        if self._apsp is not None:
            return "apsp"
        if self._tier == 1:
            return "ch"
        return "lru"

    # ------------------------------------------------------------------
    def _build_apsp(self) -> None:
        with _trace.span("oracle.build_apsp", nodes=len(self.network)):
            self._build_apsp_inner()

    def _build_apsp_inner(self) -> None:
        self._intern()
        n = self._n
        table = np.empty((n, n), dtype=np.float64)
        self._fill_rows(self._nodes, table)
        self._apsp_matrix = table
        self._apsp = table.reshape(-1)
        self._apsp_view = memoryview(self._apsp)  # reads yield python floats
        self._row_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistanceOracle({self.mode}, queries={self.query_count}, "
            f"dijkstras={self.dijkstra_count}, "
            f"bidirectional={self.bidirectional_count}, "
            f"ch={self.ch_query_count}, "
            f"pair_hits={self.pair_cache_hits})"
        )
