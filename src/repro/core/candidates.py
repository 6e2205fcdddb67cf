"""Spatio-temporal candidate retrieval for rider-vehicle matching.

Every solver's retrieval step used to touch all ``m x n`` rider-vehicle
pairs before the per-pair reachability test could discard anything.  This
module replaces that all-pairs scan with an incremental index over vehicle
positions, pruned by *sound* lower bounds (a lower bound on the true
travel cost can never cut a feasible pair).  Which bounds run follows
from what the oracle holds, not from a setting:

- **exact** (tier 0) — the oracle's block is the APSP table, so every
  vehicle at ``l`` is bounded by its own table entry: ``cost(l, s)``
  itself, the tightest sound bound, read in one gather.  On undirected
  networks the smaller of the two directions is used, because
  :meth:`DistanceOracle.cost` reads the canonical one and the two may
  differ in the last ulp.  No other bound can prune more, so none runs.
- **spatial** (tiers 1 and 2) — every vehicle is bounded through the
  centre ``c`` of the area of its current location
  (:class:`~repro.roadnet.areas.AreaIndex`, the Algorithm-4 key
  vertices).  The triangle inequality in the current metric gives
  ``cost(l, s) >= cost(c, s) - cost(c, l)`` for a vehicle at ``l`` and a
  pickup at ``s`` (both distances *from* ``c``, so the bound also holds
  on directed networks).
- **temporal** (tier 1) — the survivors pass the same landmark gate as
  every reachability test (:meth:`DistanceOracle.lower_bounds`, the ALT
  bound ``max_L |d(L, s) - d(L, l)| <= cost(l, s)`` over the oracle's
  own landmark rows, undirected networks only).

A pruned pair is exactly a pair the exact reachability test
(:meth:`repro.core.scoring.SolverState.reachable_vehicles`) would also
discard: each bound is ``t0 + LB > rt^- + eps`` with ``LB <= cost(l, s)``,
which that method's docstring shows removes only vehicles the exact test
removes, later stops included.  Pruned and full retrieval therefore
return *identical* candidate sets (and hence frame-for-frame identical
assignments; the ``prune`` fuzz modes assert this).  ``audit=True``
re-checks every pruned pair with an exact cost query and counts
contradictions in :data:`repro.perf.CANDIDATE_STATS` (``pruned_in_error``)
— always zero.

**Layout.**  The area centres are pinned in the oracle, so their rows live
in one float64 block (:meth:`DistanceOracle.pinned_block`; at tier 0 the
APSP table itself).  The index keeps one slot per tracked vehicle in
parallel arrays — node column and ready time — in retrieval-rank order,
and a rider's prune is one array kernel: the exact bound
``t0 + block[col(l), col(s)]`` (tier 0) or the centre bound
``t0 + block[row(c), col(s)] - d(c, l)`` for every slot at once, then the
landmark gate for the survivors only.
There are no whole-area skips: the per-vehicle bound already prunes
every vehicle an area-level bound would.

The index is maintained *incrementally*: the dispatcher inserts the fleet
once, updates each vehicle's slot in place as the clock rolls it forward,
and only re-derives distances after a disruption invalidates the oracle
(:meth:`CandidateIndex.resync`, keyed off the oracle's ``epoch``).  There
is no per-frame rebuild.

:class:`VehicleColumns` runs the two filters that need no index over a
vehicle list's node columns: the landmark gate of a reachability test
without an index, and the GBS fast vehicle filter (Section 6.2), one
array operation over a trip group centre's row of the same block.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import trace as _trace
from repro.perf import CANDIDATE_STATS
from repro.core.requests import Rider
from repro.core.vehicles import Vehicle
from repro.roadnet.areas import AreaIndex, build_areas
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import INF

_EPS = 1e-9
_NEG_INF = float("-inf")

#: The dispatcher's ``candidate_mode`` names: ``"full"`` builds no index
#: (no area cover): every rider's reachability test runs over the whole
#: fleet, behind the landmark gate at tier 1; ``"spatial"`` and
#: ``"spatiotemporal"`` both retrieve through a :class:`CandidateIndex`,
#: whose bounds follow from what the oracle holds.
CANDIDATE_MODES = ("full", "spatial", "spatiotemporal")

#: Per-slot arrays of :class:`CandidateIndex`: node id, node column and
#: ready time (-inf when None).  Everything else a slot needs is a pure
#: function of its column and is read from the per-node tables.
_SLOT_FIELDS = (
    ("_loc", np.int64),
    ("_col", np.int64),
    ("_ready", np.float64),
)


class CandidateIndex:
    """Incremental spatio-temporal index over vehicle positions.

    Parameters
    ----------
    network:
        The road network vehicles move on.
    areas:
        Area partition of the network; its centres are pinned in the
        oracle and bound every vehicle of their area.
    oracle:
        Distance oracle *shared with the dispatcher/solvers*; centre rows
        (at tier 0, exact costs) are read from its pinned block, its
        ``epoch`` detects metric changes (disruptions) that make the
        stored distances stale, and its landmark rows (tier 1) feed the
        landmark gate.
    audit:
        Re-check every pruned pair with an exact cost query and count
        contradictions in ``CANDIDATE_STATS.pruned_in_error``.  Debug /
        fuzzing hook — it pays one exact query per pruned pair and must
        stay off on hot paths.
    """

    def __init__(
        self,
        network: RoadNetwork,
        areas: AreaIndex,
        oracle: DistanceOracle,
        audit: bool = False,
    ) -> None:
        self.network = network
        self.areas = areas
        self.oracle = oracle
        self.audit = audit
        self._epoch = oracle.epoch
        # slots in retrieval-rank order (greedy heaps tie-break on the
        # caller's fleet order, so vehicles keep their insertion rank)
        self._slot: Dict[int, int] = {}
        self._vids: List[int] = []
        self._size = 0
        for name, dtype in _SLOT_FIELDS:
            setattr(self, name, np.empty(0, dtype=dtype))
        # per-node tables derived from the oracle's block (see _tables)
        self._block: Optional[np.ndarray] = None
        self._node_row = self._node_dcl = self._node_bounded = None
        self._exact = False  # tier 0: the block is the APSP table
        self._landmarked = False  # tier 1: the landmark gate runs

    # ------------------------------------------------------------------
    # the oracle's block and the per-node tables derived from it
    # ------------------------------------------------------------------
    def _tables(self) -> np.ndarray:
        """The oracle's current block, re-deriving the tables on change.

        A node's centre row, centre distance and boundedness (off-area
        nodes and nodes their centre cannot reach are never spatially
        pruned) are pure functions of the node in one epoch, so they are
        tabled per node column and gathered by slot column at prune time.
        At tier 0 no node table is needed: the kernel reads the exact
        cost from the table.
        """
        oracle = self.oracle
        block = oracle.pinned_block()
        if block is not None and block is self._block:
            return block
        oracle.warm(self.areas.centers)  # no-op for rows already pinned
        block = oracle.pinned_block()
        self._exact = oracle.tier == 0
        if not self._exact:
            self._node_row, self._node_dcl, self._node_bounded = (
                self._center_tables(block)
            )
        self._landmarked = oracle.landmarks() is not None
        self._col[: self._size] = oracle.columns(self._loc[: self._size])
        self._block = block
        return block

    def _center_tables(
        self, block: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        oracle = self.oracle
        n = block.shape[1]
        node_row = np.zeros(n, dtype=np.int64)
        has_center = np.zeros(n, dtype=np.bool_)
        center_of = self.areas.center_of
        center_rows: Dict[int, int] = {}
        covered: List[int] = []
        rows: List[int] = []
        for node in self.network.nodes():
            try:
                center = center_of(node)
            except KeyError:
                continue  # off-area node: tracked, never spatially pruned
            row = center_rows.get(center)
            if row is None:
                row = center_rows[center] = oracle.pinned_row(center)
            covered.append(node)
            rows.append(row)
        cols = oracle.columns(covered)
        node_row[cols] = rows
        has_center[cols] = True
        node_dcl = block[node_row, np.arange(n)]
        bounded = has_center & (node_dcl != INF)
        node_dcl[~bounded] = 0.0
        return node_row, node_dcl, bounded

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, vehicle_id: int) -> bool:
        return vehicle_id in self._slot

    def tracked_ids(self):
        """View of the tracked vehicle ids (for fast-path validation)."""
        return self._slot.keys()

    def insert(
        self, vehicle_id: int, location: int, ready_time: Optional[float] = None
    ) -> None:
        """Insert or move one vehicle (upsert; no-op when unchanged)."""
        ready = _NEG_INF if ready_time is None else float(ready_time)
        self._tables()
        slot = self._slot.get(vehicle_id)
        if slot is None:
            slot = self._size
            if slot == len(self._loc):
                self._grow()
            self._slot[vehicle_id] = slot
            self._vids.append(vehicle_id)
            self._size += 1
        elif self._loc[slot] == location and self._ready[slot] == ready:
            return
        self._loc[slot] = location
        self._col[slot] = self.oracle.column(location)
        self._ready[slot] = ready

    #: Per-frame maintenance and insertion are the same upsert.
    update = insert

    def _grow(self) -> None:
        capacity = max(16, 2 * len(self._loc))
        for name, dtype in _SLOT_FIELDS:
            grown = np.zeros(capacity, dtype=dtype)
            grown[: self._size] = getattr(self, name)[: self._size]
            setattr(self, name, grown)

    def remove(self, vehicle_id: int) -> None:
        """Drop one vehicle (breakdowns); unknown ids are ignored.

        Later slots shift down one place, so slot order stays rank order.
        """
        slot = self._slot.pop(vehicle_id, None)
        if slot is None:
            return
        last = self._size - 1
        for name, _dtype in _SLOT_FIELDS:
            arr = getattr(self, name)
            arr[slot:last] = arr[slot + 1 : last + 1]
        del self._vids[slot]
        self._size = last
        for k in range(slot, last):
            self._slot[self._vids[k]] = k

    def resync(
        self, fleet: Iterable[Tuple[int, int, Optional[float]]]
    ) -> None:
        """Reconcile with ``(vehicle_id, location, ready_time)`` triples.

        Call after disruptions: vehicles missing from ``fleet`` are
        dropped (breakdowns) and every survivor is re-upserted.  When the
        oracle's ``epoch`` moved (travel-time perturbations, closures)
        every slot's centre distance is re-derived from the fresh block
        and the landmark rows are re-read from the oracle — lower
        bounds computed in the old metric are not sound in the new one (a
        perturbation may *shorten* edges).  Vehicles keep their retrieval
        order.
        """
        triples = list(fleet)
        if self.oracle.epoch != self._epoch:
            self._epoch = self.oracle.epoch
            self._block = None  # re-derive every table and slot
        keep = {vid for vid, _loc, _ready in triples}
        for vid in [v for v in self._slot if v not in keep]:
            self.remove(vid)
        for vid, location, ready_time in triples:
            self.insert(vid, location, ready_time)

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def prune(
        self,
        rider: Rider,
        vehicles: Sequence[Vehicle],
        start_time: float,
        vehicles_by_id: Optional[Dict[int, Vehicle]] = None,
        assume_tracked: bool = False,
    ) -> List[Vehicle]:
        """Vehicles that could still make the rider's pickup deadline.

        A sound superset-preserving filter: the result contains every
        vehicle :meth:`SolverState.reachable_vehicles` would keep, in the
        caller's order.  With ``assume_tracked=True`` (caller verified
        ``vehicles`` is exactly the tracked fleet and supplied the id
        map) the kernel runs over the stored slots and returns survivors
        in rank order; otherwise it bounds ``vehicles`` as given, in
        input order.
        """
        if self.oracle.epoch != self._epoch:
            raise RuntimeError(
                "CandidateIndex is stale: the oracle's epoch changed "
                "(network mutated); resync() with the current fleet first"
            )
        stats = CANDIDATE_STATS
        stats.retrievals += 1
        stats.pairs_considered += len(vehicles)
        if not self._slot:
            return list(vehicles)
        deadline = rider.pickup_deadline + _EPS
        self._tables()
        if assume_tracked and vehicles_by_id is not None:
            size = self._size
            keep = self._kernel(
                rider.source, deadline, start_time, self._loc[:size],
                self._col[:size], self._ready[:size],
            )
            vids = self._vids
            return [vehicles_by_id[vids[k]] for k in keep.tolist()]
        locs = np.fromiter(
            (v.location for v in vehicles), dtype=np.int64, count=len(vehicles)
        )
        ready = np.array(
            [_NEG_INF if v.ready_time is None else v.ready_time for v in vehicles],
            dtype=np.float64,
        )
        keep = self._kernel(
            rider.source, deadline, start_time, locs,
            self.oracle.columns(locs), ready,
        )
        return [vehicles[k] for k in keep.tolist()]

    def _kernel(
        self,
        source: int,
        deadline: float,
        start_time: float,
        locs: np.ndarray,
        cols: np.ndarray,
        ready: np.ndarray,
    ) -> np.ndarray:
        """Positions (ascending) of the vehicles neither bound prunes."""
        stats = CANDIDATE_STATS
        source_col = self.oracle.column(source)
        t0 = np.maximum(ready, start_time)
        block = self._block
        if self._exact:
            # pinned_row(node) is the node's column at tier 0
            dist = block[cols, source_col]
            if self.network.undirected:
                # cost(l, s) reads the canonical direction of the table;
                # the smaller of the two directions never exceeds it
                np.minimum(dist, block[source_col, cols], out=dist)
            spatial = t0 + dist > deadline
        else:
            spatial = self._node_bounded[cols] & (
                t0 + block[self._node_row[cols], source_col]
                - self._node_dcl[cols] > deadline
            )
        keep = np.flatnonzero(~spatial)
        stats.pairs_pruned_spatial += len(cols) - len(keep)
        if self._landmarked and len(keep):
            temporal = _late(self.oracle, source, deadline, cols[keep], t0[keep])
            if temporal.any():
                keep = keep[~temporal]
                stats.pairs_pruned_temporal += int(np.count_nonzero(temporal))
        if self.audit:
            pruned = np.ones(len(cols), dtype=np.bool_)
            pruned[keep] = False
            for k in np.flatnonzero(pruned).tolist():
                t0_k = float(t0[k])
                if t0_k + self.oracle.cost(int(locs[k]), source) <= deadline:
                    stats.pruned_in_error += 1
        return keep

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CandidateIndex(vehicles={len(self)}, "
            f"areas={self.areas.num_areas}, landmarked={self._landmarked})"
        )


def build_candidate_index(
    network: RoadNetwork,
    oracle: Optional[DistanceOracle] = None,
    k: int = 8,
    cover: Optional[Iterable[int]] = None,
    search_budget: Optional[int] = None,
    audit: bool = False,
) -> CandidateIndex:
    """Build a :class:`CandidateIndex` (areas + centre rows + landmarks).

    Offline road-network preprocessing: the area cover is computed with
    ``oracle``'s own distances (no second oracle is built) and the area
    centres are pinned in it, so retrieval never pays a Dijkstra at solve
    time.  At tier 0 the index bounds by the exact table entry; at tier 1
    the landmark bound reads the oracle's own landmark rows, so no second
    copy of them is built.
    """
    if oracle is None:
        oracle = DistanceOracle(network)
    with _trace.span("candidates.build", nodes=len(network), k=k) as span:
        areas = build_areas(
            network, k, cover=cover, search_budget=search_budget,
            oracle=oracle,
        )
        oracle.warm(areas.centers)
        index = CandidateIndex(network, areas, oracle, audit=audit)
        landmarks = oracle.landmarks()
        span.annotate(
            areas=areas.num_areas,
            landmarks=0 if landmarks is None else len(landmarks),
        )
        return index


def _late(
    oracle: DistanceOracle,
    source: int,
    deadline: float,
    cols: np.ndarray,
    t0: np.ndarray,
) -> np.ndarray:
    """The landmark gate: where ``t0 + LB(col, source) > deadline``."""
    return t0 + oracle.lower_bounds(cols, source) > deadline


# ----------------------------------------------------------------------
# filters over one vehicle list, without an index
# ----------------------------------------------------------------------
class VehicleColumns:
    """One vehicle list's node columns, for the array filters over it.

    :class:`~repro.core.scoring.SolverState` keeps one per roster for the
    landmark gate of its reachability tests (:meth:`reachable`), and
    :func:`repro.core.grouping.run_grouping` one per call for the GBS
    group filter (:meth:`filter`).  Either filter runs over every
    vehicle in one array operation and returns its survivors in list
    order.  The columns are the oracle's in ``epoch``; holders rebuild
    the view after an epoch change.
    """

    def __init__(self, oracle: DistanceOracle, vehicles: Sequence[Vehicle]) -> None:
        self.vehicles = vehicles
        self.oracle = oracle
        self.epoch = oracle.epoch
        self._cols = oracle.columns(
            np.fromiter(
                (v.location for v in vehicles), dtype=np.int64, count=len(vehicles)
            )
        )
        self._t0: Optional[np.ndarray] = None  # start times, on first gate

    def reachable(
        self, rider: Rider, start_time: Callable[[Vehicle], float]
    ) -> List[Vehicle]:
        """Vehicles the landmark gate cannot prove late for the pickup.

        ``start_time`` gives a vehicle's ``t0``
        (:meth:`~repro.core.instance.URRInstance.vehicle_start_time`);
        see :meth:`~repro.core.scoring.SolverState.reachable_vehicles`
        for why the gate keeps every vehicle the exact test keeps.
        """
        vehicles = self.vehicles
        if self._t0 is None:
            self._t0 = np.fromiter(
                (start_time(v) for v in vehicles), dtype=np.float64,
                count=len(vehicles),
            )
        stats = CANDIDATE_STATS
        stats.retrievals += 1
        stats.pairs_considered += len(vehicles)
        late = _late(
            self.oracle, rider.source, rider.pickup_deadline + _EPS,
            self._cols, self._t0,
        )
        keep = np.flatnonzero(~late).tolist()
        stats.pairs_pruned_temporal += len(vehicles) - len(keep)
        return [vehicles[k] for k in keep]

    def filter(self, row: np.ndarray, bound: float, slack: float) -> List[Vehicle]:
        """Vehicles passing ``d(u_x, l) - bound < slack + eps``.

        ``row`` is the group centre's distance row (``inf`` where
        unreachable); the result is identical to applying the predicate
        to every vehicle in order.
        """
        stats = CANDIDATE_STATS
        stats.retrievals += 1
        stats.pairs_considered += len(self.vehicles)
        keep = np.flatnonzero(row[self._cols] - bound < slack + _EPS).tolist()
        stats.pairs_pruned_spatial += len(self.vehicles) - len(keep)
        return [self.vehicles[k] for k in keep]
