"""Spatio-temporal candidate retrieval for rider-vehicle matching.

The reachability test of EG lines 2-4
(:meth:`repro.core.scoring.SolverState.reachable_vehicles`) asks one exact
cost per rider-vehicle pair.  This module puts *sound* lower bounds in
front of it (a lower bound on the true travel cost can never cut a
feasible pair), each evaluated for a whole roster in one array
operation.  Which bounds run follows from what the oracle holds, not
from a setting:

- **the oracle's bound** (tiers 0 and 1, with or without an index) —
  :meth:`DistanceOracle.lower_bounds`: at tier 0 the exact table entry,
  which no other bound can improve on; at tier 1 the ALT bound over the
  oracle's own landmark rows.
- **the area-centre bound** (tiers 1 and 2, :class:`CandidateIndex`
  only) — a vehicle at ``l`` is bounded through the centre ``c`` of its
  area (:class:`~repro.roadnet.areas.AreaIndex`, the Algorithm-4 key
  vertices): ``cost(l, s) >= cost(c, s) - cost(c, l)`` by the triangle
  inequality (both distances *from* ``c``, so it also holds on directed
  networks).

Each bound prunes on ``t0 + LB > rt^- + eps`` with ``LB <= cost(l, s)``,
which removes only vehicles the exact test removes, later stops
included (see that method's docstring).  Pruned and full retrieval
therefore return *identical* candidate sets, and hence frame-for-frame
identical assignments (the ``prune`` fuzz modes assert this).
``audit=True`` re-checks every pruned pair with an exact cost query and
counts contradictions in :data:`repro.perf.CANDIDATE_STATS`
(``pruned_in_error``) — always zero.

**Layout.**  A roster's node columns and start times live in one
:class:`VehicleColumns` view, which
:class:`~repro.core.scoring.SolverState` keeps per roster; the same view
runs the GBS fast vehicle filter (Section 6.2).  The index keeps no
vehicles, only per-node tables (centre row, centre distance,
boundedness) derived from the oracle's pinned block and re-derived
whenever the oracle's ``epoch`` or block changes, so a metric change
needs no call into it.  A rider's prune gathers those tables at the
view's columns for the centre bound, then applies the oracle's bound to
the survivors only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
#: roster behind the oracle's bound alone; ``"spatial"`` and
#: ``"spatiotemporal"`` both retrieve through a :class:`CandidateIndex`,
#: whose bounds follow from what the oracle holds.
CANDIDATE_MODES = ("full", "spatial", "spatiotemporal")


class CandidateIndex:
    """The area-centre bound over a roster view.

    Parameters
    ----------
    network:
        The road network vehicles move on.
    areas:
        Area partition of the network; its centres are pinned in the
        oracle and bound every vehicle of their area.
    oracle:
        Distance oracle *shared with the dispatcher/solvers*; centre rows
        are read from its pinned block, and its ``epoch`` tells when a
        metric change (a disruption) has made the derived tables stale.
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
        # per-node tables derived from the oracle's block (see _tables)
        self._epoch = -1
        self._block: Optional[np.ndarray] = None
        self._node_row = self._node_dcl = self._node_bounded = None

    # ------------------------------------------------------------------
    # the oracle's block and the per-node tables derived from it
    # ------------------------------------------------------------------
    def _tables(self) -> Optional[np.ndarray]:
        """The oracle's current block, re-deriving the tables on change.

        A node's centre row, centre distance and boundedness (off-area
        nodes and nodes their centre cannot reach are never spatially
        pruned) are pure functions of the node in one epoch, so they are
        tabled per node column and gathered at the view's columns at
        prune time.  ``None`` at tier 0, where the oracle's own bound is
        the exact cost and the centre bound could prune nothing more.
        """
        oracle = self.oracle
        if oracle.tier == 0:
            return None
        block = oracle.pinned_block()
        if block is not None and block is self._block and oracle.epoch == self._epoch:
            return block
        oracle.warm(self.areas.centers)  # no-op for rows already pinned
        block = oracle.pinned_block()
        self._node_row, self._node_dcl, self._node_bounded = (
            self._center_tables(block)
        )
        self._block = block
        self._epoch = oracle.epoch
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
                continue  # off-area node: never spatially pruned
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
    # retrieval
    # ------------------------------------------------------------------
    def prune(self, rider: Rider, view: "VehicleColumns") -> List[Vehicle]:
        """The vehicles of ``view`` that could still make the pickup.

        A sound filter: the result, in roster order, contains every
        vehicle :meth:`SolverState.reachable_vehicles` would keep.  The
        centre bound runs over the whole roster, then the oracle's bound
        (:meth:`VehicleColumns.reachable`) over its survivors.
        """
        block = self._tables()
        late = None
        if block is not None:
            cols = view.cols
            late = self._node_bounded[cols] & (
                view.t0 + block[self._node_row[cols], self.oracle.column(rider.source)]
                - self._node_dcl[cols] > rider.pickup_deadline + _EPS
            )
        keep = view.survivors(rider, late)
        if self.audit:
            self._audit(rider, view, keep)
        vehicles = view.vehicles
        return [vehicles[k] for k in keep.tolist()]

    def _audit(self, rider: Rider, view: "VehicleColumns", keep: np.ndarray) -> None:
        """Count pruned pairs an exact cost query finds reachable."""
        pruned = np.ones(len(view.vehicles), dtype=np.bool_)
        pruned[keep] = False
        deadline = rider.pickup_deadline + _EPS
        for k in np.flatnonzero(pruned).tolist():
            location = view.vehicles[k].location
            if float(view.t0[k]) + self.oracle.cost(location, rider.source) <= deadline:
                CANDIDATE_STATS.pruned_in_error += 1


def build_candidate_index(
    network: RoadNetwork,
    oracle: Optional[DistanceOracle] = None,
    k: int = 8,
    cover: Optional[Iterable[int]] = None,
    search_budget: Optional[int] = None,
    audit: bool = False,
) -> CandidateIndex:
    """Build a :class:`CandidateIndex` (areas + centre rows).

    Offline road-network preprocessing: the area cover is computed with
    ``oracle``'s own distances (no second oracle is built) and the area
    centres are pinned in it, so retrieval never pays a Dijkstra at solve
    time.  The oracle's own bound (the exact table entry at tier 0, its
    landmark rows at tier 1) needs nothing from the index.
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


# ----------------------------------------------------------------------
# one vehicle list's columns
# ----------------------------------------------------------------------
class VehicleColumns:
    """One vehicle list's node columns, for the array filters over it.

    :class:`~repro.core.scoring.SolverState` keeps one per roster, with
    the vehicles' start times ``t0``, for every reachability test
    (:meth:`reachable`, or :meth:`CandidateIndex.prune` over it); and
    :func:`repro.core.grouping.run_grouping` one per call for the GBS
    group filter (:meth:`filter`).  Either filter runs over every vehicle
    in one array operation and returns its survivors in list order.
    ``start_time`` is the frame's ``t̄``, so ``t0 = max(t̄, ready_time)``
    (:meth:`~repro.core.instance.URRInstance.vehicle_start_time` for
    every vehicle at once); the group filter needs none.  The columns
    are the oracle's in ``epoch``; holders rebuild the view after an
    epoch change.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        vehicles: Sequence[Vehicle],
        start_time: Optional[float] = None,
    ) -> None:
        self.vehicles = vehicles
        self.oracle = oracle
        self.epoch = oracle.epoch
        self.cols = oracle.columns(
            np.fromiter(
                (v.location for v in vehicles), dtype=np.int64, count=len(vehicles)
            )
        )
        self.t0: Optional[np.ndarray] = None
        if start_time is not None:
            ready = np.fromiter(
                (_NEG_INF if v.ready_time is None else v.ready_time for v in vehicles),
                dtype=np.float64, count=len(vehicles),
            )
            self.t0 = np.maximum(ready, start_time)

    def reachable(self, rider: Rider) -> List[Vehicle]:
        """Vehicles the oracle's bound cannot prove late for the pickup.

        See :meth:`~repro.core.scoring.SolverState.reachable_vehicles`
        for why the bound keeps every vehicle the exact test keeps.
        Off tiers 0 and 1 the oracle has no bound: every vehicle is
        returned and nothing is counted.
        """
        if self.oracle.tier == 2:
            return list(self.vehicles)
        vehicles = self.vehicles
        return [vehicles[k] for k in self.survivors(rider).tolist()]

    def survivors(
        self, rider: Rider, late: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Positions (ascending) of the vehicles neither ``late`` (the
        caller's own bound, if any) nor the oracle's bound drops."""
        stats = CANDIDATE_STATS
        stats.retrievals += 1
        stats.pairs_considered += len(self.vehicles)
        cols, t0 = self.cols, self.t0
        if late is not None:
            keep = np.flatnonzero(~late)
            stats.pairs_pruned_spatial += len(late) - len(keep)
            cols, t0 = cols[keep], t0[keep]
        if self.oracle.tier == 2 or not len(cols):
            return np.arange(len(cols)) if late is None else keep
        passed = np.flatnonzero(
            t0 + self.oracle.lower_bounds(cols, rider.source)
            <= rider.pickup_deadline + _EPS
        )
        stats.pairs_pruned_temporal += len(cols) - len(passed)
        return passed if late is None else keep[passed]

    def filter(self, row: np.ndarray, bound: float, slack: float) -> List[Vehicle]:
        """Vehicles passing ``d(u_x, l) - bound < slack + eps``.

        ``row`` is the group centre's distance row (``inf`` where
        unreachable); the result is identical to applying the predicate
        to every vehicle in order.
        """
        stats = CANDIDATE_STATS
        stats.retrievals += 1
        stats.pairs_considered += len(self.vehicles)
        keep = np.flatnonzero(row[self.cols] - bound < slack + _EPS).tolist()
        stats.pairs_pruned_spatial += len(self.vehicles) - len(keep)
        return [self.vehicles[k] for k in keep]
