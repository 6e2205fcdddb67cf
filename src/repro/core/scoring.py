"""Shared solver machinery: pair evaluation and mutable solver state.

Every heuristic (CF, BA, EG, GBS) repeats the same inner step: *what happens
if rider ``r_i`` is inserted into vehicle ``c_j``'s current schedule?*
:func:`evaluate_pair` answers with the best non-reordered insertion
(Algorithm 1), its incremental travel cost ``Δcost`` and incremental
schedule utility ``Δmu``; :class:`SolverState` tracks the evolving schedules
and caches per-vehicle utilities so ``Δmu`` costs one schedule evaluation
instead of two.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.insertion import (
    InsertionPlan,
    InsertionResult,
    arrange_single_rider,
    plan_insertion,
)
from repro.core.instance import LazySchedules, URRInstance
from repro.core.requests import Rider
from repro.core.schedule import TransferSequence
from repro.core.utility import UtilityModel
from repro.core.vehicles import Vehicle

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.candidates import CandidateIndex


@dataclass
class PairEvaluation:
    """Outcome of tentatively inserting a rider into a vehicle's schedule."""

    rider: Rider
    vehicle: Vehicle
    insertion: InsertionResult
    delta_cost: float
    delta_utility: float

    @property
    def efficiency(self) -> float:
        """Utility efficiency ``f_ij`` (Eq. 9).

        Zero-cost insertions (the rider lies exactly on the route) are
        infinitely efficient; ties are broken by ``delta_utility`` at the
        call sites.
        """
        if self.delta_cost <= 1e-12:
            return float("inf")
        return self.delta_utility / self.delta_cost


class SolverState:
    """Mutable per-solver view: current schedules + cached utilities.

    With ``validate=True`` every schedule adopted through :meth:`commit` or
    :meth:`replace_schedule` is re-checked by the independent
    :func:`repro.check.validate_schedule` oracle (fresh oracle calls, no
    shared code with the incremental arrays) and a
    :class:`repro.check.ValidationError` is raised at the first violation.
    This is a debug hook: it multiplies the per-commit cost and must stay
    off on hot paths.
    """

    def __init__(
        self,
        instance: URRInstance,
        model: Optional[UtilityModel] = None,
        validate: bool = False,
        schedules: Optional[LazySchedules] = None,
    ) -> None:
        self.instance = instance
        self.model = model or instance.utility_model()
        self.validate = validate
        # materialized on demand: a frame only ever builds the schedules
        # it actually reads, so solver setup is O(touched), not O(fleet).
        # An existing map may be injected (shard reconciliation continues
        # solving over the merged per-shard schedules).
        self.schedules: LazySchedules = (
            schedules if schedules is not None else LazySchedules(instance)
        )
        # lazily filled: a carried-over vehicle starts with a non-empty
        # seeded schedule whose utility must be computed, not assumed 0
        self._utility_cache: Dict[int, Optional[float]] = {}
        # candidate-retrieval cache, keyed by vehicle-list identity: the
        # id map and the "is this exactly the index's tracked fleet?"
        # check are paid once per distinct list, not once per rider
        self._candidate_view: Optional[
            Tuple[Iterable[Vehicle], Dict[int, Vehicle], bool]
        ] = None

    # ------------------------------------------------------------------
    def schedule(self, vehicle_id: int) -> TransferSequence:
        return self.schedules[vehicle_id]

    def plan(self, rider: Rider, vehicle: Vehicle) -> Optional[InsertionPlan]:
        """Zero-copy probe: the best insertion's positions and delta cost.

        Nothing is materialised — use when only feasibility or the
        incremental travel cost is needed (CF's ranking, reachability
        refinement, admission control).
        """
        return plan_insertion(self.schedules[vehicle.vehicle_id], rider)

    def utility(self, vehicle_id: int) -> float:
        """Cached ``mu(S_j)`` of the vehicle's current schedule."""
        cached = self._utility_cache.get(vehicle_id)
        if cached is None:
            cached = self.model.schedule_utility(
                self.instance.vehicle(vehicle_id), self.schedules[vehicle_id]
            )
            self._utility_cache[vehicle_id] = cached
        return cached

    def total_utility(self) -> float:
        return sum(self.utility(vid) for vid in self.schedules)

    def evaluate(
        self, rider: Rider, vehicle: Vehicle, with_utility: bool = True
    ) -> Optional[PairEvaluation]:
        """Best insertion of ``rider`` into ``vehicle``'s current schedule.

        Returns ``None`` when no valid insertion exists.  With
        ``with_utility=False`` the (comparatively expensive) schedule
        utility is skipped and ``delta_utility`` is reported as 0.0 — the
        CF baseline orders pairs purely by travel cost, which is exactly
        why the paper finds it the fastest approach.
        """
        seq = self.schedules[vehicle.vehicle_id]
        insertion = arrange_single_rider(seq, rider)
        if insertion is None:
            return None
        if with_utility:
            new_utility = self.model.schedule_utility(vehicle, insertion.sequence)
            delta_utility = new_utility - self.utility(vehicle.vehicle_id)
        else:
            delta_utility = 0.0
        return PairEvaluation(
            rider=rider,
            vehicle=vehicle,
            insertion=insertion,
            delta_cost=insertion.delta_cost,
            delta_utility=delta_utility,
        )

    def commit(self, evaluation: PairEvaluation) -> None:
        """Adopt the evaluated insertion as the vehicle's new schedule.

        The cached schedule utility is invalidated rather than updated, so
        utility-blind solvers (CF) never pay for utility evaluation; the
        next :meth:`utility` call recomputes exactly."""
        vid = evaluation.vehicle.vehicle_id
        self.schedules[vid] = evaluation.insertion.sequence
        self._utility_cache[vid] = None
        if self.validate:
            self._validate_schedule(vid)

    def replace_schedule(self, vehicle_id: int, sequence: TransferSequence) -> None:
        """Set a vehicle's schedule directly (BA's replace operation)."""
        self.schedules[vehicle_id] = sequence
        self._utility_cache[vehicle_id] = self.model.schedule_utility(
            self.instance.vehicle(vehicle_id), sequence
        )
        if self.validate:
            self._validate_schedule(vehicle_id)

    def _validate_schedule(self, vehicle_id: int) -> None:
        """Debug hook: independently re-validate one vehicle's schedule."""
        # imported lazily: repro.check depends on repro.core, not vice versa
        from repro.check.validator import validate_schedule

        validate_schedule(
            self.instance, vehicle_id, self.schedules[vehicle_id]
        ).raise_if_invalid()

    # ------------------------------------------------------------------
    def reachable_vehicles(self, rider: Rider, vehicles: Iterable[Vehicle]) -> List[Vehicle]:
        """Vehicles that could possibly pick the rider up in time.

        The coarse filter of EG lines 2–4 (conditions a/b of Lemma 3.1
        against the *current vehicle location*): the vehicle must be able to
        reach the rider's source before the pickup deadline even with an
        empty schedule detour, i.e.
        ``t̄ + cost(l(c_j), s_i) <= rt_i^-`` is necessary only for empty
        schedules, so we use the weaker necessary condition that *some*
        event could still reach the source in time — the earliest start of
        the vehicle's first event is ``t̄``, giving
        ``t̄ + cost(l(c_j), s_i) <= rt_i^-`` OR the schedule already passes
        nearby later; we keep the simple location-based test plus a
        fallback on the schedule's stops.

        When the instance carries a
        :class:`~repro.core.candidates.CandidateIndex`, retrieval first
        narrows ``vehicles`` through its sound spatio-temporal prune —
        every vehicle this exact test would keep survives the prune, so
        the returned list is identical either way (order included).
        """
        index = self.instance.candidates
        if index is not None:
            vehicles = self._retrieve_candidates(rider, vehicles, index)
        cost = self.instance.cost
        start_time = self.instance.vehicle_start_time
        schedules = self.schedules
        deadline = rider.pickup_deadline
        result: List[Vehicle] = []
        for vehicle in vehicles:
            # per-vehicle availability: a carried-over vehicle is busy
            # finishing its in-flight leg until its ready time
            t0 = start_time(vehicle)
            if t0 + cost(vehicle.location, rider.source) <= deadline + 1e-9:
                result.append(vehicle)
                continue
            # the vehicle may still reach the source from a later stop;
            # a schedule nobody built has stops only when some are
            # committed, so no other schedule is built here
            seq = schedules.peek(vehicle.vehicle_id)
            if seq is None:
                if not vehicle.committed_stops:
                    continue
                seq = schedules[vehicle.vehicle_id]
            for idx, stop in enumerate(seq.stops):
                if seq.arrive[idx] > deadline:
                    break
                if seq.arrive[idx] + cost(stop.location, rider.source) <= deadline + 1e-9:
                    result.append(vehicle)
                    break
        return result

    def _retrieve_candidates(
        self,
        rider: Rider,
        vehicles: Iterable[Vehicle],
        index: "CandidateIndex",
    ) -> List[Vehicle]:
        """Narrow ``vehicles`` through the instance's candidate index."""
        view = self._candidate_view
        if view is None or view[0] is not vehicles:
            roster = list(vehicles) if not isinstance(vehicles, list) else vehicles
            by_id = {v.vehicle_id: v for v in roster}
            tracked = by_id.keys() == index.tracked_ids()
            view = (roster, by_id, tracked)
            self._candidate_view = view
        roster, by_id, tracked = view
        return index.prune(
            rider,
            roster,
            self.instance.start_time,
            vehicles_by_id=by_id,
            assume_tracked=tracked,
        )


#: Priority key for the greedy loop; smaller pops first (min-heap).
GreedyKey = Callable[[PairEvaluation], Tuple[float, ...]]

#: How stored keys are maintained as schedules evolve (see greedy_assign).
UPDATE_POLICIES = ("stale", "lazy", "eager")


def greedy_assign(
    state: SolverState,
    riders: Iterable[Rider],
    vehicles: Optional[List[Vehicle]] = None,
    key: GreedyKey = lambda ev: (ev.delta_cost,),
    with_utility: bool = True,
    update: str = "stale",
) -> List[PairEvaluation]:
    """Priority-driven greedy assignment (the EG/CF skeleton).

    Repeatedly commits the feasible rider-vehicle pair minimising ``key``.
    The initial keys are computed against the vehicles' incumbent (empty)
    schedules, matching Algorithm 3 lines 5-7.  As commits change
    schedules, stored keys age; the ``update`` policy controls how that is
    handled:

    - ``"stale"`` (default — matches the paper's complexity accounting,
      where the line-11 update is an ``O(log n)`` reordering, never a
      re-insertion): pairs are committed in stored-key order; the actual
      insertion is recomputed at commit time (Algorithm 1), so results are
      always valid, but the *ranking* reflects the initial efficiencies.
    - ``"lazy"``: a popped entry whose vehicle changed since it was pushed
      is re-evaluated; it commits if its fresh key is no worse than its
      stored key, and is re-pushed with the fresh key otherwise.
    - ``"eager"``: after every commit all pairs targeting the modified
      vehicle are re-evaluated and re-pushed, so each committed pair is
      the exact current optimum.  Most effective, slowest — the paper's
      grouping-based scheduling is precisely what makes this affordable
      (small groups, small heaps).

    Returns the committed evaluations in commit order.
    """
    if update not in UPDATE_POLICIES:
        raise ValueError(f"unknown update policy {update!r}; expected {UPDATE_POLICIES}")
    if vehicles is None:
        vehicles = state.instance.vehicles
    vehicles_by_id = {v.vehicle_id: v for v in vehicles}
    remaining: Dict[int, Rider] = {r.rider_id: r for r in riders}
    versions: Dict[int, int] = {v.vehicle_id: 0 for v in vehicles}
    # rider -> vehicles worth (re-)evaluating for it (eager refresh set)
    candidates: Dict[int, List[Vehicle]] = {}
    counter = itertools.count()
    # entries: (key, tiebreak, rider_id, vehicle_id, version); keys are
    # scalars/tuples only — storing evaluations would pin O(m n) schedule
    # copies in memory
    heap: List[Tuple] = []

    def push(rider: Rider, vehicle: Vehicle) -> None:
        evaluation = state.evaluate(rider, vehicle, with_utility=with_utility)
        if evaluation is None:
            return
        heapq.heappush(
            heap,
            (
                key(evaluation),
                next(counter),
                rider.rider_id,
                vehicle.vehicle_id,
                versions[vehicle.vehicle_id],
            ),
        )

    for rider in remaining.values():
        reachable = state.reachable_vehicles(rider, vehicles)
        candidates[rider.rider_id] = reachable
        for vehicle in reachable:
            push(rider, vehicle)

    committed: List[PairEvaluation] = []

    def commit(evaluation: PairEvaluation) -> None:
        state.commit(evaluation)
        committed.append(evaluation)
        versions[evaluation.vehicle.vehicle_id] += 1
        del remaining[evaluation.rider.rider_id]
        if update == "eager":
            vehicle = evaluation.vehicle
            vid = vehicle.vehicle_id
            for other_id, other in remaining.items():
                if any(v.vehicle_id == vid for v in candidates[other_id]):
                    push(other, vehicle)

    while heap and remaining:
        stored_key, _, rider_id, vehicle_id, version = heapq.heappop(heap)
        if rider_id not in remaining:
            continue
        rider = remaining[rider_id]
        vehicle = vehicles_by_id[vehicle_id]
        evaluation = state.evaluate(rider, vehicle, with_utility=with_utility)
        if evaluation is None:
            continue  # no longer feasible on the current schedule
        if update == "stale" or version == versions[vehicle_id]:
            # stale policy commits in stored-key order; a version match
            # means the key is still exact under any policy
            commit(evaluation)
            continue
        fresh_key = key(evaluation)
        if fresh_key <= stored_key:
            # did not get worse: still (at least) as good as anything below
            commit(evaluation)
        else:
            heapq.heappush(
                heap,
                (fresh_key, next(counter), rider_id, vehicle_id, versions[vehicle_id]),
            )
    return committed
