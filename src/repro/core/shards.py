"""Sharded dispatch: partition-solve-merge over road-network areas.

One dispatch frame used to run as a single Python loop over the whole
city.  This module splits the frame along the paper's Algorithm-4 area
partition instead:

1. **partition** — riders are assigned to shards by the area of their
   pickup source, vehicles by the area of their current location
   (:class:`ShardPlan`; area centres are distributed round-robin over the
   shards in sorted-centre order, so the partition is a pure function of
   the network and ``shard_count`` — never of hash seed);
2. **solve** — each shard becomes an independent sub-instance (same
   oracle metric, same utility values, vehicle-utility matrix filtered
   to the shard's fleet) solved in turn by the configured method;
3. **merge** — the touched per-shard schedules are merged back in
   canonical shard order (shards are vehicle-disjoint, so merging is
   conflict-free by construction);
4. **boundary reconciliation** — riders left unserved whose pickup could
   still be reached by an *out-of-shard* vehicle (the coarse
   reachability test of EG lines 2–4) get one greedy insertion pass over
   those foreign vehicles.  Riders whose candidates all live in their
   own shard are **not** retried: their shard's solver already saw
   exactly the vehicles the global solver would have offered them, so
   retrying would make sharded frames diverge from unsharded ones even
   when no boundary conflict exists.

**Equivalence guarantee** (asserted by ``python -m repro.check
--mode dispatch-shards``): when no frame rider has an out-of-shard
coarse-reachable vehicle, per-shard greedy solves commute with the
global solve for the deterministic methods (eg / cf / gbs+eg — heap ties
break on push order, which the partition preserves within each shard),
so sharded dispatch equals unsharded dispatch frame for frame.  BA draws
its rider order from the instance RNG, which does not decompose across
shards; it still produces *valid* frames, just not bitwise-equal ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf import SHARD_STATS
from repro.core.assignment import Assignment
from repro.core.grouping import GroupingPlan
from repro.core.insertion import arrange_single_rider
from repro.core.instance import LazySchedules, URRInstance
from repro.core.requests import Rider
from repro.core.schedule import TransferSequence
from repro.core.scoring import PairEvaluation, SolverState
from repro.core.solver import solve
from repro.core.vehicles import Vehicle
from repro.roadnet.areas import AreaIndex
from repro.workload.instances import VehicleUtilityTable


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
class ShardPlan:
    """Deterministic node -> shard assignment derived from an area index.

    Area centres are sorted and dealt round-robin over ``shard_count``
    shards; a node belongs to its area centre's shard.  Nodes outside
    every area (possible after network surgery) fall back to
    ``node % shard_count`` — still a pure function of the node id.
    """

    def __init__(self, areas: AreaIndex, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.areas = areas
        self.shard_count = shard_count
        self._center_shard: Dict[int, int] = {
            center: i % shard_count
            for i, center in enumerate(sorted(areas.centers))
        }

    def shard_of(self, node: int) -> int:
        """The shard owning ``node`` (total: every node maps somewhere)."""
        try:
            center = self.areas.center_of(node)
        except KeyError:
            return node % self.shard_count
        return self._center_shard[center]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardPlan(shards={self.shard_count}, "
            f"areas={self.areas.num_areas})"
        )


@dataclass
class Shard:
    """One shard's slice of a frame (orders mirror the inputs')."""

    shard_id: int
    riders: List[Rider] = field(default_factory=list)
    vehicles: List[Vehicle] = field(default_factory=list)


@dataclass
class ShardPartition:
    """A full frame split into shards, plus the assignment maps."""

    shards: List[Shard]
    rider_shard: Dict[int, int]
    vehicle_shard: Dict[int, int]


def partition_frame(
    plan: ShardPlan,
    riders: Sequence[Rider],
    vehicles: Sequence[Vehicle],
) -> ShardPartition:
    """Split a frame's riders and vehicles into shards.

    Riders go to the shard of their pickup source, vehicles to the shard
    of their current location.  Within each shard the input orders are
    preserved (greedy heaps tie-break on push order, so order
    preservation is what makes per-shard solves match the global solve's
    restriction).  Every rider and vehicle lands in exactly one shard.
    """
    shards = [Shard(shard_id=i) for i in range(plan.shard_count)]
    rider_shard: Dict[int, int] = {}
    vehicle_shard: Dict[int, int] = {}
    for rider in riders:
        sid = plan.shard_of(rider.source)
        rider_shard[rider.rider_id] = sid
        shards[sid].riders.append(rider)
    for vehicle in vehicles:
        sid = plan.shard_of(vehicle.location)
        vehicle_shard[vehicle.vehicle_id] = sid
        shards[sid].vehicles.append(vehicle)
    return ShardPartition(
        shards=shards, rider_shard=rider_shard, vehicle_shard=vehicle_shard
    )


# ----------------------------------------------------------------------
# merge + boundary reconciliation
# ----------------------------------------------------------------------
def merge_shard_results(
    schedules: LazySchedules,
    results: Sequence[Dict[int, TransferSequence]],
) -> None:
    """Adopt every shard's touched schedules into the frame's map.

    ``results`` holds each solved shard's schedules, in shard-id order
    and keyed in vehicle-id order.  Shards are vehicle-disjoint, so no
    two results write the same vehicle; the canonical order keeps the
    merged ``touched`` bookkeeping reproducible.
    """
    for shard_schedules in results:
        for vid, seq in shard_schedules.items():
            schedules[vid] = seq


def _swap_insert(
    state: SolverState,
    instance: URRInstance,
    rider: Rider,
    candidates: Sequence[Vehicle],
    batch_ids: set,
) -> bool:
    """Relocation move: bump one this-frame rider to fit another.

    When a boundary rider has no direct feasible insertion, try each
    candidate vehicle in order: remove one of its *uncommitted*
    this-frame riders, insert the boundary rider, and re-home the bumped
    rider on any vehicle that will take it.  Applied only when the
    bumped rider lands somewhere (net served count strictly increases);
    otherwise the vehicle's schedule is restored untouched.  This is
    what lets sharded dispatch match the global solve's service level
    when shard solves committed capacity the global greedy would have
    spent differently.
    """
    for vehicle in candidates:
        vid = vehicle.vehicle_id
        original = state.schedule(vid)
        for other in original.removable_riders():
            if (
                other.rider_id not in batch_ids
                or other.rider_id == rider.rider_id
            ):
                continue
            reduced = original.without_rider(other.rider_id)
            insertion = arrange_single_rider(reduced, rider)
            if insertion is None:
                continue
            state.replace_schedule(vid, insertion.sequence)
            relocation: Optional[PairEvaluation] = None
            for host in state.reachable_vehicles(other, instance.vehicles):
                evaluation = state.evaluate(other, host)
                if evaluation is None:
                    continue
                if relocation is None or (
                    evaluation.efficiency,
                    evaluation.delta_utility,
                ) > (relocation.efficiency, relocation.delta_utility):
                    relocation = evaluation
            if relocation is not None:
                state.commit(relocation)
                return True
            state.replace_schedule(vid, original)
    return False


def reconcile_boundary(
    instance: URRInstance,
    schedules: LazySchedules,
    partition: ShardPartition,
) -> Tuple[int, int]:
    """Offer unserved boundary riders to out-of-shard vehicles.

    A rider is a *boundary rider* when it was left unserved by its own
    shard's solve and some vehicle in a **different** shard passes the
    coarse reachability test (the same test
    :meth:`SolverState.reachable_vehicles` applies).  When at least one
    boundary rider exists the frame had a genuine cross-shard conflict,
    so a greedy recovery sweep runs: every unserved batch rider, in
    batch order, is offered its best feasible insertion over the *whole*
    fleet (ranked by utility efficiency, ties by utility gain), repeated
    until a full sweep commits nothing new.

    When no boundary rider exists the pass is a no-op by construction:
    every shard solver already saw exactly the vehicles the global
    solver would have offered its riders, and re-trying in-shard riders
    here would make no-conflict frames diverge from unsharded dispatch.

    Returns ``(boundary_riders, reconciled_riders)``.
    """
    # batch riders can only sit in schedules a shard solve wrote
    served = {
        r.rider_id
        for vid in schedules.touched
        for r in schedules[vid].assigned_riders()
    }
    state = SolverState(instance, schedules=schedules)
    rider_shard = partition.rider_shard
    vehicle_shard = partition.vehicle_shard
    boundary = 0
    for rider in instance.riders:
        if rider.rider_id in served:
            continue
        home = rider_shard[rider.rider_id]
        outside = [
            v
            for v in instance.vehicles
            if vehicle_shard[v.vehicle_id] != home
        ]
        if outside and state.reachable_vehicles(rider, outside):
            boundary += 1
    if not boundary:
        return 0, 0
    batch_ids = {r.rider_id for r in instance.riders}
    reconciled = 0
    progress = True
    while progress:
        progress = False
        for rider in instance.riders:
            if rider.rider_id in served:
                continue
            candidates = state.reachable_vehicles(rider, instance.vehicles)
            if not candidates:
                continue
            best: Optional[PairEvaluation] = None
            for vehicle in candidates:
                evaluation = state.evaluate(rider, vehicle)
                if evaluation is None:
                    continue
                if best is None or (
                    evaluation.efficiency,
                    evaluation.delta_utility,
                ) > (best.efficiency, best.delta_utility):
                    best = evaluation
            if best is not None:
                state.commit(best)
                served.add(rider.rider_id)
                reconciled += 1
                progress = True
            elif _swap_insert(state, instance, rider, candidates, batch_ids):
                served.add(rider.rider_id)
                reconciled += 1
                progress = True
    return boundary, reconciled


def solve_sharded(
    instance: URRInstance,
    plan: ShardPlan,
    method: str,
    grouping: Optional[GroupingPlan] = None,
) -> Assignment:
    """Run the full partition-solve-merge-reconcile pipeline for a frame.

    Every shard with both riders and vehicles is solved in shard-id
    order as an independent sub-instance: the frame's metric, utility
    parameters, overrides and seed, with the vehicle-utility matrix
    restricted to the shard's vehicles (values unchanged, so per-pair
    utilities match the global frame's).  ``grouping`` is the GBS plan
    handed to each solve.
    """
    partition = partition_frame(plan, instance.riders, instance.vehicles)
    SHARD_STATS.frames_sharded += 1
    SHARD_STATS.riders_sharded += len(instance.riders)
    SHARD_STATS.vehicles_sharded += len(instance.vehicles)
    utilities = instance.vehicle_utilities
    if not isinstance(utilities, VehicleUtilityTable):
        utilities = VehicleUtilityTable.from_mapping(utilities)
    results: List[Dict[int, TransferSequence]] = []
    elapsed = 0.0
    for shard in partition.shards:
        if not (shard.riders and shard.vehicles):
            continue
        SHARD_STATS.shards_solved += 1
        sub = URRInstance(
            network=instance.network,
            riders=shard.riders,
            vehicles=shard.vehicles,
            alpha=instance.alpha,
            beta=instance.beta,
            vehicle_utilities=utilities.restrict(
                v.vehicle_id for v in shard.vehicles
            ),
            social=instance.social,
            similarity_overrides=dict(instance.similarity_overrides),
            start_time=instance.start_time,
            seed=instance.seed,
            default_vehicle_utility=instance.default_vehicle_utility,
            oracle=instance.oracle,
            candidates=None,
        )
        solved = solve(sub, method=method, plan=grouping)
        written = solved.schedules
        results.append({vid: written[vid] for vid in sorted(written.touched)})
        elapsed += solved.elapsed_seconds
    schedules = LazySchedules(instance)
    merge_shard_results(schedules, results)
    boundary, reconciled = reconcile_boundary(instance, schedules, partition)
    SHARD_STATS.boundary_riders += boundary
    SHARD_STATS.reconciled_riders += reconciled
    return Assignment(
        instance=instance,
        schedules=schedules,
        solver_name=f"sharded:{method}",
        elapsed_seconds=elapsed,
    )
