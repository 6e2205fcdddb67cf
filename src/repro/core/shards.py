"""Sharded dispatch: partition-solve-merge over road-network areas.

One dispatch frame used to run as a single Python loop over the whole
city.  This module splits the frame along the paper's Algorithm-4 area
partition instead:

1. **partition** — riders are assigned to shards by the area of their
   pickup source, vehicles by the area of their current location
   (:class:`ShardPlan`; area centres are distributed round-robin over the
   shards in sorted-centre order, so the partition is a pure function of
   the network and ``shard_count`` — never of worker count, executor or
   hash seed);
2. **solve** — each shard becomes an independent sub-instance (same
   oracle metric, same utility values, vehicle-utility matrix filtered
   to the shard's fleet) solved by the configured method, either inline
   (:class:`SerialShardExecutor`) or on a persistent process pool
   (:class:`ProcessShardExecutor`).  Worker processes cache the heavy
   immutable context (network, oracle, social graph, grouping plan) via
   the pool initializer, so per-frame traffic is riders + vehicles +
   the filtered matrix, not the 40-MB APSP table;
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

**Equivalence guarantees** (asserted by ``python -m repro.check
--dispatch-shards``): the partition/merge pipeline is deterministic and
executor-independent, so ``shard_workers=1`` and ``shard_workers=4``
produce byte-identical frames.  When no frame rider has an out-of-shard
coarse-reachable vehicle, per-shard greedy solves commute with the
global solve for the deterministic methods (eg / cf / gbs+eg — heap ties
break on push order, which the partition preserves within each shard),
so sharded dispatch equals unsharded dispatch frame for frame.  BA draws
its rider order from the instance RNG, which does not decompose across
shards; it still produces *valid* frames, just not bitwise-equal ones.

Worker accounting: each process task is bracketed with
:meth:`repro.perf.PerfSnapshot.capture` and ships its counter delta
home; the parent absorbs the delta into its process-wide stats and its
oracle, so the dispatcher's per-frame snapshot brackets count shard work
exactly once (``FrameReport.perf`` deltas still partition the run).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import trace as _trace
from repro.perf import (
    OracleStats,
    PerfReport,
    PerfSnapshot,
    SHARD_STATS,
    absorb_report,
)
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
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.social.graph import SocialNetwork
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
# shard tasks and the worker-side solve
# ----------------------------------------------------------------------
@dataclass
class ShardContext:
    """The heavy immutable state shipped to each worker process once.

    ``epoch`` snapshots the oracle's invalidation counter: when a
    disruption mutates the network the context is stale and the process
    pool is rebuilt with a fresh one (see
    :meth:`ProcessShardExecutor.run`).
    """

    network: RoadNetwork
    oracle: DistanceOracle
    social: Optional[SocialNetwork] = None
    plan: Optional[GroupingPlan] = None
    epoch: int = 0


@dataclass
class ShardTask:
    """One shard's per-frame payload (cheap to pickle).

    ``fault_path`` / ``fault_kind`` are the fault-injection seam used by
    the executor fault tests and the crash fuzzer: when ``fault_path``
    names an existing file, the *worker* consumes it (unlink) and then
    either dies by SIGKILL (``"kill"``) or hangs (``"hang"``) — one-shot
    by construction, so the retry of the same task succeeds.  Inline
    solves (:func:`solve_shard`) never trigger faults.
    """

    shard_id: int
    method: str
    riders: List[Rider]
    vehicles: List[Vehicle]
    vehicle_utilities: VehicleUtilityTable
    similarity_overrides: Dict[Tuple[int, int], float]
    alpha: float
    beta: float
    start_time: float
    seed: int
    default_vehicle_utility: float
    fault_path: Optional[str] = None
    fault_kind: str = "kill"


@dataclass
class ShardResult:
    """What a shard solve sends back: touched schedules + accounting.

    ``perf`` is the worker's bracketed counter delta (``None`` when the
    shard was solved inline — its work already ticked the parent's
    counters directly).
    """

    shard_id: int
    schedules: Dict[int, TransferSequence]
    elapsed_seconds: float
    perf: Optional[PerfReport] = None


def make_shard_task(instance: URRInstance, shard: Shard, method: str) -> ShardTask:
    """Slice a frame instance down to one shard's task payload.

    The vehicle-utility matrix becomes a view limited to the shard's
    vehicles (values are unchanged, so per-pair utilities match the
    global frame's; it pickles only the shard's own columns);
    everything else is copied verbatim.
    """
    utilities = instance.vehicle_utilities
    if not isinstance(utilities, VehicleUtilityTable):
        utilities = VehicleUtilityTable.from_mapping(utilities)
    utilities = utilities.restrict(v.vehicle_id for v in shard.vehicles)
    return ShardTask(
        shard_id=shard.shard_id,
        method=method,
        riders=shard.riders,
        vehicles=shard.vehicles,
        vehicle_utilities=utilities,
        similarity_overrides=dict(instance.similarity_overrides),
        alpha=instance.alpha,
        beta=instance.beta,
        start_time=instance.start_time,
        seed=instance.seed,
        default_vehicle_utility=instance.default_vehicle_utility,
    )


def solve_shard(
    task: ShardTask, context: ShardContext, bracket: bool = True
) -> ShardResult:
    """Solve one shard as an independent sub-instance.

    With ``bracket=True`` (worker processes) the solve is wrapped in
    perf snapshots and the counter delta rides back in the result so the
    parent can absorb it; inline callers pass ``bracket=False`` because
    their work already lands in the right process's counters.
    """
    before = PerfSnapshot.capture(context.oracle) if bracket else None
    SHARD_STATS.shards_solved += 1
    instance = URRInstance(
        network=context.network,
        riders=task.riders,
        vehicles=task.vehicles,
        alpha=task.alpha,
        beta=task.beta,
        vehicle_utilities=task.vehicle_utilities,
        social=context.social,
        similarity_overrides=task.similarity_overrides,
        start_time=task.start_time,
        seed=task.seed,
        default_vehicle_utility=task.default_vehicle_utility,
        oracle=context.oracle,
        candidates=None,
    )
    assignment = solve(instance, method=task.method, plan=context.plan)
    touched = getattr(assignment.schedules, "touched", None)
    if touched is None:  # pragma: no cover - defensive: eager dict result
        touched = set(assignment.schedules)
    schedules = {vid: assignment.schedules[vid] for vid in sorted(touched)}
    perf = None
    if bracket:
        perf = PerfSnapshot.capture(context.oracle).since(before)
    return ShardResult(
        shard_id=task.shard_id,
        schedules=schedules,
        elapsed_seconds=assignment.elapsed_seconds,
        perf=perf,
    )


# worker-process state installed by the pool initializer -----------------
_WORKER_CONTEXT: Optional[ShardContext] = None

#: Fault-injection seam for tests and the crash fuzzer: when set, every
#: :class:`ShardTask` built by :func:`solve_sharded` is passed through it
#: before submission (mutate ``task.fault_path`` / ``task.fault_kind`` in
#: place to arm a one-shot worker kill or hang).  ``None`` in production.
_FAULT_INJECTOR: Optional[Callable[[ShardTask], None]] = None


def _set_worker_context(blob: bytes) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = pickle.loads(blob)


def _maybe_trigger_fault(task: ShardTask) -> None:
    """Consume a one-shot fault marker and die/hang (worker side only)."""
    if task.fault_path is None:
        return
    try:
        os.unlink(task.fault_path)
    except FileNotFoundError:
        return  # already consumed: this is the retry, solve normally
    if task.fault_kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif task.fault_kind == "hang":
        time.sleep(3600.0)


def _solve_shard_task(task: ShardTask) -> ShardResult:
    """Module-level worker entry point (must be picklable by reference)."""
    assert _WORKER_CONTEXT is not None, "worker context not initialized"
    _maybe_trigger_fault(task)
    return solve_shard(task, _WORKER_CONTEXT, bracket=True)


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
@dataclass
class ShardRunFaults:
    """What went wrong (and was absorbed) during one executor run.

    Exposed as ``executor.last_faults`` after every :meth:`run` so the
    dispatcher can surface per-frame retry/fallback counts in its
    :class:`~repro.core.dispatch.FrameReport` without threading a result
    object through the sharded-solve pipeline.
    """

    timeouts: int = 0
    worker_faults: int = 0
    retries: int = 0
    fallbacks: int = 0
    pool_rebuilds: int = 0


class SerialShardExecutor:
    """In-process executor: solves shards sequentially, no pickling.

    The default (and the fallback when multiprocessing is unavailable);
    also the reference half of the workers=1-vs-N equivalence the fuzz
    harness asserts.  Inline solves cannot lose a worker, so
    ``last_faults`` is always zeroed.
    """

    workers = 1

    def __init__(self) -> None:
        self.last_faults = ShardRunFaults()

    def run(
        self, tasks: Sequence[ShardTask], context: ShardContext
    ) -> List[ShardResult]:
        self.last_faults = ShardRunFaults()
        return [solve_shard(task, context, bracket=False) for task in tasks]

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialShardExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ProcessShardExecutor:
    """Persistent, fault-tolerant process-pool executor for shard solves.

    The pool outlives frames; workers receive the heavy
    :class:`ShardContext` once through the pool initializer.  When the
    context goes stale (oracle ``epoch`` bumped by a disruption) the
    pool is torn down and rebuilt with the fresh context — distances
    computed in the old metric must never serve the new one.

    Faults never escape :meth:`run`.  The retry ladder:

    1. submit all shards; collect with a deadline when ``timeout`` is
       set (per-shard budget, scaled by the queueing factor
       ``ceil(shards / workers)``) instead of blocking forever on a
       hung worker;
    2. shards lost to a dead worker (``BrokenProcessPool``), a blown
       deadline, or a raising task are re-submitted — up to ``retries``
       rounds — to a *rebuilt* pool (the old one may be broken or
       wedged; its processes are terminated, not awaited);
    3. whatever still fails is solved inline in the parent
       (:func:`solve_shard`, unbracketted), so the frame always commits
       — a deterministic task bug surfaces here as a normal exception
       in the parent, exactly once, instead of an opaque pool error.

    Every rung ticks :data:`~repro.perf.SHARD_STATS` and emits an obs
    instant; the per-run tallies land in ``last_faults``.
    """

    def __init__(
        self,
        workers: int,
        timeout: Optional[float] = None,
        retries: int = 1,
    ) -> None:
        if workers < 2:
            raise ValueError("ProcessShardExecutor needs >= 2 workers")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.last_faults = ShardRunFaults()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._epoch: Optional[int] = None

    def _ensure(self, context: ShardContext) -> ProcessPoolExecutor:
        if self._pool is None or self._epoch != context.epoch:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_set_worker_context,
                initargs=(pickle.dumps(context),),
            )
            self._epoch = context.epoch
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken or wedged pool without waiting on it.

        ``shutdown(wait=True)`` would block forever behind a hung
        worker, so the pool is abandoned and its worker processes
        terminated outright; the next :meth:`_ensure` builds a fresh
        one.
        """
        pool = self._pool
        self._pool = None
        self._epoch = None
        if pool is None:
            return
        # snapshot the worker map first: shutdown() clears _processes
        # even with wait=False, and a worker left running would park the
        # pool's non-daemon manager thread forever at interpreter exit
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for proc in processes:
            if proc.is_alive():
                proc.terminate()
        for proc in processes:
            proc.join(timeout=5.0)

    def _deadline(self, num_pending: int) -> Optional[float]:
        """Collection deadline: per-shard budget × queueing factor."""
        if self.timeout is None:
            return None
        waves = max(1, math.ceil(num_pending / self.workers))
        return self.timeout * waves

    def _collect(
        self,
        pool: ProcessPoolExecutor,
        pending: List[Tuple[int, ShardTask]],
        results: Dict[int, ShardResult],
        faults: ShardRunFaults,
    ) -> List[Tuple[int, ShardTask]]:
        """One submission wave; returns the shards that must be retried."""
        futures = {
            pool.submit(_solve_shard_task, task): (index, task)
            for index, task in pending
        }
        done, not_done = wait(futures, timeout=self._deadline(len(pending)))
        failed: List[Tuple[int, ShardTask]] = []
        for future in done:
            index, task = futures[future]
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                faults.worker_faults += 1
                SHARD_STATS.worker_faults += 1
                failed.append((index, task))
            except Exception:
                # a raising task is retried like a fault; if it is
                # deterministic it will raise cleanly in the parent
                # during the serial fallback
                failed.append((index, task))
        if not_done:
            faults.timeouts += len(not_done)
            SHARD_STATS.shard_timeouts += len(not_done)
            _trace.instant(
                "shards.timeout",
                shards=len(not_done),
                budget=self._deadline(len(pending)),
            )
            for future in not_done:
                failed.append(futures[future])
        if failed:
            # the pool is broken (dead worker) or wedged (hung worker):
            # never reuse it
            self._discard_pool()
        failed.sort(key=lambda entry: entry[0])
        return failed

    def run(
        self, tasks: Sequence[ShardTask], context: ShardContext
    ) -> List[ShardResult]:
        faults = ShardRunFaults()
        self.last_faults = faults
        results: Dict[int, ShardResult] = {}
        pending: List[Tuple[int, ShardTask]] = list(enumerate(tasks))
        for attempt in range(self.retries + 1):
            if not pending:
                break
            if attempt > 0:
                faults.retries += len(pending)
                SHARD_STATS.shard_retries += len(pending)
                faults.pool_rebuilds += 1
                SHARD_STATS.pool_rebuilds += 1
                _trace.instant(
                    "shards.retry", attempt=attempt, shards=len(pending)
                )
            pool = self._ensure(context)
            pending = self._collect(pool, pending, results, faults)
        if pending:
            # last rung: solve inline so the frame always commits
            faults.fallbacks += len(pending)
            SHARD_STATS.serial_fallbacks += len(pending)
            _trace.instant("shards.serial_fallback", shards=len(pending))
            for index, task in pending:
                results[index] = solve_shard(task, context, bracket=False)
        return [results[index] for index in range(len(tasks))]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._epoch = None

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def build_shard_executor(
    workers: int,
    timeout: Optional[float] = None,
    retries: int = 1,
):
    """The executor for a worker count (1 = serial, else process pool).

    ``timeout`` / ``retries`` shape the process executor's fault
    ladder (per-shard deadline, retry rounds on a rebuilt pool); the
    serial executor ignores both — inline solves cannot lose a worker.
    """
    if workers < 1:
        raise ValueError("shard_workers must be >= 1")
    if workers == 1:
        return SerialShardExecutor()
    return ProcessShardExecutor(workers, timeout=timeout, retries=retries)


# ----------------------------------------------------------------------
# merge + boundary reconciliation
# ----------------------------------------------------------------------
def merge_shard_results(
    instance: URRInstance,
    schedules: LazySchedules,
    results: Sequence[ShardResult],
) -> None:
    """Adopt every shard's touched schedules into the frame's map.

    Shards are vehicle-disjoint, so no two results write the same
    vehicle; iteration is still in canonical (shard id, vehicle id)
    order so the merged ``touched`` bookkeeping is reproducible.
    Sequences that crossed a process boundary lost their cost closure
    and are rebound to the parent instance's fast path.
    """
    cost = instance.cost
    for result in sorted(results, key=lambda r: r.shard_id):
        for vid in sorted(result.schedules):
            seq = result.schedules[vid]
            seq.bind_cost(cost)
            schedules[vid] = seq


def absorb_oracle_delta(
    oracle: DistanceOracle, delta: Optional[OracleStats]
) -> None:
    """Add a worker oracle's counter delta into the parent oracle.

    Only the monotonic work counters are merged — cache sizes, mode and
    epoch describe the parent's own state and stay untouched.  This is
    what keeps ``FrameReport.perf`` oracle deltas an exact partition of
    the run even when frames fan out across processes.
    """
    if delta is None:
        return
    oracle.query_count += delta.query_count
    oracle.dijkstra_count += delta.dijkstra_count
    oracle.bidirectional_count += delta.bidirectional_count
    oracle.ch_query_count += delta.ch_query_count
    oracle.batch_rows += delta.batch_rows
    oracle.batch_fallbacks += delta.batch_fallbacks
    oracle.pair_cache_hits += delta.pair_cache_hits
    oracle.source_cache_hits += delta.source_cache_hits


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
    served: set = set()
    for _vid, seq in schedules.iter_active():
        served.update(r.rider_id for r in seq.assigned_riders())
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
    executor,
    context: ShardContext,
    method: str,
    elapsed_seconds: float = 0.0,
) -> Tuple[Assignment, ShardPartition]:
    """Run the full partition-solve-merge-reconcile pipeline for a frame.

    ``executor`` is a :class:`SerialShardExecutor` or
    :class:`ProcessShardExecutor`; process results carry perf deltas
    that are absorbed into this process's counters (and the parent
    oracle) here, so the caller's snapshot brackets see the shard work.
    """
    partition = partition_frame(plan, instance.riders, instance.vehicles)
    SHARD_STATS.frames_sharded += 1
    SHARD_STATS.riders_sharded += len(instance.riders)
    SHARD_STATS.vehicles_sharded += len(instance.vehicles)
    if isinstance(executor, ProcessShardExecutor):
        SHARD_STATS.process_frames += 1
    tasks = [
        make_shard_task(instance, shard, method)
        for shard in partition.shards
        if shard.riders and shard.vehicles
    ]
    if _FAULT_INJECTOR is not None:
        for task in tasks:
            _FAULT_INJECTOR(task)
    results = executor.run(tasks, context)
    schedules = LazySchedules(instance)
    merge_shard_results(instance, schedules, results)
    elapsed = elapsed_seconds
    for result in results:
        elapsed += result.elapsed_seconds
        if result.perf is not None:
            absorb_report(result.perf)
            absorb_oracle_delta(instance.oracle, result.perf.oracle)
    boundary, reconciled = reconcile_boundary(instance, schedules, partition)
    SHARD_STATS.boundary_riders += boundary
    SHARD_STATS.reconciled_riders += reconciled
    assignment = Assignment(
        instance=instance,
        schedules=schedules,
        solver_name=f"sharded:{method}",
        elapsed_seconds=elapsed,
    )
    return assignment, partition
