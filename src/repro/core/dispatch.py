"""Rolling-horizon dispatcher (online URR).

The paper's experiments solve one 30-minute frame at a time (Section
7.1.2); real deployments do this continuously.  :class:`Dispatcher`
packages the pattern as a library feature with a *time-consistent* state
machine:

- every frame's solved schedules are **committed as in-flight plans**:
  riders promised a ride stay promised, and the residual plan rides into
  the next frame as the vehicle's ``committed_stops`` / ``onboard`` state;
- advancing the clock by ``frame_length`` walks each vehicle's plan
  event-by-event (using the schedule's exact arrival times) to its true
  position at the new clock — a vehicle mid-leg is anchored at the stop it
  is driving towards, plannable only from its arrival time there, and is
  **never used from a location before its arrival time at it**;
- unserved riders whose pickup deadline is still live re-enter the next
  frame's batch through a bounded-retry carry-over queue; the rest expire;
- an invalid frame raises a typed :class:`DispatchError` naming the
  offending vehicle;
- every rider's lifecycle is tracked in a :class:`RiderStatus` ledger
  (pending → committed → delivered, or expired / cancelled), the backbone
  of the conservation invariant the chaos fuzzer asserts; the ledger,
  the carry-over queue and the pinned ``mu_v`` rows have one owner,
  :class:`~repro.core.riders.RiderTable` (:attr:`Dispatcher.riders`);
- typed mid-horizon faults — vehicle breakdowns, rider cancellations and
  no-shows, travel-time perturbations, road closures — are injected
  between frames via :meth:`Dispatcher.inject`
  (see :mod:`repro.core.disruptions`);
- an optional per-frame wall-clock budget (``frame_budget``) routes the
  solve through the anytime watchdog
  (:func:`repro.core.solver.solve_anytime`), so a frame always commits
  some valid plan; the serving tier lands in :class:`FrameReport`;
- per-frame bookkeeping is incremental: a frame re-registers and
  audits only the vehicles whose carried state changed since they were
  last audited (a change replaces the vehicle's frozen :class:`Vehicle`
  in :attr:`Dispatcher.fleet`, and :meth:`Dispatcher._sync_fleet` finds
  the new object by identity), so its cost follows the batch and the
  changed vehicles rather than the fleet.

This is the online counterpart the Related Work section contrasts with
([25], [20]): requests within a frame are batched — between frames the
system state carries over *consistently*.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import (
    AbstractSet, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set,
    Tuple, TYPE_CHECKING,
)

import numpy as np

from repro.obs import trace as _trace
from repro.perf import FramePerf, PerfReport
from repro.core.assignment import Assignment
from repro.core.candidates import (
    CANDIDATE_MODES,
    CandidateIndex,
    build_candidate_index,
)
from repro.core.durability import (
    CheckpointError,
    DurabilityConfig,
    DurabilityLog,
    network_fingerprint,
    replay_record,
    stop_from_dict,
)
from repro.core.grouping import GroupingPlan, prepare_grouping
from repro.core.instance import LazySchedules, URRInstance
from repro.core.requests import Rider
from repro.core.riders import RiderStatus, RiderTable
from repro.core.schedule import Stop, StopKind, TransferSequence
from repro.core.shards import ShardPlan, solve_sharded
from repro.core.solver import BASELINE_TIER, solve, solve_anytime
from repro.core.utility import check_balance
from repro.core.vehicles import Vehicle
from repro.roadnet.areas import build_areas
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.social.graph import SocialNetwork
from repro.workload.instances import synthetic_vehicle_utilities
from repro.workload.serialize import rider_from_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.disruptions import Disruption, DisruptionOutcome

_EPS = 1e-9


class DispatchError(RuntimeError):
    """A dispatch frame produced an invalid fleet plan.

    Carries enough structure for operational handling: the frame index,
    the first offending vehicle (``None`` for cross-vehicle violations
    such as a rider assigned twice) and the full violation list.
    """

    def __init__(
        self,
        message: str,
        frame_index: int,
        vehicle_id: Optional[int] = None,
        violations: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(message)
        self.frame_index = frame_index
        self.vehicle_id = vehicle_id
        self.violations: List[str] = list(violations or ())


@dataclass
class FrameReport:
    """Outcome of dispatching one time frame.

    ``num_requests`` counts only the *new* requests submitted this frame;
    riders retried from the carry-over queue appear in ``num_carried``
    instead, so summing ``num_requests`` across frames counts every rider
    exactly once and cumulative service rates do not double-count retried
    riders.  ``utility`` and ``travel_cost`` are *incremental*: the value
    added by this frame's insertions over the carried-in residual plans
    (commitments are counted once, in the frame that made them).

    ``solver_tier`` names the solver that actually served the frame; it
    equals the configured method unless a ``frame_budget`` watchdog fell
    back to a cheaper tier (``fallback_tier > 0``; the last resort is
    ``"baseline"``, the carried-in residual plans).

    ``assignment`` is the frame's plan, with its instance.  The
    dispatcher keeps no reports (only running totals), so the plan lives
    exactly as long as the caller keeps the report.

    ``perf`` is this frame's :class:`~repro.perf.FramePerf` breakdown —
    snapshot-*delta* counters (insertion plans, oracle searches,
    validator work, watchdog tiers) plus wall-clock section timings.
    Frame N's numbers exclude frames 1..N-1 and anything else the
    process ran earlier; summing a field across reports reconstructs
    the run total.

    ``changed_vehicles`` names the vehicles whose plan this frame wrote
    (solver insertions) or re-derived and audited (their carried state
    changed since their last audit).  Every other vehicle's
    plan is the one an earlier frame already reported, with the same
    arrival times, so a reader of the frame's plans (the streaming
    engine's latency spans) need only look at these.
    """

    frame_index: int
    frame_start: float
    num_requests: int
    num_carried: int
    num_served: int
    num_expired: int
    utility: float
    travel_cost: float
    solver_seconds: float
    assignment: Optional[Assignment] = None
    solver_tier: str = ""
    fallback_tier: int = 0
    budget_exceeded: bool = False
    perf: Optional[FramePerf] = None
    # the horizon this frame advanced the clock by; differs from the
    # dispatcher's configured frame_length when a streaming micro-batch
    # fired early (count trigger) — the WAL persists it so replay can
    # reproduce variable-length frames exactly
    frame_length: Optional[float] = None
    changed_vehicles: FrozenSet[int] = frozenset()

    @property
    def batch_size(self) -> int:
        """Riders offered to the solver this frame (new + retried)."""
        return self.num_requests + self.num_carried

    @property
    def service_rate(self) -> float:
        """Served / offered; an empty frame is vacuously fully served."""
        if not self.batch_size:
            return 1.0
        return self.num_served / self.batch_size


class CommittedRiders:
    """Fleet-wide ``rider id -> vehicles committed to it`` map.

    Kept current one vehicle at a time (:meth:`assign`), so reading it
    costs nothing per frame.  ``shared`` holds the riders more than one
    vehicle is committed to: carried-state corruption the frame audit
    reports as a cross-vehicle duplicate.
    """

    __slots__ = ("owners", "shared", "_ids")

    def __init__(self) -> None:
        self.owners: Dict[int, List[int]] = {}
        self.shared: Set[int] = set()
        self._ids: Dict[int, AbstractSet[int]] = {}

    def assign(self, vehicle_id: int, rider_ids: AbstractSet[int]) -> None:
        """Replace the riders registered for one vehicle."""
        for rid in self._ids.pop(vehicle_id, ()):
            owners = self.owners[rid]
            owners.remove(vehicle_id)
            if not owners:
                del self.owners[rid]
            elif len(owners) == 1:
                self.shared.discard(rid)
        if rider_ids:
            self._ids[vehicle_id] = rider_ids
        for rid in rider_ids:
            owners = self.owners.setdefault(rid, [])
            owners.append(vehicle_id)
            if len(owners) > 1:
                self.shared.add(rid)


def _non_negative(name: str, value: float) -> float:
    """``value`` as a float; :class:`ValueError` unless finite and >= 0."""
    value = float(value)
    if value < 0 or not math.isfinite(value):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


@dataclass(frozen=True)
class DispatchConfig:
    """Every :class:`Dispatcher` setting that is not a live object.

    Validated once, at construction, and fixed for the dispatcher's
    whole life; a checkpoint stores it as ``dataclasses.asdict(config)``
    and :meth:`Dispatcher.restore` rebuilds it from there unchanged.

    Parameters
    ----------
    method:
        Solver passed to :func:`repro.core.solver.solve` each frame.
    frame_length:
        ``delta_j`` in minutes; finite and >= 0.
    alpha, beta:
        Eq. 1 balancing parameters used every frame, checked by
        :func:`~repro.core.utility.check_balance`.
    seed:
        Seed for the per-frame vehicle-preference matrices.
    max_retries:
        Total frames a rider may be offered to the solver (1 = no
        carry-over).  Unserved riders still inside their pickup deadline
        re-enter the next frame's batch until the budget is spent.
    frame_budget:
        Optional per-frame wall-clock budget in seconds, finite and
        >= 0 (``0.0`` skips every solver tier).  When set, each
        frame is solved through the anytime watchdog
        (:func:`repro.core.solver.solve_anytime`): the configured method
        first, then :data:`~repro.core.solver.FALLBACK_METHODS`, then the
        carried-in baseline plans — the first plan that passes the frame
        audit is committed and its tier recorded in the
        :class:`FrameReport`.
    candidate_mode:
        One of :data:`~repro.core.candidates.CANDIDATE_MODES`.  ``"full"``
        (default) builds no index and no area cover: every rider's
        reachability test runs over the whole fleet, which at tiers 0 and 1
        still passes the oracle's bound (the exact table entry, the
        landmark bound) before any exact query
        (:meth:`~repro.core.scoring.SolverState.reachable_vehicles`), so
        ``"full"`` means "no area cover", not "no bound".  ``"spatial"``
        and ``"spatiotemporal"`` both route retrieval through a
        :class:`~repro.core.candidates.CandidateIndex`, which keeps no
        vehicles: it adds its area-centre bound (tiers 1 and 2) in front
        of the oracle's bound over the same roster view, so the two
        names select the same index.  Every bound is sound, so
        assignments are frame-for-frame identical across all three
        modes — only the work changes.
    shard_workers:
        ``None`` (default) solves each frame as one global instance.
        ``1`` routes frames through the partition-solve-merge pipeline
        of :mod:`repro.core.shards`, which solves the shards one after
        another in this process.  Any other value raises
        :class:`ValueError` (process-pool sharding was removed).
        Incompatible with ``frame_budget``.
    shard_count:
        Number of area-based shards each frame is split into (default
        8).  Part of the result contract — changing it changes which
        riders see which vehicles before reconciliation.
    """

    method: str = "eg"
    frame_length: float = 30.0
    alpha: float = 0.33
    beta: float = 0.33
    seed: int = 0
    max_retries: int = 3
    frame_budget: Optional[float] = None
    candidate_mode: str = "full"
    shard_workers: Optional[int] = None
    shard_count: int = 8

    def __post_init__(self) -> None:
        _non_negative("frame_length", self.frame_length)
        if self.frame_budget is not None:
            _non_negative("frame_budget", self.frame_budget)
        check_balance(self.alpha, self.beta)
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.candidate_mode not in CANDIDATE_MODES:
            raise ValueError(
                f"unknown candidate mode {self.candidate_mode!r}; "
                f"expected {CANDIDATE_MODES}"
            )
        if self.shard_workers is not None:
            if self.shard_workers != 1:
                raise ValueError(
                    f"shard_workers must be None or 1, got "
                    f"{self.shard_workers!r}: process-pool sharding was "
                    f"removed, shards are solved in-process"
                )
            if self.shard_count < 1:
                raise ValueError("shard_count must be >= 1")
            if self.frame_budget is not None:
                # the watchdog's accept/fallback ladder is a single-solve
                # protocol; a frame split into shards has no single
                # solver attempt to time-box or degrade
                raise ValueError(
                    "frame_budget cannot be combined with shard_workers: "
                    "the anytime watchdog does not compose with sharded "
                    "dispatch"
                )


class Dispatcher:
    """Frame-by-frame URR dispatcher over a persistent fleet.

    Parameters
    ----------
    network:
        The road network.
    fleet:
        Initial vehicles (their ids must be unique).  :attr:`fleet` keeps
        them by id; a :class:`Vehicle` is frozen, so every later change
        (the rollforward, a disruption, a restore, or code editing the
        fleet between frames) assigns a new one.
    oracle:
        Optional distance oracle (built on demand otherwise).
    plan:
        Optional precomputed grouping plan for the GBS methods.  Without
        one the dispatcher builds its own on the first GBS frame and
        again after each metric change (oracle epoch), never per frame.
    social:
        Optional social network shared by all frames.
    candidate_index:
        Optional prebuilt index (must share this dispatcher's oracle so
        epoch changes are detected); built on demand when a pruning
        ``candidate_mode`` is requested without one.
    durability:
        Optional checkpoint/WAL directory — a path or a
        :class:`~repro.core.durability.DurabilityConfig`.  When set,
        every committed frame and every :meth:`inject` call is appended
        to a write-ahead log and the full cross-frame state is
        snapshotted atomically every ``checkpoint_every`` frames, so
        :meth:`restore` can resume the run after a crash.
    options:
        The fields of :class:`DispatchConfig`, held validated and fixed
        in :attr:`config`; an unknown name raises :class:`TypeError`.
    """

    def __init__(
        self,
        network: RoadNetwork,
        fleet: Sequence[Vehicle],
        *,
        oracle: Optional[DistanceOracle] = None,
        plan: Optional[GroupingPlan] = None,
        social: Optional[SocialNetwork] = None,
        candidate_index: Optional["CandidateIndex"] = None,
        durability: Optional["DurabilityConfig | str"] = None,
        **options,
    ) -> None:
        config = self._config = DispatchConfig(**options)
        ids = [v.vehicle_id for v in fleet]
        if len(set(ids)) != len(ids):
            raise ValueError("fleet vehicle ids must be unique")
        if not fleet:
            raise ValueError("fleet must contain at least one vehicle")
        self.network = network
        self.oracle = oracle = oracle or DistanceOracle(network)
        self.plan = plan
        # oracle epoch of the plan this dispatcher built (None: the
        # caller's plan, or none built yet)
        self._plan_epoch: Optional[int] = None
        self._own_plan = plan is None
        self.social = social
        # each vehicle's current state; every change replaces the frozen
        # Vehicle (same key, same position), which is how the frame
        # state below notices it
        self.fleet: Dict[int, Vehicle] = {v.vehicle_id: v for v in fleet}
        # travel cost charged to each vehicle, one frame's incremental
        # cost at a time (committed legs are charged once, when planned)
        self._total_cost: Dict[int, float] = dict.fromkeys(self.fleet, 0.0)
        # candidate retrieval: build (or adopt) the index once
        self.candidates: Optional["CandidateIndex"] = None
        if config.candidate_mode != "full":
            if candidate_index is None:
                candidate_index = build_candidate_index(
                    network, oracle=self.oracle
                )
            elif candidate_index.oracle is not self.oracle:
                raise ValueError(
                    "candidate_index must share the dispatcher's oracle "
                    "(epoch changes would otherwise go undetected)"
                )
            self.candidates = candidate_index
        # incremental frame state: the Vehicle last seen in each fleet
        # entry (a different object means the entry changed), the riders
        # each vehicle is committed to, and the vehicles whose carried
        # state changed since their last audit (all of them at first)
        self._vehicles: Dict[int, Vehicle] = {}
        self._committed = CommittedRiders()
        self._dirty: Set[int] = set()
        self._epoch = self.oracle.epoch
        # per-frame audit/rebuild tallies for FramePerf
        self._audited: Set[int] = set()
        self._rebuilt = 0
        # sharded dispatch: the partition is fixed at construction (a
        # function of the network and shard_count only)
        self._shard_plan: Optional[ShardPlan] = None
        if config.shard_workers is not None:
            areas = (
                self.candidates.areas
                if self.candidates is not None
                else build_areas(network, k=8, oracle=self.oracle)
            )
            self._shard_plan = ShardPlan(areas, config.shard_count)
        self._frame_index = 0
        self._clock = 0.0
        # every rider's status, the carry-over queue and the pinned mu_v
        # rows; riders carried in with the initial fleet enter COMMITTED
        preloaded: Set[int] = set()
        for vehicle in self.fleet.values():
            preloaded |= vehicle.committed_rider_ids()
        self.riders = RiderTable(preloaded)
        # running totals over every frame (FrameReport fields summed in
        # frame order); total_requests counts unique submissions, since
        # retries are not re-counted
        self.total_requests = 0
        self.total_served = 0
        self.total_expired = 0
        self.total_utility = 0.0
        # metric changes since construction, recorded by the disruption
        # engine: arc (u, v) -> its new cost, None once closed
        self._metric_changes: Dict[Tuple[int, int], Optional[float]] = {}
        # snapshot-delta accounting: the process-wide perf counters are
        # cumulative, so both the run report and the per-frame reports
        # subtract captures — construction-time for the run, frame
        # boundaries for FrameReport.perf
        self._perf_baseline = PerfReport.capture(self.oracle)
        # rolling cursor: advanced at every frame end, so the per-frame
        # deltas partition the run exactly (work done between frames —
        # disruption repair, notably — lands in the following frame,
        # matching how disruption_seconds is attributed)
        self._perf_cursor = self._perf_baseline
        # inject() time since the last frame, attributed to the next one
        self._pending_disruption_seconds = 0.0
        # checkpoint/WAL durability (None: frames are not persisted)
        self._durability: Optional[DurabilityLog] = None
        if durability is not None:
            self._durability = (
                durability
                if isinstance(durability, DurabilityLog)
                else DurabilityLog(durability)
            )
            self._durability.start(self)

    # ------------------------------------------------------------------
    @property
    def config(self) -> DispatchConfig:
        """The validated settings, fixed at construction (see
        :class:`DispatchConfig`); there is no setter."""
        return self._config

    @property
    def clock(self) -> float:
        """Current dispatcher time (start of the next frame)."""
        return self._clock

    @property
    def ledger(self) -> Mapping[int, RiderStatus]:
        """Every admitted rider id -> its status (a read-only view of
        :attr:`riders`)."""
        return self.riders.ledger

    @property
    def pending_requests(self) -> List[Rider]:
        """Riders currently waiting in the carry-over queue, in order."""
        return self.riders.pending_requests()

    def fleet_locations(self) -> Dict[int, int]:
        return {vid: fv.location for vid, fv in self.fleet.items()}

    # ------------------------------------------------------------------
    def dispatch_frame(
        self,
        requests: Sequence[Rider],
        frame_length: Optional[float] = None,
    ) -> FrameReport:
        """Solve one frame of requests against the current fleet state.

        ``frame_length`` overrides the configured horizon for *this
        frame only* (the streaming engine dispatches variable-length
        micro-batches this way; zero is allowed — a count trigger can
        fire two batches at the same instant).  When omitted the
        configured ``config.frame_length`` is used.

        Deadlines are interpreted on the same absolute clock the
        dispatcher advances; rider ids must be unique across the whole
        run (riders committed or carried over from earlier frames remain
        live).  Returns the frame report after rolling every vehicle
        forward to its true position at the next frame's clock.  The
        dispatcher adds the report to its running totals and keeps
        nothing else of it: the frame's plan (``report.assignment``) is
        freed once the caller drops the report.
        """
        wall_start = time.perf_counter()
        frame_before = self._perf_cursor
        config = self.config
        method = config.method
        if frame_length is None:
            frame_length = config.frame_length
        else:
            frame_length = _non_negative("frame_length", frame_length)
        with _trace.span(
            "dispatch.frame", frame=self._frame_index
        ) as frame_span:
            new_riders = list(requests)
            carried = self.riders.pending_requests()
            self.riders.admit(new_riders, self._frame_index)
            batch = new_riders + carried
            batch_ids = {r.rider_id for r in batch}
            self._audited = set()

            build_start = time.perf_counter()
            with _trace.span("dispatch.build_instance"):
                instance = self._build_instance(batch)
                # the carried-in residual plans, materialized on demand:
                # only touched vehicles' baselines are ever built, so
                # frame accounting stays O(touched) on large idle fleets
                baselines = LazySchedules(instance)
            build_seconds = time.perf_counter() - build_start
            solve_start = time.perf_counter()
            plan = self._grouping_plan()
            # a plan the watchdog accepted has passed the frame audit
            accepted = False
            if self._shard_plan is not None:
                with _trace.span(
                    "dispatch.solve", method=method, shards=config.shard_count
                ):
                    assignment = solve_sharded(
                        instance, self._shard_plan, method, plan
                    )
                solver_tier, fallback_tier, budget_exceeded = method, 0, False
                tier_seconds = {method: assignment.elapsed_seconds}
            elif config.frame_budget is None:
                with _trace.span("dispatch.solve", method=method):
                    assignment = solve(instance, method=method, plan=plan)
                solver_tier, fallback_tier, budget_exceeded = method, 0, False
                tier_seconds = {method: assignment.elapsed_seconds}
            else:
                with _trace.span("dispatch.solve", method=method):
                    assignment, anytime = solve_anytime(
                        instance,
                        method=method,
                        budget=config.frame_budget,
                        plan=plan,
                        accept=lambda a: self._first_violation(instance, a),
                    )
                solver_tier = anytime.tier
                fallback_tier = anytime.tier_index
                budget_exceeded = anytime.budget_exceeded
                # the baseline tier is returned without an accept check
                accepted = solver_tier != BASELINE_TIER
                tier_seconds = {}
                for attempt in anytime.attempts:
                    tier_seconds[attempt.tier] = (
                        tier_seconds.get(attempt.tier, 0.0) + attempt.elapsed
                    )
            solve_seconds = time.perf_counter() - solve_start
            audit_start = time.perf_counter()
            if not accepted:
                with _trace.span("dispatch.audit"):
                    self._enforce_validity(instance, assignment)
            audit_seconds = time.perf_counter() - audit_start
            # every changed vehicle's plan passed the audit
            self._dirty.clear()

            # incremental accounting: what this frame's insertions added
            # over the carried-in residual plans.  Untouched vehicles keep
            # their pristine initial sequence, so their delta is exactly
            # zero — summing over the touched set is the full difference.
            model = instance.utility_model()
            schedules = assignment.schedules
            touched = schedules.touched
            frame_utility = 0.0
            frame_cost = 0.0
            for vid in touched:
                seq = schedules[vid]
                base = baselines[vid]
                vehicle = instance.vehicle(vid)
                frame_utility += model.schedule_utility(
                    vehicle, seq
                ) - model.schedule_utility(vehicle, base)
                frame_cost += seq.total_cost - base.total_cost
            # batch riders can only be in schedules the solver wrote
            served_ids = {
                r.rider_id
                for vid in touched
                for r in schedules[vid].assigned_riders()
            } & batch_ids
            changed = frozenset(touched | self._audited)
            # canonical order: ledger writes must not depend on set
            # iteration order, or sharded and unsharded runs could
            # diverge on anything downstream of insertion order
            self.riders.commit(sorted(served_ids))

            next_clock = self._clock + frame_length
            roll_start = time.perf_counter()
            fleet = self.fleet
            with _trace.span("dispatch.roll"):
                for vid, vehicle in fleet.items():
                    if vid in touched:
                        seq = schedules[vid]
                        self._total_cost[vid] += (
                            seq.total_cost - baselines[vid].total_cost
                        )
                        fleet[vid] = self._roll_vehicle(
                            vehicle, seq, next_clock
                        )
                    elif vehicle.committed_stops or vehicle.onboard:
                        # untouched: the pristine plan, whose cost delta
                        # is exactly zero.  It changed when last rolled,
                        # so the audit already built it.
                        seq = schedules.peek(vid)
                        if seq is None:
                            seq = baselines[vid]
                        fleet[vid] = self._roll_vehicle(
                            vehicle, seq, next_clock
                        )
                    elif (
                        vehicle.ready_time is not None
                        and vehicle.ready_time <= next_clock + _EPS
                    ):
                        # untouched idle vehicle: nothing to walk; retire
                        # a stale finished-leg timestamp like
                        # _roll_vehicle would (once per finished plan)
                        fleet[vid] = replace(vehicle, ready_time=None)
                # the rolled vehicles: committed-rider map and audit marks
                self._sync_fleet()
            roll_seconds = time.perf_counter() - roll_start

            with _trace.span("dispatch.carryover"):
                num_expired = self.riders.end_frame(
                    next_clock, config.max_retries, instance.vehicle_utilities
                )

            frame_after = PerfReport.capture(self.oracle)
            frame_perf = FramePerf(
                frame_after.since(frame_before),
                wall_seconds=time.perf_counter() - wall_start,
                build_seconds=build_seconds,
                solve_seconds=solve_seconds,
                audit_seconds=audit_seconds,
                roll_seconds=roll_seconds,
                disruption_seconds=self._pending_disruption_seconds,
                tier_seconds=tier_seconds,
                vehicles_rebuilt=self._rebuilt,
                vehicles_audited=len(self._audited),
            )
            self._pending_disruption_seconds = 0.0
            self._rebuilt = 0
            self._perf_cursor = frame_after

            report = FrameReport(
                frame_index=self._frame_index,
                frame_start=self._clock,
                num_requests=len(new_riders),
                num_carried=len(carried),
                num_served=len(served_ids),
                num_expired=num_expired,
                utility=frame_utility,
                travel_cost=frame_cost,
                solver_seconds=assignment.elapsed_seconds,
                assignment=assignment,
                solver_tier=solver_tier,
                fallback_tier=fallback_tier,
                budget_exceeded=budget_exceeded,
                perf=frame_perf,
                frame_length=frame_length,
                changed_vehicles=changed,
            )
            frame_span.annotate(
                tier=solver_tier,
                served=report.num_served,
                batch=report.batch_size,
                expired=report.num_expired,
            )
            if _trace.enabled():
                _trace.instant(
                    "frame.perf",
                    frame=self._frame_index,
                    perf=frame_perf.as_dict(),
                )
            self.total_requests += report.num_requests
            self.total_served += report.num_served
            self.total_expired += report.num_expired
            self.total_utility += report.utility
            self._frame_index += 1
            self._clock = next_clock
            if self._durability is not None:
                # after the cursor advance: the snapshot written here is
                # the end-of-frame state, and the WAL record re-derives
                # it from the previous snapshot on replay
                with _trace.span(
                    "dispatch.durability", frame=report.frame_index
                ):
                    self._durability.commit_frame(self, new_riders, report)
            return report

    # ------------------------------------------------------------------
    # disruptions
    # ------------------------------------------------------------------
    def inject(self, events: Sequence["Disruption"]) -> List["DisruptionOutcome"]:
        """Apply typed mid-horizon faults between frames.

        Delegates to :class:`repro.core.disruptions.DisruptionEngine`.
        The returned outcomes are the only
        record of the disruptions: the dispatcher keeps none, so a
        caller that wants a log collects them.  Call between
        :meth:`dispatch_frame` calls only; the engine repairs committed
        plans, replacing the affected :attr:`fleet` vehicles, so the next
        frame starts from a consistent, deadline-feasible state.  A
        durable dispatcher then appends one
        WAL record of the events and their outcomes, which
        :meth:`restore` redoes through the engine; no snapshot is
        written here.
        """
        from repro.core.disruptions import DisruptionEngine

        events = list(events)
        start = time.perf_counter()
        with _trace.span(
            "dispatch.inject", frame=self._frame_index, events=len(events)
        ):
            engine = DisruptionEngine(self)
            outcomes = engine.apply(events)
        # disruptions strike between frames; their repair cost is
        # attributed to the frame that follows them (FrameReport.perf)
        self._pending_disruption_seconds += time.perf_counter() - start
        if self._durability is not None:
            with _trace.span("dispatch.durability", frame=self._frame_index):
                self._durability.commit_disruption(self, events, outcomes)
        return outcomes

    # ------------------------------------------------------------------
    # frame internals
    # ------------------------------------------------------------------
    def _grouping_plan(self) -> Optional[GroupingPlan]:
        """The GBS plan for this frame: the caller's, or this dispatcher's
        own, built once per oracle epoch (a metric change re-derives it)."""
        if (
            self._own_plan
            and self.config.method.startswith("gbs")
            and self._plan_epoch != self.oracle.epoch
        ):
            with _trace.span("dispatch.prepare_grouping"):
                self.plan = prepare_grouping(self.network)
            self._plan_epoch = self.oracle.epoch
        return self.plan

    def _frame_violations(
        self, instance: URRInstance, assignment: Assignment
    ) -> Tuple[Dict[int, List[str]], List[str]]:
        """Per-vehicle and cross-vehicle violations of a candidate plan.

        Per-vehicle checks: schedule validity (deadlines, order, capacity)
        plus commitment integrity — the carried-in onboard riders and
        committed stops must survive, in order, in the new schedule.

        Only the schedules the solver wrote and the vehicles whose carried
        state changed since their last audit are checked.  Any other
        schedule is the pristine residual plan of a vehicle that passed an
        earlier audit and has not changed since, in the same metric: it
        re-derives the same arrival times and passes again.
        """
        offending: Dict[int, List[str]] = {}
        schedules = assignment.schedules
        touched = schedules.touched
        audit = touched | self._dirty
        for vehicle in instance.vehicles:
            vid = vehicle.vehicle_id
            if vid not in audit:
                continue
            seq = schedules.peek(vid)
            if seq is None:
                if not vehicle.has_carried_state:
                    # nothing carried: the pristine empty sequence
                    continue
                seq = schedules[vid]
            self._audited.add(vid)
            errors = seq.validity_errors()
            errors.extend(self._commitment_errors(vehicle, seq))
            if errors:
                offending[vid] = errors
        return offending, self._duplicate_riders(schedules, touched)

    def _duplicate_riders(
        self, schedules: LazySchedules, touched: Set[int]
    ) -> List[str]:
        """Riders that two vehicles' schedules both serve.

        Batch riders can only sit in written schedules; a carried rider
        sits in every unwritten schedule of a vehicle committed to it,
        which the fleet-wide committed-rider map answers without building
        those schedules.
        """
        duplicates: List[str] = []
        seen: Dict[int, int] = {}

        def assigned(rid: int, vid: int) -> None:
            first = seen.setdefault(rid, vid)
            if first != vid:
                duplicates.append(
                    f"rider {rid} assigned to vehicles {first} and {vid}"
                )

        owners = self._committed.owners
        for rid in sorted(self._committed.shared):
            for vid in owners[rid]:
                if vid not in touched:
                    assigned(rid, vid)
        for vid in sorted(touched):
            for rider in schedules[vid].assigned_riders():
                rid = rider.rider_id
                for owner in owners.get(rid, ()):
                    if owner not in touched:
                        assigned(rid, owner)
                assigned(rid, vid)
        return duplicates

    def _first_violation(
        self, instance: URRInstance, assignment: Assignment
    ) -> Optional[str]:
        """The watchdog's accept callback: first audit failure, or None."""
        offending, duplicates = self._frame_violations(instance, assignment)
        if offending:
            vid, violations = next(iter(offending.items()))
            return f"vehicle {vid}: {violations[0]}"
        if duplicates:
            return duplicates[0]
        return None

    def _enforce_validity(
        self, instance: URRInstance, assignment: Assignment
    ) -> None:
        """Audit the frame's plan; raise :class:`DispatchError` if invalid."""
        offending, duplicates = self._frame_violations(instance, assignment)
        if not offending and not duplicates:
            return
        vid, violations = (
            next(iter(offending.items())) if offending else (None, duplicates)
        )
        raise DispatchError(
            f"frame {self._frame_index} produced an invalid plan "
            f"({'vehicle ' + str(vid) if vid is not None else 'cross-vehicle'}): "
            f"{violations[0]}",
            frame_index=self._frame_index,
            vehicle_id=vid,
            violations=list(violations) + duplicates,
        )

    def _commitment_errors(
        self, vehicle: Vehicle, seq: TransferSequence
    ) -> List[str]:
        """Violations of the carried-over commitments in a new schedule."""
        errors: List[str] = []
        onboard_ids = {r.rider_id for r in vehicle.onboard}
        if seq.initial_onboard != onboard_ids:
            errors.append(
                f"onboard riders changed: expected {sorted(onboard_ids)}, "
                f"schedule has {sorted(seq.initial_onboard)}"
            )
        start = max(
            self._clock,
            vehicle.ready_time if vehicle.ready_time is not None else self._clock,
        )
        if abs(seq.start_time - start) > _EPS:
            errors.append(
                f"schedule starts at {seq.start_time:g} but the vehicle is "
                f"only plannable from {start:g}"
            )
        # committed stops must appear as an ordered subsequence
        pos = 0
        chain = vehicle.committed_stops
        for stop in seq.stops:
            if pos < len(chain) and stop == chain[pos]:
                pos += 1
        if pos < len(chain):
            errors.append(
                f"committed stop {chain[pos]!r} dropped or reordered "
                f"({pos}/{len(chain)} honoured)"
            )
        return errors

    def _roll_vehicle(
        self, vehicle: Vehicle, seq: TransferSequence, next_clock: float
    ) -> Vehicle:
        """The vehicle with its committed plan walked to ``next_clock``.

        Stops with arrival at or before ``next_clock`` are executed.  If
        any remain, the vehicle is mid-leg towards the first of them: it
        is anchored at that stop's location with ``ready_time`` equal to
        its exact arrival there (the stop's pickup/drop-off takes effect
        at that moment), and the rest of the plan becomes the residual
        ``committed_stops``.  Re-deriving the schedule from the new anchor
        reproduces the original arrival times exactly, so commitments stay
        feasible and the vehicle is never planned from a location before
        it arrives there.
        """
        onboard: Dict[int, Rider] = {r.rider_id: r for r in vehicle.onboard}
        stops = seq.stops
        arrive = seq.arrive
        n = len(stops)
        k = 0
        while k < n and arrive[k] <= next_clock + _EPS:
            self._apply_stop(onboard, stops[k])
            k += 1
        location = vehicle.location
        ready_time = vehicle.ready_time
        committed: Tuple[Stop, ...] = ()
        if k < n:
            # mid-leg: committed to reaching stops[k] at arrive[k]
            self._apply_stop(onboard, stops[k])
            location = stops[k].location
            ready_time = arrive[k]
            committed = tuple(stops[k + 1:])
        elif n:
            # plan finished by next_clock: idle at the last stop
            location = stops[-1].location
            ready_time = None
        elif ready_time is not None and ready_time <= next_clock + _EPS:
            # no stops at all: a previous frame's in-flight leg ended
            ready_time = None
        return Vehicle(
            vehicle_id=vehicle.vehicle_id,
            location=location,
            capacity=vehicle.capacity,
            driver_social_id=vehicle.driver_social_id,
            ready_time=ready_time,
            onboard=tuple(onboard.values()),
            committed_stops=committed,
        )

    def _apply_stop(self, onboard: Dict[int, Rider], stop: Stop) -> None:
        if stop.kind is StopKind.PICKUP:
            onboard[stop.rider.rider_id] = stop.rider
        else:
            onboard.pop(stop.rider.rider_id, None)
            # the rollforward's optimistic anchor semantics apply here
            # too: a drop-off executed (or anchored) is a delivery
            self.riders.deliver(stop.rider.rider_id)


    # ------------------------------------------------------------------
    # cumulative metrics
    # ------------------------------------------------------------------
    @property
    def service_rate(self) -> float:
        """Unique riders served / unique submitted (the rider table's
        running :attr:`~repro.core.riders.RiderTable.served` count).

        A rider counts as served while it is COMMITTED or DELIVERED, so
        neither a retry nor a re-serve after a breakdown strands it is
        counted twice (``total_served`` sums per-frame ``num_served`` and
        does count a re-served rider once per commit).  Riders handed in
        with the construction-time fleet were never submitted and are
        not counted (a checkpoint records their ids).  Vacuously 1.0
        before any request has been submitted (a fleet with no demand
        has failed nobody).
        """
        total = self.total_requests
        if not total:
            return 1.0
        return self.riders.served / total

    def ledger_counts(self) -> Dict[str, int]:
        """Riders per :class:`RiderStatus` (the conservation breakdown)."""
        return self.riders.counts()

    def riders_with_status(self, status: RiderStatus) -> Set[int]:
        return self.riders.with_status(status)

    def utilisation(self) -> Dict[int, float]:
        """Mean travel cost per frame per vehicle (busy-time proxy)."""
        frames = max(self._frame_index, 1)
        return {vid: self._total_cost[vid] / frames for vid in self.fleet}

    def perf_report(self) -> PerfReport:
        """This dispatcher's counters across all its frames (delta-based).

        Snapshot-delta accounting: the report subtracts the capture taken
        at construction, so it covers exactly this dispatcher's work —
        earlier frames are not double-counted into later reads, and
        insertion/validation/watchdog activity from *other* solvers (or
        tests) run earlier in the process is excluded.  Equals the
        field-wise sum of the per-frame ``FrameReport.perf`` breakdowns
        (plus any disruption repair after the last frame).
        """
        return PerfReport.capture(self.oracle).since(self._perf_baseline)

    def close(self) -> None:
        """Release the durability file handles.

        Safe to call repeatedly; the dispatcher stays usable afterwards
        (the WAL is reopened on the next durable commit).
        """
        if self._durability is not None:
            self._durability.close()

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def restore(
        cls,
        durability: "DurabilityConfig | DurabilityLog | str",
        network: Optional[RoadNetwork] = None,
        *,
        oracle: Optional[DistanceOracle] = None,
        social: Optional[SocialNetwork] = None,
        plan: Optional[GroupingPlan] = None,
        candidate_index: Optional["CandidateIndex"] = None,
    ) -> "Dispatcher":
        """Resume a crashed run from its checkpoint directory.

        Recovery pipeline:

        1. load the last snapshot (atomic writes guarantee it is whole)
           and the WAL tail (CRC-guarded; a torn final line is dropped);
        2. rebuild the road network as of the snapshot — the persisted
           ``network.json`` plus the snapshot's metric changes — unless
           the caller passes one.  A passed network must *be* the
           network as of the snapshot (checked by content fingerprint),
           not the live network of the crashed run: the WAL's metric
           changes are replayed onto it, so a network that already
           holds them is refused, as is any other wrong network;
        3. rebuild the dispatcher from the snapshot's config and fleet
           and re-apply every piece of cross-frame state (fleet plans,
           the rider table, metric changes, running totals, frame
           cursor; :meth:`_load_snapshot`);
        4. audit the restored fleet through the independent :func:`repro.check.validator.validate_fleet_state`
           oracle — corrupt state fails loudly here, not frames later;
        5. replay the WAL records newer than the snapshot in log order
           (:func:`~repro.core.durability.replay_record`): frame records
           through :meth:`dispatch_frame`, disruption records through
           the disruption engine, each checked against its logged
           summary or outcomes and refused when stamped with another
           frame cursor; then write a fresh snapshot.

        A directory given as a path resumes with the run's own
        ``checkpoint_every`` and ``fsync`` (stored in the snapshot); a
        :class:`~repro.core.durability.DurabilityConfig` or
        :class:`~repro.core.durability.DurabilityLog` passed in sets its
        own.

        The restored dispatcher runs under the snapshot's own
        :class:`DispatchConfig`, replayed frames and later ones alike.
        """
        log = (
            durability
            if isinstance(durability, DurabilityLog)
            else DurabilityLog(durability)
        )
        snapshot, wal_records = log.load()
        if snapshot is None:
            raise CheckpointError(
                f"no snapshot found in {log.directory} — nothing to restore"
            )
        if not isinstance(durability, (DurabilityConfig, DurabilityLog)):
            # a bare path: resume with the run's own snapshot cadence
            log.config = DurabilityConfig(
                log.directory, **snapshot["durability"]
            )
        if network is None:
            network = log.load_network(snapshot)
        else:
            expected = snapshot["network_fingerprint"]
            if snapshot["metric_changes"]:
                expected = network_fingerprint(log.load_network(snapshot))
            if network_fingerprint(network) != expected:
                raise CheckpointError(
                    "network content does not match the snapshot fingerprint: "
                    "pass the network as of the snapshot (the WAL's metric "
                    "changes are replayed onto it), or none"
                )
        initial_fleet = []
        for payload in snapshot["fleet"]:
            try:
                initial_fleet.append(Vehicle(
                    vehicle_id=payload["id"],
                    location=payload["location"],
                    capacity=payload["capacity"],
                    ready_time=payload["ready_time"],
                    onboard=[rider_from_dict(r) for r in payload["onboard"]],
                    committed_stops=[
                        stop_from_dict(s) for s in payload["committed_stops"]
                    ],
                ))
            except ValueError as exc:
                raise CheckpointError(
                    f"snapshot vehicle {payload['id']}: {exc}"
                ) from exc
        dispatcher = cls(
            network,
            initial_fleet,
            plan=plan,
            social=social,
            oracle=oracle,
            candidate_index=candidate_index,
            durability=None,
            **snapshot["config"],
        )
        dispatcher._load_snapshot(snapshot)
        # imported lazily: repro.check depends on repro.core
        from repro.check.validator import validate_fleet_state

        validate_fleet_state(
            dispatcher.fleet.values(), dispatcher.clock, oracle=dispatcher.oracle
        ).raise_if_invalid()
        # redo the WAL tail with the log attached but suspended, so
        # replayed frames are not logged again
        log.resume_from(snapshot)
        dispatcher._durability = log
        log.suspend()
        try:
            for record in wal_records:
                if record["lsn"] <= snapshot["wal_lsn"]:
                    continue  # already covered by the snapshot
                replay_record(dispatcher, record)
                log.lsn = record["lsn"]
        finally:
            log.resume()
        log.write_snapshot(dispatcher)
        return dispatcher

    def _load_snapshot(self, snapshot: dict) -> None:
        """Re-apply the snapshot's cross-frame state to this dispatcher,
        freshly built on the snapshot's config and fleet by
        :meth:`restore`: running totals, frame cursor, clock, per-vehicle
        costs, the rider table and the metric changes."""
        self._frame_index = snapshot["frames_committed"]
        self._clock = snapshot["clock"]
        totals = snapshot["totals"]
        self.total_requests = totals["requests"]
        self.total_served = totals["served"]
        self.total_expired = totals["expired"]
        self.total_utility = totals["utility"]
        for payload in snapshot["fleet"]:
            self._total_cost[payload["id"]] = payload["total_cost"]
        self.riders = RiderTable.restore(snapshot)
        self._metric_changes = {
            (u, v): cost for u, v, cost in snapshot["metric_changes"]
        }

    # ------------------------------------------------------------------
    def _sync_fleet(self) -> List[Vehicle]:
        """The solver-side fleet, re-reading only the vehicles that changed.

        Every change to a vehicle replaces its frozen :class:`Vehicle`
        in :attr:`fleet`, so an entry changed since the last sync exactly
        when it holds a different object than the one recorded here.  A
        changed vehicle is marked for audit and re-registered in the
        committed-rider map; vehicles gone from the fleet (breakdowns)
        are forgotten.  A new oracle epoch re-times every residual plan,
        so it marks every vehicle for audit.  Returns the vehicles in
        fleet order.
        """
        known = self._vehicles
        for vid, vehicle in self.fleet.items():
            if vehicle is not known.get(vid):
                known[vid] = vehicle
                self._committed.assign(vid, vehicle.committed_rider_ids())
                self._dirty.add(vid)
                self._rebuilt += 1
        if len(known) > len(self.fleet):
            for vid in known.keys() - self.fleet.keys():
                del known[vid]
                self._committed.assign(vid, frozenset())
                self._dirty.discard(vid)
        if self.oracle.epoch != self._epoch:
            self._epoch = self.oracle.epoch
            self._dirty.update(self.fleet)
        return list(self.fleet.values())

    def _build_instance(self, riders: List[Rider]) -> URRInstance:
        config = self.config
        vehicles = self._sync_fleet()
        rng = np.random.default_rng(config.seed + self._frame_index)
        table = synthetic_vehicle_utilities(riders, vehicles, rng)
        # pinned rows win over this frame's draw; layered by reference
        # (the rider table copies them before its next write)
        matrix = table.layered(self.riders.pinned_rows())
        return URRInstance(
            network=self.network,
            riders=riders,
            vehicles=vehicles,
            alpha=config.alpha,
            beta=config.beta,
            vehicle_utilities=matrix,
            social=self.social,
            start_time=self._clock,
            seed=config.seed + self._frame_index,
            oracle=self.oracle,
            candidates=self.candidates,
        )
