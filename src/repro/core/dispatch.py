"""Rolling-horizon dispatcher (online URR).

The paper's experiments solve one 30-minute frame at a time (Section
7.1.2); real deployments do this continuously.  :class:`Dispatcher`
packages the pattern as a library feature with a *time-consistent* state
machine:

- every frame's solved schedules are **committed as in-flight plans**:
  riders promised a ride stay promised, and the residual plan rides into
  the next frame as the vehicle's ``committed_stops`` / ``onboard`` state;
- advancing the clock by ``frame_length`` walks each vehicle's plan to
  its true position at the new clock (:meth:`Fleet.roll
  <repro.core.fleet.Fleet.roll>`): a vehicle is **never used from a
  location before its arrival time at it**;
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
- per-frame bookkeeping is incremental: the fleet
  (:class:`~repro.core.fleet.Fleet`, :attr:`Dispatcher.fleet`) marks
  every vehicle it writes, and a frame re-registers and audits only the
  marked ones, so its cost follows the batch and the changes.

This is the online counterpart the Related Work section contrasts with
([25], [20]): requests within a frame are batched — between frames the
system state carries over *consistently*.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, List, Mapping, Optional, Sequence, Set,
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
)
from repro.core.fleet import Fleet
from repro.core.grouping import GroupingPlan, prepare_grouping
from repro.core.instance import LazySchedules, URRInstance
from repro.core.requests import Rider
from repro.core.riders import RiderStatus, RiderTable
from repro.core.shards import ShardPlan, solve_sharded
from repro.core.solver import BASELINE_TIER, solve, solve_anytime
from repro.core.utility import check_balance
from repro.core.vehicles import Vehicle
from repro.roadnet.areas import build_areas
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.social.graph import SocialNetwork
from repro.workload.instances import synthetic_vehicle_utilities

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.disruptions import Disruption, DisruptionOutcome


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
    num_served: int = 0
    num_expired: int = 0
    utility: float = 0.0
    travel_cost: float = 0.0
    solver_seconds: float = 0.0
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


def _non_negative(name: str, value: float) -> float:
    """``value`` as a float; :class:`ValueError` unless finite and >= 0."""
    value = float(value)
    if value < 0 or not math.isfinite(value):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


@contextmanager
def _timed(seconds: Dict[str, float], stage: str):
    """Record the wall-clock seconds of the ``with`` block as ``stage``."""
    start = time.perf_counter()
    yield
    seconds[stage] = time.perf_counter() - start


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
        Initial vehicles (their ids must be unique).  :attr:`fleet`
        (a :class:`~repro.core.fleet.Fleet`) keeps them by id; a
        :class:`Vehicle` is frozen, so every later change (the
        rollforward, a disruption, a restore, or code editing the fleet
        between frames) assigns a new one through the fleet's writers.
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
        self.fleet = Fleet(fleet)
        self.network = network
        self.oracle = oracle = oracle or DistanceOracle(network)
        self.plan = plan
        # oracle epoch of the plan this dispatcher built (None: the
        # caller's plan, or none built yet)
        self._plan_epoch: Optional[int] = None
        self._own_plan = plan is None
        self.social = social
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
        self.riders = RiderTable(
            rid for v in self.fleet.values() for rid in v.committed_rider_ids()
        )
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
        seconds: Dict[str, float] = {}  # FramePerf's per-stage timings
        if frame_length is None:
            frame_length = self.config.frame_length
        else:
            frame_length = _non_negative("frame_length", frame_length)
        with _trace.span("dispatch.frame", frame=self._frame_index) as span:
            # admit: the new requests queue behind the carried riders
            new_riders = list(requests)
            carried = self.riders.pending_requests()
            self.riders.admit(new_riders, self._frame_index)
            batch = new_riders + carried
            # each stage fills in its part of the report
            report = FrameReport(
                frame_index=self._frame_index, frame_start=self._clock,
                num_requests=len(new_riders), num_carried=len(carried),
                frame_length=frame_length,
            )
            self._audited = set()

            with _timed(seconds, "build_seconds"), _trace.span(
                "dispatch.build_instance"
            ):
                instance = self._build_instance(batch)
                # the carried-in residual plans, materialized on demand:
                # only touched vehicles' baselines are ever built, so
                # frame accounting stays O(touched) on large idle fleets
                baselines = LazySchedules(instance)
            with _timed(seconds, "solve_seconds"):
                tier_seconds, accepted = self._solve(instance, report)
            schedules = report.assignment.schedules
            with _timed(seconds, "audit_seconds"):
                if not accepted:
                    with _trace.span("dispatch.audit"):
                        self._enforce_validity(instance, report.assignment)
            report.changed_vehicles = frozenset(schedules.touched | self._audited)
            self._commit(instance, baselines, batch, report)

            next_clock = self._clock + frame_length
            with _timed(seconds, "roll_seconds"), _trace.span("dispatch.roll"):
                self.fleet.roll(
                    schedules, baselines, next_clock, self.riders.deliver
                )
                # the rolled vehicles: committed-rider map and audit marks
                self._rebuilt += len(self.fleet.drain(self.oracle.epoch))
            with _trace.span("dispatch.carryover"):
                report.num_expired = self.riders.end_frame(
                    next_clock, self.config.max_retries,
                    instance.vehicle_utilities,
                )
            self._log(report, new_riders, tier_seconds, seconds, wall_start, span)
            return report

    def _solve(self, instance: URRInstance,
               report: FrameReport) -> Tuple[Dict[str, float], bool]:
        """Solve the frame (one global solve, the shards one after
        another, or the anytime watchdog under a ``frame_budget``) into
        ``report``; returns the seconds per solver tier and whether the
        watchdog's accept check already audited the plan."""
        config = self.config
        method = report.solver_tier = config.method
        plan = self._grouping_plan()
        if config.frame_budget is None:
            if self._shard_plan is None:
                with _trace.span("dispatch.solve", method=method):
                    assignment = solve(instance, method=method, plan=plan)
            else:
                with _trace.span(
                    "dispatch.solve", method=method, shards=config.shard_count
                ):
                    assignment = solve_sharded(
                        instance, self._shard_plan, method, plan
                    )
            tier_seconds = {method: assignment.elapsed_seconds}
        else:
            with _trace.span("dispatch.solve", method=method):
                assignment, anytime = solve_anytime(
                    instance, method=method, budget=config.frame_budget,
                    plan=plan, accept=lambda a: self._first_violation(instance, a),
                )
            report.solver_tier = anytime.tier
            report.fallback_tier = anytime.tier_index
            report.budget_exceeded = anytime.budget_exceeded
            tier_seconds = {}
            for attempt in anytime.attempts:
                tier_seconds[attempt.tier] = (
                    tier_seconds.get(attempt.tier, 0.0) + attempt.elapsed
                )
        report.assignment = assignment
        report.solver_seconds = assignment.elapsed_seconds
        # the watchdog's accept check audited every tier but the
        # baseline, which it returns without one
        watched = config.frame_budget is not None
        return tier_seconds, watched and report.solver_tier != BASELINE_TIER

    def _commit(self, instance: URRInstance, baselines: LazySchedules,
                batch: List[Rider], report: FrameReport) -> None:
        """Commit the batch riders the plan serves; report how many, and
        what this frame's insertions added to utility and travel cost
        over the carried-in plans (untouched vehicles keep their pristine
        plan, so summing over the touched ones is the full difference)."""
        model = instance.utility_model()
        schedules = report.assignment.schedules
        touched = schedules.touched
        for vid in touched:
            seq = schedules[vid]
            base = baselines[vid]
            vehicle = instance.vehicle(vid)
            report.utility += (model.schedule_utility(vehicle, seq)
                               - model.schedule_utility(vehicle, base))
            report.travel_cost += seq.total_cost - base.total_cost
        # batch riders can only be in schedules the solver wrote
        served = {
            r.rider_id for vid in touched
            for r in schedules[vid].assigned_riders()
        } & {r.rider_id for r in batch}
        # canonical order: ledger writes must not depend on set
        # iteration order, or sharded and unsharded runs could diverge
        # on anything downstream of insertion order
        self.riders.commit(sorted(served))
        report.num_served = len(served)

    def _log(self, report: FrameReport, new_riders: List[Rider],
             tier_seconds: Dict[str, float], seconds: Dict[str, float],
             wall_start: float, span) -> None:
        """Close the frame: its perf delta and trace, the running
        totals, the cursor advance and, when durable, its WAL record."""
        frame_after = PerfReport.capture(self.oracle)
        report.perf = FramePerf(
            frame_after.since(self._perf_cursor),
            wall_seconds=time.perf_counter() - wall_start,
            **seconds,
            disruption_seconds=self._pending_disruption_seconds,
            tier_seconds=tier_seconds,
            vehicles_rebuilt=self._rebuilt,
            vehicles_audited=len(self._audited),
        )
        self._pending_disruption_seconds = 0.0
        self._rebuilt = 0
        self._perf_cursor = frame_after
        span.annotate(
            tier=report.solver_tier, served=report.num_served,
            batch=report.batch_size, expired=report.num_expired,
        )
        if _trace.enabled():
            _trace.instant("frame.perf", frame=report.frame_index,
                           perf=report.perf.as_dict())
        self.total_requests += report.num_requests
        self.total_served += report.num_served
        self.total_expired += report.num_expired
        self.total_utility += report.utility
        self._frame_index += 1
        self._clock += report.frame_length
        if self._durability is not None:
            # after the cursor advance: the snapshot written here is the
            # end-of-frame state, and the WAL record re-derives it from
            # the previous snapshot on replay
            with _trace.span("dispatch.durability", frame=report.frame_index):
                self._durability.commit_frame(self, new_riders, report)

    # ------------------------------------------------------------------
    # disruptions
    # ------------------------------------------------------------------
    def inject(self, events: Sequence["Disruption"]) -> List["DisruptionOutcome"]:
        """Apply typed mid-horizon faults between frames.

        Delegates to :class:`repro.core.disruptions.DisruptionEngine`.
        The returned outcomes are the only record of the disruptions:
        the dispatcher keeps none, so a caller that wants a log collects
        them.  Call between :meth:`dispatch_frame` calls only; the engine
        repairs committed plans, replacing the affected :attr:`fleet`
        vehicles, so the next frame starts from a consistent,
        deadline-feasible state.  A durable dispatcher then appends one
        WAL record of the events and their outcomes, which
        :meth:`restore` redoes through the engine; no snapshot is written
        here.
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

    def _first_violation(
        self, instance: URRInstance, assignment: Assignment
    ) -> Optional[str]:
        """The watchdog's accept callback: first audit failure, or None."""
        vid, violations = self.fleet.audit(
            instance.vehicles, assignment.schedules, self._clock, self._audited
        )
        if not violations:
            return None
        return violations[0] if vid is None else f"vehicle {vid}: {violations[0]}"

    def _enforce_validity(
        self, instance: URRInstance, assignment: Assignment
    ) -> None:
        """Audit the frame's plan (:meth:`~repro.core.fleet.Fleet.audit`);
        raise :class:`DispatchError` if invalid."""
        vid, violations = self.fleet.audit(
            instance.vehicles, assignment.schedules, self._clock, self._audited
        )
        if violations:
            where = "cross-vehicle" if vid is None else f"vehicle {vid}"
            raise DispatchError(
                f"frame {self._frame_index} produced an invalid plan "
                f"({where}): {violations[0]}",
                frame_index=self._frame_index,
                vehicle_id=vid,
                violations=violations,
            )

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
        return self.fleet.utilisation(max(self._frame_index, 1))

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
           (:meth:`Fleet.restore <repro.core.fleet.Fleet.restore>`: plans
           and travel costs) and re-apply the rest of the cross-frame
           state (the rider table, metric changes, running totals, frame
           cursor);
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
        fleet = Fleet.restore(snapshot)
        dispatcher = cls(
            network, fleet.values(), plan=plan, social=social, oracle=oracle,
            candidate_index=candidate_index, durability=None,
            **snapshot["config"],
        )
        # the snapshot's state replaces the fresh one, fleet costs included
        dispatcher.fleet = fleet
        dispatcher.riders = RiderTable.restore(snapshot)
        dispatcher._frame_index = snapshot["frames_committed"]
        dispatcher._clock = snapshot["clock"]
        totals = snapshot["totals"]
        dispatcher.total_requests = totals["requests"]
        dispatcher.total_served = totals["served"]
        dispatcher.total_expired = totals["expired"]
        dispatcher.total_utility = totals["utility"]
        dispatcher._metric_changes = {
            (u, v): cost for u, v, cost in snapshot["metric_changes"]
        }
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

    # ------------------------------------------------------------------
    def _build_instance(self, riders: List[Rider]) -> URRInstance:
        config = self.config
        self._rebuilt += len(self.fleet.drain(self.oracle.epoch))
        vehicles = list(self.fleet.values())
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
