"""repro.perf — lightweight performance counters for the hot paths.

The solvers' cost is dominated by two primitives: distance-oracle queries
and single-rider insertion evaluations.  This module is the one place their
counters are defined and summarised, so every layer (oracle, insertion
engine, solver state, dispatcher) reports through the same vocabulary:

- :class:`OracleStats` — snapshot of a
  :class:`~repro.roadnet.oracle.DistanceOracle`'s counters (query count,
  Dijkstra / bidirectional searches, cache hits, serving mode);
- :class:`InsertionStats` — process-wide counters of the zero-copy
  insertion engine (`repro.core.insertion`): plans evaluated, candidate
  pairs scanned, sequences materialised, reference-path calls;
- :class:`ValidationStats` — process-wide counters of the independent
  solution validator (`repro.check`): assignments/schedules re-walked,
  stops re-derived, violations found;
- :class:`WatchdogStats` — process-wide counters of the anytime solver
  watchdog (`repro.core.solver.solve_anytime`): guarded frames, fallback
  commits, budget overruns, per-tier usage;
- :class:`CandidateStats` — process-wide counters of the candidate
  retrieval layer (`repro.core.candidates`): retrieval calls,
  rider-vehicle pairs considered, pairs pruned by the spatial and
  temporal bounds, and (under audit) lower-bound prunes that an exact
  cost check contradicts — always zero for a sound bound;
- :class:`PerfReport` — the combined view exposed by
  ``SolverState.perf_report()``, ``URRInstance.perf_report()`` and
  ``Dispatcher.perf_report()``.

Because the insertion/validation/watchdog counters are process-wide
globals, *cumulative* reads double-count across dispatch frames (and
pick up pollution from anything else run earlier in the process).  The
**snapshot-delta** layer fixes that: :meth:`PerfSnapshot.capture` freezes
all counters (plus an oracle's), :meth:`PerfSnapshot.since` subtracts two
captures into a :class:`PerfReport` of differences, and
:class:`FramePerf` packages one dispatch frame's delta together with its
wall-clock section timings.  ``Dispatcher.perf_report()`` and
``FrameReport.perf`` are built exclusively from deltas.

The module deliberately imports nothing from the rest of the package (the
insertion engine imports *it*), keeping the dependency graph acyclic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional


@dataclass
class InsertionStats:
    """Counters of the zero-copy insertion engine.

    ``plans`` counts :func:`repro.core.insertion.plan_insertion` calls (one
    per rider-vehicle evaluation), ``pairs_evaluated`` the candidate
    (pickup, drop-off) positions scanned inside them, ``materializations``
    how many winning plans were turned into real sequences, and
    ``reference_calls`` uses of the copy-and-recompute reference path.
    A healthy fast path materialises far fewer sequences than it plans.
    """

    plans: int = 0
    pairs_evaluated: int = 0
    materializations: int = 0
    reference_calls: int = 0

    def reset(self) -> None:
        self.plans = 0
        self.pairs_evaluated = 0
        self.materializations = 0
        self.reference_calls = 0

    def snapshot(self) -> "InsertionStats":
        return InsertionStats(**asdict(self))

    def delta(self, since: "InsertionStats") -> "InsertionStats":
        """Counters accumulated after ``since`` was snapshotted."""
        return InsertionStats(
            plans=self.plans - since.plans,
            pairs_evaluated=self.pairs_evaluated - since.pairs_evaluated,
            materializations=self.materializations - since.materializations,
            reference_calls=self.reference_calls - since.reference_calls,
        )

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def absorb(self, delta: "InsertionStats") -> None:
        """Add a worker process's interval into this (parent) counter set."""
        self.plans += delta.plans
        self.pairs_evaluated += delta.pairs_evaluated
        self.materializations += delta.materializations
        self.reference_calls += delta.reference_calls


#: Process-wide counters incremented by ``repro.core.insertion``.
INSERTION_STATS = InsertionStats()


@dataclass
class ValidationStats:
    """Counters of the independent validator (:mod:`repro.check`).

    ``assignments`` counts full :func:`repro.check.validate_assignment`
    audits, ``schedules`` the per-vehicle re-walks inside them (plus any
    single-schedule debug-hook checks), ``stops`` the stops re-derived with
    fresh oracle calls, and ``violations`` how many violations were found
    in total.  A production run should keep ``violations`` at zero; the
    corruption self-tests are the only expected source of non-zero counts.
    """

    assignments: int = 0
    schedules: int = 0
    stops: int = 0
    violations: int = 0

    def reset(self) -> None:
        self.assignments = 0
        self.schedules = 0
        self.stops = 0
        self.violations = 0

    def snapshot(self) -> "ValidationStats":
        return ValidationStats(**asdict(self))

    def delta(self, since: "ValidationStats") -> "ValidationStats":
        """Counters accumulated after ``since`` was snapshotted."""
        return ValidationStats(
            assignments=self.assignments - since.assignments,
            schedules=self.schedules - since.schedules,
            stops=self.stops - since.stops,
            violations=self.violations - since.violations,
        )

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def absorb(self, delta: "ValidationStats") -> None:
        """Add a worker process's interval into this (parent) counter set."""
        self.assignments += delta.assignments
        self.schedules += delta.schedules
        self.stops += delta.stops
        self.violations += delta.violations


#: Process-wide counters incremented by ``repro.check``.
VALIDATION_STATS = ValidationStats()


@dataclass
class WatchdogStats:
    """Counters of the anytime solver watchdog (``solve_anytime``).

    ``frames`` counts watchdog-guarded solves, ``fallbacks`` how many of
    them were served by a tier below the configured method, and
    ``budget_exceeded`` how many overran their wall-clock budget (the
    accepted result is still committed; the overrun is only recorded).
    ``tier_uses`` breaks the serving tier down by name — the ultimate
    last resort is ``"baseline"``, the carried-in residual plans.
    """

    frames: int = 0
    fallbacks: int = 0
    budget_exceeded: int = 0
    tier_uses: Dict[str, int] = field(default_factory=dict)

    def record(self, tier: str, tier_index: int, exceeded: bool) -> None:
        self.frames += 1
        self.tier_uses[tier] = self.tier_uses.get(tier, 0) + 1
        if tier_index > 0:
            self.fallbacks += 1
        if exceeded:
            self.budget_exceeded += 1

    def reset(self) -> None:
        self.frames = 0
        self.fallbacks = 0
        self.budget_exceeded = 0
        self.tier_uses = {}

    def snapshot(self) -> "WatchdogStats":
        return WatchdogStats(
            frames=self.frames,
            fallbacks=self.fallbacks,
            budget_exceeded=self.budget_exceeded,
            tier_uses=dict(self.tier_uses),
        )

    def delta(self, since: "WatchdogStats") -> "WatchdogStats":
        """Counters accumulated after ``since``; zero tiers are dropped."""
        tiers = {
            tier: count - since.tier_uses.get(tier, 0)
            for tier, count in self.tier_uses.items()
            if count - since.tier_uses.get(tier, 0)
        }
        return WatchdogStats(
            frames=self.frames - since.frames,
            fallbacks=self.fallbacks - since.fallbacks,
            budget_exceeded=self.budget_exceeded - since.budget_exceeded,
            tier_uses=tiers,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "frames": self.frames,
            "fallbacks": self.fallbacks,
            "budget_exceeded": self.budget_exceeded,
            "tier_uses": dict(self.tier_uses),
        }

    def absorb(self, delta: "WatchdogStats") -> None:
        """Add a worker process's interval into this (parent) counter set."""
        self.frames += delta.frames
        self.fallbacks += delta.fallbacks
        self.budget_exceeded += delta.budget_exceeded
        for tier, count in delta.tier_uses.items():
            self.tier_uses[tier] = self.tier_uses.get(tier, 0) + count


#: Process-wide counters incremented by ``repro.core.solver.solve_anytime``.
WATCHDOG_STATS = WatchdogStats()


@dataclass
class CandidateStats:
    """Counters of the candidate retrieval layer (:mod:`repro.core.candidates`).

    ``retrievals`` counts pruning calls (one per rider in the solvers'
    retrieval path, one per trip group in the GBS fast filter),
    ``pairs_considered`` the rider-vehicle pairs entering them, and the
    two ``pairs_pruned_*`` fields how many of those the spatial
    (area-centre triangle bound) and temporal (landmark lower bound)
    filters discarded without an exact cost query.  ``pruned_in_error``
    counts pruned pairs an exact-cost audit found feasible after all —
    the bounds are sound, so any non-zero value is a bug (the ``--prune``
    fuzzer asserts it stays zero; the audit itself is opt-in).
    """

    retrievals: int = 0
    pairs_considered: int = 0
    pairs_pruned_spatial: int = 0
    pairs_pruned_temporal: int = 0
    pruned_in_error: int = 0

    @property
    def pairs_pruned(self) -> int:
        """Total pairs discarded before any exact cost query."""
        return self.pairs_pruned_spatial + self.pairs_pruned_temporal

    @property
    def candidates_returned(self) -> int:
        """Pairs that survived pruning and reached the exact filter."""
        return self.pairs_considered - self.pairs_pruned

    @property
    def mean_candidates(self) -> float:
        """Mean surviving candidate-set size per retrieval."""
        if not self.retrievals:
            return 0.0
        return self.candidates_returned / self.retrievals

    def reset(self) -> None:
        self.retrievals = 0
        self.pairs_considered = 0
        self.pairs_pruned_spatial = 0
        self.pairs_pruned_temporal = 0
        self.pruned_in_error = 0

    def snapshot(self) -> "CandidateStats":
        return CandidateStats(**asdict(self))

    def delta(self, since: "CandidateStats") -> "CandidateStats":
        """Counters accumulated after ``since`` was snapshotted."""
        return CandidateStats(
            retrievals=self.retrievals - since.retrievals,
            pairs_considered=self.pairs_considered - since.pairs_considered,
            pairs_pruned_spatial=(
                self.pairs_pruned_spatial - since.pairs_pruned_spatial
            ),
            pairs_pruned_temporal=(
                self.pairs_pruned_temporal - since.pairs_pruned_temporal
            ),
            pruned_in_error=self.pruned_in_error - since.pruned_in_error,
        )

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = asdict(self)
        data["pairs_pruned"] = self.pairs_pruned
        data["candidates_returned"] = self.candidates_returned
        data["mean_candidates"] = self.mean_candidates
        return data

    def absorb(self, delta: "CandidateStats") -> None:
        """Add a worker process's interval into this (parent) counter set."""
        self.retrievals += delta.retrievals
        self.pairs_considered += delta.pairs_considered
        self.pairs_pruned_spatial += delta.pairs_pruned_spatial
        self.pairs_pruned_temporal += delta.pairs_pruned_temporal
        self.pruned_in_error += delta.pruned_in_error


#: Process-wide counters incremented by ``repro.core.candidates``.
CANDIDATE_STATS = CandidateStats()


@dataclass
class ShardStats:
    """Counters of the sharded dispatch pipeline (:mod:`repro.core.shards`).

    ``frames_sharded`` counts frames routed through partition-solve-merge,
    ``shards_solved`` the per-shard sub-solves inside them (including
    empty shards that were skipped without solving — those are *not*
    counted), and ``process_frames`` how many sharded frames ran on the
    process-pool executor (the rest ran the in-process serial executor).
    ``riders_sharded`` / ``vehicles_sharded`` count partition assignments,
    ``boundary_riders`` the unserved riders whose candidate set crossed a
    shard boundary, and ``reconciled_riders`` how many of those the
    reconciliation pass actually served.

    The fault-tolerance counters trace the process executor's retry
    ladder: ``shard_timeouts`` shard solves that blew their per-shard
    deadline, ``worker_faults`` futures lost to a dead worker
    (``BrokenProcessPool``), ``shard_retries`` shard solves re-submitted
    to a rebuilt pool, ``serial_fallbacks`` shards that exhausted
    retries and were solved inline in the parent, and ``pool_rebuilds``
    fault-driven pool teardowns (epoch-driven rebuilds are not counted
    — they are routine invalidation, not faults).
    """

    frames_sharded: int = 0
    shards_solved: int = 0
    process_frames: int = 0
    riders_sharded: int = 0
    vehicles_sharded: int = 0
    boundary_riders: int = 0
    reconciled_riders: int = 0
    shard_timeouts: int = 0
    worker_faults: int = 0
    shard_retries: int = 0
    serial_fallbacks: int = 0
    pool_rebuilds: int = 0

    def reset(self) -> None:
        self.frames_sharded = 0
        self.shards_solved = 0
        self.process_frames = 0
        self.riders_sharded = 0
        self.vehicles_sharded = 0
        self.boundary_riders = 0
        self.reconciled_riders = 0
        self.shard_timeouts = 0
        self.worker_faults = 0
        self.shard_retries = 0
        self.serial_fallbacks = 0
        self.pool_rebuilds = 0

    def snapshot(self) -> "ShardStats":
        return ShardStats(**asdict(self))

    def delta(self, since: "ShardStats") -> "ShardStats":
        """Counters accumulated after ``since`` was snapshotted."""
        return ShardStats(
            frames_sharded=self.frames_sharded - since.frames_sharded,
            shards_solved=self.shards_solved - since.shards_solved,
            process_frames=self.process_frames - since.process_frames,
            riders_sharded=self.riders_sharded - since.riders_sharded,
            vehicles_sharded=self.vehicles_sharded - since.vehicles_sharded,
            boundary_riders=self.boundary_riders - since.boundary_riders,
            reconciled_riders=self.reconciled_riders - since.reconciled_riders,
            shard_timeouts=self.shard_timeouts - since.shard_timeouts,
            worker_faults=self.worker_faults - since.worker_faults,
            shard_retries=self.shard_retries - since.shard_retries,
            serial_fallbacks=self.serial_fallbacks - since.serial_fallbacks,
            pool_rebuilds=self.pool_rebuilds - since.pool_rebuilds,
        )

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def absorb(self, delta: "ShardStats") -> None:
        """Add a worker process's interval into this (parent) counter set."""
        self.frames_sharded += delta.frames_sharded
        self.shards_solved += delta.shards_solved
        self.process_frames += delta.process_frames
        self.riders_sharded += delta.riders_sharded
        self.vehicles_sharded += delta.vehicles_sharded
        self.boundary_riders += delta.boundary_riders
        self.reconciled_riders += delta.reconciled_riders
        self.shard_timeouts += delta.shard_timeouts
        self.worker_faults += delta.worker_faults
        self.shard_retries += delta.shard_retries
        self.serial_fallbacks += delta.serial_fallbacks
        self.pool_rebuilds += delta.pool_rebuilds


#: Process-wide counters incremented by ``repro.core.shards``.
SHARD_STATS = ShardStats()


@dataclass
class WorkloadStats:
    """Counters of the arrival-generation path (:mod:`repro.workload.taxi`).

    ``trips_generated`` counts trip records emitted by either generator.
    The ``dest_cache_*`` counters track the gravity sampler's per-source
    probability cache (misses pay one full weight-vector build);
    ``unreachable_sources`` counts pickups dropped because no destination
    is reachable.  The ``skipped_missing_*`` counters record trips a
    :class:`~repro.workload.taxi.PoissonTripModel` dropped because the
    fitted model was inconsistent (arrival rate present but transition
    row or duration pair missing) — a streaming source skips these
    instead of crashing mid-stream, and a monitoring layer should alarm
    on them growing.
    """

    trips_generated: int = 0
    dest_cache_hits: int = 0
    dest_cache_misses: int = 0
    dest_cache_evictions: int = 0
    unreachable_sources: int = 0
    skipped_missing_transition: int = 0
    skipped_missing_duration: int = 0

    def reset(self) -> None:
        self.trips_generated = 0
        self.dest_cache_hits = 0
        self.dest_cache_misses = 0
        self.dest_cache_evictions = 0
        self.unreachable_sources = 0
        self.skipped_missing_transition = 0
        self.skipped_missing_duration = 0

    def snapshot(self) -> "WorkloadStats":
        return WorkloadStats(**asdict(self))

    def delta(self, since: "WorkloadStats") -> "WorkloadStats":
        """Counters accumulated after ``since`` was snapshotted."""
        return WorkloadStats(
            **{
                key: value - getattr(since, key)
                for key, value in asdict(self).items()
            }
        )

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def absorb(self, delta: "WorkloadStats") -> None:
        """Add a worker process's interval into this (parent) counter set."""
        for key, value in asdict(delta).items():
            setattr(self, key, getattr(self, key) + value)


#: Process-wide counters incremented by ``repro.workload.taxi``.
WORKLOAD_STATS = WorkloadStats()


@dataclass
class OracleStats:
    """Snapshot of a :class:`~repro.roadnet.oracle.DistanceOracle`.

    ``searches`` (Dijkstras, bidirectional runs, CH queries and batched
    rows) is the actual graph work;
    ``hit_rate`` is the fraction of non-trivial queries answered without a
    search — in APSP mode every query after the build is a hit.

    ``fast_path`` reports whether the oracle handed out a counter-bypassing
    ``fast_cost_fn`` closure; when true, ``query_count`` only covers the
    queries routed through :meth:`DistanceOracle.cost` and undercounts the
    real query volume (the fast closure trades bookkeeping for speed).
    """

    mode: str
    nodes: int
    query_count: int
    dijkstra_count: int
    bidirectional_count: int
    pair_cache_hits: int
    pair_cache_size: int
    source_cache_hits: int
    source_cache_size: int
    row_cache_size: int = 0
    pinned_sources: int = 0
    fast_path: bool = False
    epoch: int = 0
    ch_query_count: int = 0
    tier: int = 2
    effective_tier: int = 2
    #: rows filled by the batched many-source pass (pinned rows, the
    #: tier-0 table, the cover's hop-local rows) and how many of them the
    #: verifier sent back to ``dijkstra()`` (also in ``dijkstra_count``)
    batch_rows: int = 0
    batch_fallbacks: int = 0

    @classmethod
    def from_oracle(cls, oracle: Any) -> "OracleStats":
        return cls(**oracle.stats())

    @property
    def searches(self) -> int:
        """Graph searches: Dijkstras, bidirectional runs, CH queries and
        rows of the batched pass (each fallback row counted once)."""
        return (
            self.dijkstra_count
            + self.bidirectional_count
            + self.ch_query_count
            + self.batch_rows
            - self.batch_fallbacks
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered without running a graph search.

        *Every* search counts as a miss — Dijkstras (full single-source
        runs serving :meth:`DistanceOracle.costs_from` misses) as well
        as bidirectional point-to-point runs.  An earlier version only
        subtracted ``bidirectional_count``, so Dijkstra-serving modes
        reported a ~1.0 hit rate even when every query paid a search.
        Clamped at 0 because ``costs_from``-heavy phases can run more
        Dijkstras than there are counted point queries.
        """
        if self.query_count == 0:
            return 0.0
        if self.mode == "apsp":
            return 1.0
        return max(0.0, 1.0 - self.searches / self.query_count)

    def delta(self, since: "OracleStats") -> "OracleStats":
        """Work done after ``since``; sizes/mode reflect the later state.

        Monotonic counters (queries, searches, cache hits) are
        differenced; the non-monotonic fields (mode, cache sizes,
        pins, ``fast_path``, ``epoch``) keep their current values — a
        delta describes *work in an interval*, and the interval ends in
        the current state.
        """
        return OracleStats(
            mode=self.mode,
            nodes=self.nodes,
            query_count=self.query_count - since.query_count,
            dijkstra_count=self.dijkstra_count - since.dijkstra_count,
            bidirectional_count=(
                self.bidirectional_count - since.bidirectional_count
            ),
            pair_cache_hits=self.pair_cache_hits - since.pair_cache_hits,
            pair_cache_size=self.pair_cache_size,
            source_cache_hits=self.source_cache_hits - since.source_cache_hits,
            source_cache_size=self.source_cache_size,
            row_cache_size=self.row_cache_size,
            pinned_sources=self.pinned_sources,
            fast_path=self.fast_path,
            epoch=self.epoch,
            ch_query_count=self.ch_query_count - since.ch_query_count,
            tier=self.tier,
            effective_tier=self.effective_tier,
            batch_rows=self.batch_rows - since.batch_rows,
            batch_fallbacks=self.batch_fallbacks - since.batch_fallbacks,
        )

    def as_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["searches"] = self.searches
        data["hit_rate"] = self.hit_rate
        return data


@dataclass
class PerfReport:
    """Combined oracle + insertion-engine + validator counters."""

    oracle: Optional[OracleStats] = None
    insertion: InsertionStats = field(
        default_factory=lambda: INSERTION_STATS.snapshot()
    )
    validation: ValidationStats = field(
        default_factory=lambda: VALIDATION_STATS.snapshot()
    )
    watchdog: WatchdogStats = field(
        default_factory=lambda: WATCHDOG_STATS.snapshot()
    )
    candidates: CandidateStats = field(
        default_factory=lambda: CANDIDATE_STATS.snapshot()
    )
    shards: ShardStats = field(
        default_factory=lambda: SHARD_STATS.snapshot()
    )
    workload: WorkloadStats = field(
        default_factory=lambda: WORKLOAD_STATS.snapshot()
    )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "oracle": self.oracle.as_dict() if self.oracle else None,
            "insertion": self.insertion.as_dict(),
            "validation": self.validation.as_dict(),
            "watchdog": self.watchdog.as_dict(),
            "candidates": self.candidates.as_dict(),
            "shards": self.shards.as_dict(),
            "workload": self.workload.as_dict(),
        }


def report(oracle: Any = None) -> PerfReport:
    """Build a :class:`PerfReport` from an oracle (or just the engine)."""
    return PerfReport(
        oracle=OracleStats.from_oracle(oracle) if oracle is not None else None,
        insertion=INSERTION_STATS.snapshot(),
        validation=VALIDATION_STATS.snapshot(),
        watchdog=WATCHDOG_STATS.snapshot(),
        candidates=CANDIDATE_STATS.snapshot(),
        shards=SHARD_STATS.snapshot(),
        workload=WORKLOAD_STATS.snapshot(),
    )


def absorb_report(interval: PerfReport) -> None:
    """Merge a worker process's interval into this process's globals.

    The sharded dispatcher brackets each worker task with
    :meth:`PerfSnapshot.capture` and ships the delta home; absorbing it
    here makes the parent's own snapshot-delta brackets (per-frame and
    per-run) count the shard work exactly once, as if it had run inline.
    Oracle counters are absorbed separately by the dispatcher (the oracle
    is an object, not a process-wide global).
    """
    INSERTION_STATS.absorb(interval.insertion)
    VALIDATION_STATS.absorb(interval.validation)
    WATCHDOG_STATS.absorb(interval.watchdog)
    CANDIDATE_STATS.absorb(interval.candidates)
    SHARD_STATS.absorb(interval.shards)
    WORKLOAD_STATS.absorb(interval.workload)


# ----------------------------------------------------------------------
# snapshot-delta accounting
# ----------------------------------------------------------------------
@dataclass
class PerfSnapshot:
    """A frozen capture of every counter at one instant.

    Two captures bracket an interval; :meth:`since` subtracts them into
    a :class:`PerfReport` whose counters describe *only* that interval.
    This is the mechanism behind per-frame attribution: cumulative
    process-wide globals double-count across frames, deltas do not.
    """

    insertion: InsertionStats
    validation: ValidationStats
    watchdog: WatchdogStats
    oracle: Optional[OracleStats] = None
    candidates: CandidateStats = field(
        default_factory=lambda: CANDIDATE_STATS.snapshot()
    )
    shards: ShardStats = field(
        default_factory=lambda: SHARD_STATS.snapshot()
    )
    workload: WorkloadStats = field(
        default_factory=lambda: WORKLOAD_STATS.snapshot()
    )

    @classmethod
    def capture(cls, oracle: Any = None) -> "PerfSnapshot":
        """Freeze the process-wide counters (and an oracle's, if given)."""
        return cls(
            insertion=INSERTION_STATS.snapshot(),
            validation=VALIDATION_STATS.snapshot(),
            watchdog=WATCHDOG_STATS.snapshot(),
            oracle=OracleStats.from_oracle(oracle)
            if oracle is not None
            else None,
            candidates=CANDIDATE_STATS.snapshot(),
            shards=SHARD_STATS.snapshot(),
            workload=WORKLOAD_STATS.snapshot(),
        )

    def since(self, earlier: "PerfSnapshot") -> PerfReport:
        """The work done between ``earlier`` and this capture."""
        if self.oracle is not None and earlier.oracle is not None:
            oracle = self.oracle.delta(earlier.oracle)
        else:
            oracle = self.oracle
        return PerfReport(
            oracle=oracle,
            insertion=self.insertion.delta(earlier.insertion),
            validation=self.validation.delta(earlier.validation),
            watchdog=self.watchdog.delta(earlier.watchdog),
            candidates=self.candidates.delta(earlier.candidates),
            shards=self.shards.delta(earlier.shards),
            workload=self.workload.delta(earlier.workload),
        )


@dataclass
class FramePerf:
    """One dispatch frame's perf breakdown (all fields are *per-frame*).

    The counter fields are :meth:`PerfSnapshot.since` deltas bracketing
    the frame, so frame N's numbers exclude frames 1..N-1 and any
    pre-dispatcher process activity.  The timing fields are monotonic
    wall-clock sections measured inside the frame:

    - ``wall_seconds`` — the whole ``dispatch_frame`` call;
    - ``solve_seconds`` — the solver (all watchdog tiers included);
    - ``tier_seconds`` — solver time by tier name (one entry without a
      watchdog, one per attempted tier with one);
    - ``validate_seconds`` — the opt-in ``validate_frames`` audit;
    - ``roll_seconds`` — rolling every vehicle to the next clock;
    - ``disruption_seconds`` — time spent in ``Dispatcher.inject`` since
      the previous frame (disruptions strike *between* frames; their
      repair cost is attributed to the frame that follows them).
    """

    insertion: InsertionStats
    validation: ValidationStats
    watchdog: WatchdogStats
    oracle: Optional[OracleStats] = None
    candidates: CandidateStats = field(default_factory=CandidateStats)
    shards: ShardStats = field(default_factory=ShardStats)
    workload: WorkloadStats = field(default_factory=WorkloadStats)
    wall_seconds: float = 0.0
    solve_seconds: float = 0.0
    validate_seconds: float = 0.0
    roll_seconds: float = 0.0
    disruption_seconds: float = 0.0
    tier_seconds: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_reports(
        cls, interval: PerfReport, **timings: Any
    ) -> "FramePerf":
        """Build from a :meth:`PerfSnapshot.since` interval + timings."""
        return cls(
            insertion=interval.insertion,
            validation=interval.validation,
            watchdog=interval.watchdog,
            oracle=interval.oracle,
            candidates=interval.candidates,
            shards=interval.shards,
            workload=interval.workload,
            **timings,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "insertion": self.insertion.as_dict(),
            "validation": self.validation.as_dict(),
            "watchdog": self.watchdog.as_dict(),
            "oracle": self.oracle.as_dict() if self.oracle else None,
            "candidates": self.candidates.as_dict(),
            "shards": self.shards.as_dict(),
            "workload": self.workload.as_dict(),
            "wall_seconds": self.wall_seconds,
            "solve_seconds": self.solve_seconds,
            "validate_seconds": self.validate_seconds,
            "roll_seconds": self.roll_seconds,
            "disruption_seconds": self.disruption_seconds,
            "tier_seconds": dict(self.tier_seconds),
        }


def reset_insertion_stats() -> None:
    """Zero the process-wide insertion-engine counters (benchmarks/tests)."""
    INSERTION_STATS.reset()


def reset_validation_stats() -> None:
    """Zero the process-wide validator counters (benchmarks/tests)."""
    VALIDATION_STATS.reset()


def reset_watchdog_stats() -> None:
    """Zero the process-wide watchdog counters (benchmarks/tests)."""
    WATCHDOG_STATS.reset()


def reset_candidate_stats() -> None:
    """Zero the process-wide candidate-retrieval counters (benchmarks/tests)."""
    CANDIDATE_STATS.reset()


def reset_shard_stats() -> None:
    """Zero the process-wide sharded-dispatch counters (benchmarks/tests)."""
    SHARD_STATS.reset()


def reset_workload_stats() -> None:
    """Zero the process-wide arrival-generation counters (benchmarks/tests)."""
    WORKLOAD_STATS.reset()
