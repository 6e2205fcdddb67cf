"""repro.perf — lightweight performance counters for the hot paths.

Every count the evaluation reads (insertions tried, pairs pruned,
shortest-path searches, ...) lives in one :class:`Counters` family.  A
family declares three kinds of keys once, and ``snapshot``, ``delta``,
``reset`` and ``as_dict`` are written once for all of them:

- *counters* — monotonic integers, differenced by :meth:`Counters.delta`;
- *per-key counters* — a ``{name: int}`` dict differenced key by key,
  zero keys dropped (the watchdog's ``tier_uses``);
- *gauges* — current state (an oracle's ``mode``, cache sizes,
  ``epoch``, tiers), which a delta reports at its later value.

*Derived* values (``searches``, ``hit_rate``, ``pairs_pruned``, ...) are
functions of the other keys.  ``as_dict`` always includes them, and a
snapshot or delta carries them as plain attributes computed when the
copy is made; the live process-wide families do not expose them as
attributes, so that an increment on the hot path stays one instance-dict
store.

The families and what their counters mean:

- :data:`INSERTION_STATS` — the zero-copy insertion engine
  (:mod:`repro.core.insertion`);
- :data:`VALIDATION_STATS` — the independent validator (:mod:`repro.check`);
- :data:`WATCHDOG_STATS` — the anytime solver watchdog
  (``repro.core.solver.solve_anytime``);
- :data:`CANDIDATE_STATS` — candidate retrieval (:mod:`repro.core.candidates`);
- :data:`SHARD_STATS` — sharded dispatch (:mod:`repro.core.shards`);
- :data:`WORKLOAD_STATS` — arrival generation (:mod:`repro.workload.taxi`);
- :data:`ORACLE_STATS` — the template a
  :class:`~repro.roadnet.oracle.DistanceOracle`'s ``stats()`` dict is
  loaded into (oracles keep their own counters; this family only types
  and summarises them).

The process-wide families are cumulative, so reading them directly
double-counts across dispatch frames and picks up anything run earlier in
the process.  :meth:`PerfReport.capture` freezes every registered family
(plus an oracle's counters) at one instant, and :meth:`PerfReport.since`
subtracts two captures into a report of the work done in between.
:class:`FramePerf` is one dispatch frame's such interval together with
its wall-clock section timings.  ``Dispatcher.perf_report()`` and
``FrameReport.perf`` are built exclusively from these differences.

The module deliberately imports nothing from the rest of the package (the
insertion engine imports *it*), keeping the dependency graph acyclic.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Optional, Sequence, Tuple


class Counters:
    """One named family of counters, per-key counters and gauges.

    Each declared key is a plain instance attribute, so a call site
    increments it directly (``INSERTION_STATS.plans += 1``).  ``gauges``
    maps each gauge to its reset value; ``derived`` maps each derived
    value to a function of the family (see the module docstring).  The
    declarations are kept as attributes of the same names, so no key may
    reuse one of them or a method name.
    """

    def __init__(
        self,
        name: str,
        counters: Sequence[str],
        per_key: Sequence[str] = (),
        gauges: Optional[Dict[str, Any]] = None,
        derived: Optional[Dict[str, Callable[["Counters"], Any]]] = None,
    ) -> None:
        self.name = name
        self.counters = tuple(counters)
        self.per_key = tuple(per_key)
        self.gauges = dict(gauges or {})
        self.derived = dict(derived or {})
        self.reset()

    def keys(self) -> Tuple[str, ...]:
        """Every declared key (derived values excluded), in order."""
        return self.counters + self.per_key + tuple(self.gauges)

    def reset(self) -> None:
        """Zero the counters and restore the gauges (benchmarks/tests)."""
        for key in self.counters:
            setattr(self, key, 0)
        for key in self.per_key:
            setattr(self, key, {})
        for key, value in self.gauges.items():
            setattr(self, key, value)

    def _frozen(self, values: Dict[str, Any]) -> "Counters":
        frozen = copy.copy(self)
        frozen.__dict__.update(values)
        for key, value in self.derived.items():
            setattr(frozen, key, value(frozen))
        return frozen

    def snapshot(self) -> "Counters":
        """An independent copy: later increments do not reach it."""
        return self._frozen(self._values())

    def load(self, values: Dict[str, Any]) -> "Counters":
        """A copy holding ``values``, which must name every declared key."""
        if set(values) != set(self.keys()):
            raise KeyError(
                f"{self.name} counters: got {sorted(values)}, "
                f"expected {sorted(self.keys())}"
            )
        return self._frozen(values)

    def delta(self, since: "Counters") -> "Counters":
        """Work done after ``since``; gauges keep this (the later) value."""
        values: Dict[str, Any] = {
            key: getattr(self, key) - getattr(since, key)
            for key in self.counters
        }
        for key in self.per_key:
            before = getattr(since, key)
            values[key] = {
                item: count - before.get(item, 0)
                for item, count in getattr(self, key).items()
                if count - before.get(item, 0)
            }
        for key in self.gauges:
            values[key] = getattr(self, key)
        return self._frozen(values)

    def _values(self) -> Dict[str, Any]:
        """Every declared key's value, per-key dicts copied."""
        data = {key: getattr(self, key) for key in self.keys()}
        for key in self.per_key:
            data[key] = dict(data[key])
        return data

    def as_dict(self) -> Dict[str, Any]:
        data = self._values()
        for key, value in self.derived.items():
            data[key] = value(self)
        return data

    def __repr__(self) -> str:
        return f"Counters({self.name}: {self.as_dict()})"


# Families are created hottest first: CPython shares one small table of
# attribute names among the instances of a class (21 names on 3.11), and
# only the instances whose names fit in it get the fastest attribute access.

#: ``plans`` counts :func:`repro.core.insertion.plan_insertion` calls (one
#: per rider-vehicle evaluation), ``pairs_evaluated`` the candidate
#: (pickup, drop-off) positions scanned inside them, ``materializations``
#: how many winning plans were turned into real sequences, and
#: ``reference_calls`` uses of the copy-and-recompute reference path.  A
#: healthy fast path materialises far fewer sequences than it plans.
INSERTION_STATS = Counters(
    "insertion",
    ["plans", "pairs_evaluated", "materializations", "reference_calls"],
)


def _pairs_pruned(stats: Counters) -> int:
    return stats.pairs_pruned_spatial + stats.pairs_pruned_temporal


def _mean_candidates(stats: Counters) -> float:
    if not stats.retrievals:
        return 0.0
    return (stats.pairs_considered - _pairs_pruned(stats)) / stats.retrievals


#: ``retrievals`` counts pruning calls (one per rider in the solvers'
#: retrieval path, one per trip group in the GBS fast filter),
#: ``pairs_considered`` the rider-vehicle pairs entering them, and the two
#: ``pairs_pruned_*`` counters how many of those the spatial (area-centre
#: triangle bound) and temporal (the oracle's bound: the exact table entry
#: at tier 0, the landmark bound at tier 1) filters discarded
#: without an exact cost query.  ``pruned_in_error`` counts pruned pairs an
#: exact-cost audit found feasible after all; the bounds are sound, so any
#: non-zero value is a bug (the ``prune`` fuzz modes assert it stays zero;
#: the audit itself is opt-in).  Derived: ``pairs_pruned`` (both bounds),
#: ``candidates_returned`` (pairs that reached the exact filter) and
#: ``mean_candidates`` (surviving pairs per retrieval).
CANDIDATE_STATS = Counters(
    "candidates",
    ["retrievals", "pairs_considered", "pairs_pruned_spatial",
     "pairs_pruned_temporal", "pruned_in_error"],
    derived={
        "pairs_pruned": _pairs_pruned,
        "candidates_returned": lambda s: s.pairs_considered - _pairs_pruned(s),
        "mean_candidates": _mean_candidates,
    },
)

#: ``trips_generated`` counts trip records emitted by either generator.  The
#: ``dest_cache_*`` counters track the gravity sampler's per-source
#: probability cache (misses pay one full weight-vector build);
#: ``unreachable_sources`` counts pickups dropped because no destination is
#: reachable.  The ``skipped_missing_*`` counters record trips a
#: :class:`~repro.workload.taxi.PoissonTripModel` dropped because the
#: fitted model was inconsistent (arrival rate present but transition row or
#: duration pair missing): a streaming source skips these instead of
#: crashing mid-stream, and a monitoring layer should alarm on them growing.
WORKLOAD_STATS = Counters(
    "workload",
    ["trips_generated", "dest_cache_hits", "dest_cache_misses",
     "dest_cache_evictions", "unreachable_sources",
     "skipped_missing_transition", "skipped_missing_duration"],
)

#: ``frames_sharded`` counts frames routed through partition-solve-merge,
#: ``shards_solved`` the per-shard sub-solves inside them (empty shards are
#: skipped without solving and not counted).  ``riders_sharded`` /
#: ``vehicles_sharded`` count partition assignments, ``boundary_riders``
#: the unserved riders whose candidate set crossed a shard boundary, and
#: ``reconciled_riders`` how many of those the reconciliation pass served.
SHARD_STATS = Counters(
    "shards",
    ["frames_sharded", "shards_solved", "riders_sharded", "vehicles_sharded",
     "boundary_riders", "reconciled_riders"],
)

#: ``assignments`` counts full :func:`repro.check.validate_assignment`
#: audits, ``schedules`` the per-vehicle re-walks inside them (plus any
#: single-schedule debug-hook checks), ``stops`` the stops re-derived with
#: fresh oracle calls, and ``violations`` how many violations were found in
#: total.  A production run keeps ``violations`` at zero; the corruption
#: self-tests are the only expected source of non-zero counts.
VALIDATION_STATS = Counters(
    "validation", ["assignments", "schedules", "stops", "violations"]
)

#: ``frames`` counts watchdog-guarded solves, ``fallbacks`` how many of them
#: were served by a tier below the configured method, and
#: ``budget_exceeded`` how many overran their wall-clock budget (the
#: accepted result is still committed; the overrun is only recorded).
#: ``tier_uses`` breaks the serving tier down by name; the ultimate last
#: resort is ``"baseline"``, the carried-in residual plans.
WATCHDOG_STATS = Counters(
    "watchdog", ["frames", "fallbacks", "budget_exceeded"],
    per_key=["tier_uses"],
)


def _searches(stats: Counters) -> int:
    return (
        stats.dijkstra_count
        + stats.bidirectional_count
        + stats.ch_space_searches
        + stats.batch_rows
        - stats.batch_fallbacks
        + stats.landmark_rows
    )


def _hit_rate(stats: Counters) -> float:
    if stats.query_count == 0:
        return 0.0
    if stats.mode == "apsp":
        return 1.0
    return max(0.0, 1.0 - _searches(stats) / stats.query_count)


#: A :meth:`~repro.roadnet.oracle.DistanceOracle.stats` dict, typed.
#: ``query_count`` counts the queries routed through
#: :meth:`DistanceOracle.cost`; when ``fast_path`` is true the oracle has
#: handed out a counter-bypassing ``fast_cost_fn`` closure, so it
#: undercounts the real query volume.  ``batch_rows`` counts rows filled by
#: the batched many-source pass (pinned rows, the tier-0 table, the cover's
#: hop-local rows) and ``batch_fallbacks`` how many of them the verifier
#: sent back to ``dijkstra()`` (also in ``dijkstra_count``).
#: ``landmark_rows`` counts the ``dijkstra()`` runs that pick and fill the
#: tier-1 landmark rows (not in ``dijkstra_count``; a new epoch re-fills
#: the kept landmarks' rows in the batched pass, ``batch_rows``), and
#: ``nodes_recontracted`` the nodes whose witness searches a rebuild
#: after a metric change ran again (the others replayed their record).
#: ``ch_space_searches`` counts the upward search spaces the tier-1
#: hierarchy searched; a CH query (``ch_query_count``) whose two spaces
#: are cached searches nothing.
#: Derived: ``searches``, the graph work (Dijkstras, bidirectional runs, CH
#: space searches, batched rows, each fallback row counted once, and
#: landmark searches),
#: and ``hit_rate``, the fraction of queries answered without a search.
#: Every search counts as a miss; in APSP mode every query after the
#: build is a table read, so the rate is 1.  It is clamped at 0 because
#: ``costs_from``-heavy phases can run more Dijkstras than there are
#: counted point queries.
ORACLE_STATS = Counters(
    "oracle",
    ["query_count", "dijkstra_count", "bidirectional_count",
     "ch_query_count", "ch_space_searches", "pair_cache_hits",
     "source_cache_hits", "batch_rows", "batch_fallbacks",
     "landmark_rows", "nodes_recontracted"],
    gauges={
        "mode": "", "nodes": 0, "pair_cache_size": 0,
        "source_cache_size": 0, "row_cache_size": 0, "pinned_sources": 0,
        "fast_path": False, "epoch": 0, "tier": 2,
    },
    derived={"searches": _searches, "hit_rate": _hit_rate},
)

#: The process-wide families every :class:`PerfReport` captures.
REGISTRY = (
    INSERTION_STATS, VALIDATION_STATS, WATCHDOG_STATS, CANDIDATE_STATS,
    SHARD_STATS, WORKLOAD_STATS,
)


class PerfReport:
    """Every registered family (and an oracle's counters) as attributes.

    :meth:`capture` freezes the families at one instant; :meth:`since`
    subtracts an earlier capture, so the report's counters describe only
    the interval between the two.  ``oracle`` is ``None`` when no oracle
    was captured.
    """

    def __init__(self, families: Dict[str, Optional[Counters]]) -> None:
        self.families = families
        self.__dict__.update(families)

    @classmethod
    def capture(cls, oracle: Any = None) -> "PerfReport":
        """Freeze the process-wide counters (and an oracle's, if given)."""
        families: Dict[str, Optional[Counters]] = {
            "oracle": (
                ORACLE_STATS.load(oracle.stats()) if oracle is not None
                else None
            ),
        }
        for family in REGISTRY:
            families[family.name] = family.snapshot()
        return cls(families)

    def since(self, earlier: "PerfReport") -> "PerfReport":
        """The work done between ``earlier`` and this capture.

        An oracle captured now but not then is reported cumulatively.
        """
        return PerfReport({
            name: family.delta(earlier.families[name])
            if family is not None and earlier.families[name] is not None
            else family
            for name, family in self.families.items()
        })

    def as_dict(self) -> Dict[str, Any]:
        return {
            name: family.as_dict() if family is not None else None
            for name, family in self.families.items()
        }


class FramePerf(PerfReport):
    """One dispatch frame's perf breakdown (all fields are *per-frame*).

    The families are the :meth:`PerfReport.since` interval bracketing the
    frame, so frame N's numbers exclude frames 1..N-1 and any
    pre-dispatcher process activity.  The timing fields are monotonic
    wall-clock sections measured inside the frame:

    - ``wall_seconds`` — the whole ``dispatch_frame`` call;
    - ``build_seconds`` — building the frame's instance (re-reading the
      changed vehicles and drawing the mu_v table);
    - ``solve_seconds`` — the solver (all watchdog tiers included);
    - ``tier_seconds`` — solver time by tier name (one entry without a
      watchdog, one per attempted tier with one);
    - ``audit_seconds`` — the frame audit;
    - ``roll_seconds`` — rolling every vehicle to the next clock;
    - ``disruption_seconds`` — time spent in ``Dispatcher.inject`` since
      the previous frame (disruptions strike *between* frames; their
      repair cost is attributed to the frame that follows them).

    Two counts show how much of the fleet the frame had to look at:

    - ``vehicles_rebuilt`` — vehicles whose carried state changed, so the
      dispatcher built a new solver-side ``Vehicle`` for them (since the
      previous frame, the roll of this one included);
    - ``vehicles_audited`` — vehicles whose schedule the frame audit
      checked: the solver's writes plus the changed vehicles.
    """

    def __init__(
        self,
        interval: PerfReport,
        wall_seconds: float = 0.0,
        solve_seconds: float = 0.0,
        roll_seconds: float = 0.0,
        disruption_seconds: float = 0.0,
        tier_seconds: Optional[Dict[str, float]] = None,
        build_seconds: float = 0.0,
        audit_seconds: float = 0.0,
        vehicles_rebuilt: int = 0,
        vehicles_audited: int = 0,
    ) -> None:
        super().__init__(interval.families)
        self.wall_seconds = wall_seconds
        self.build_seconds = build_seconds
        self.solve_seconds = solve_seconds
        self.audit_seconds = audit_seconds
        self.roll_seconds = roll_seconds
        self.disruption_seconds = disruption_seconds
        self.tier_seconds = dict(tier_seconds or {})
        self.vehicles_rebuilt = vehicles_rebuilt
        self.vehicles_audited = vehicles_audited

    def as_dict(self) -> Dict[str, Any]:
        data = super().as_dict()
        data.update(
            wall_seconds=self.wall_seconds,
            build_seconds=self.build_seconds,
            solve_seconds=self.solve_seconds,
            audit_seconds=self.audit_seconds,
            roll_seconds=self.roll_seconds,
            disruption_seconds=self.disruption_seconds,
            tier_seconds=dict(self.tier_seconds),
            vehicles_rebuilt=self.vehicles_rebuilt,
            vehicles_audited=self.vehicles_audited,
        )
        return data
