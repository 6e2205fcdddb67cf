"""Traced run: per-layer time and counts, measured from outside the program.

:class:`Tracer` wraps the public entry points of every layer -- patched
where each name is looked up, so a function imported by name into another
module is wrapped there too -- and restores them when the stream ends.
Every wrapper keeps a stack of open calls: a call's self time is its
duration minus the time of the wrapped calls nested in it, so the self
times of all layers partition the traced time.  Coarse calls (batches,
frames, solves, shard steps, disruptions, durability) are kept as spans
in memory and written out when the run ends; hot leaf calls (oracle
queries, insertion probes) only add to their layer's totals.

Counts come from the program's own ``repro.perf`` counters and oracle
fields, read (never reset) before and after the stream.  A counter or
entry point a later version no longer has reads as 0 instead of breaking
the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

from repro.core.candidates import CandidateIndex
from repro.core.dispatch import Dispatcher
from repro.core import durability as _durability
from repro.core import shards as _shards
from repro.roadnet.contraction import ContractionHierarchy
from repro.roadnet.oracle import DistanceOracle
from repro.service import StreamingEngine
from repro.workload.taxi import TaxiTripSimulator
import repro.perf as _perf

#: per-layer metric -> (unit, better)
PER_LAYER_SPEC = {
    "setup.network_s": ("s", "lower"),
    "setup.oracle_s": ("s", "lower"),
    "setup.dispatcher_s": ("s", "lower"),
    "setup.oracle_builds": ("count", "lower"),
    "workload.tripgen_s": ("s", "lower"),
    "workload.trips": ("count", "higher"),
    "workload.dest_cache_hit_rate": ("fraction", "higher"),
    "service.self_s": ("s", "lower"),
    "service.batches": ("count", "lower"),
    "service.count_triggers": ("count", "lower"),
    "service.open_spans_max": ("count", "lower"),
    "dispatch.self_s": ("s", "lower"),
    "dispatch.roll_s": ("s", "lower"),
    "dispatch.carried": ("count", "lower"),
    "solver.s": ("s", "lower"),
    "solver.riders_offered": ("count", "lower"),
    "solver.serve_ratio": ("fraction", "higher"),
    "candidates.s": ("s", "lower"),
    "candidates.pairs_considered": ("count", "lower"),
    "candidates.pruned_frac": ("fraction", "higher"),
    "insertion.s": ("s", "lower"),
    "insertion.plans": ("count", "lower"),
    "insertion.pairs_evaluated": ("count", "lower"),
    "oracle.s": ("s", "lower"),
    "oracle.share": ("fraction", "lower"),
    "oracle.queries": ("count", "lower"),
    "oracle.ch_queries": ("count", "lower"),
    "oracle.dijkstras": ("count", "lower"),
    "oracle.pair_cache_hit_rate": ("fraction", "higher"),
    "oracle.rebuilds": ("count", "lower"),
    "oracle.rebuild_s": ("s", "lower"),
    "shards.partition_s": ("s", "lower"),
    "shards.solve_s": ("s", "lower"),
    "shards.merge_s": ("s", "lower"),
    "shards.reconcile_s": ("s", "lower"),
    "shards.boundary_riders": ("count", "lower"),
    "shards.reconciled_riders": ("count", "higher"),
    "disruptions.events": ("count", "lower"),
    "disruptions.applied": ("count", "higher"),
    "disruptions.repair_s": ("s", "lower"),
    "durability.commits": ("count", "lower"),
    "durability.snapshots": ("count", "lower"),
    "durability.bytes": ("bytes", "lower"),
    "durability.s": ("s", "lower"),
    "trace.unattributed_frac": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}
PER_LAYER = {name: unit for name, (unit, _) in PER_LAYER_SPEC.items()}

#: layers whose self time lies inside the batches (the bench hook does not)
BATCH_LAYERS = (
    "service", "dispatch", "solver", "candidates", "insertion", "oracle",
    "oracle.rebuild", "shards", "shards.partition", "shards.merge",
    "shards.reconcile", "disruptions", "durability",
)

#: names patched in every loaded ``repro`` module that binds them
_INSERTION_NAMES = ("plan_insertion", "arrange_single_rider")


def _read(obj, name: str) -> float:
    """A counter of the program, or 0 when this version lacks it."""
    return getattr(obj, name, 0) if obj is not None else 0


def _wchar() -> int:
    """Bytes this process has written through write(2) so far (Linux)."""
    try:
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    """Span stack, per-layer totals and the patches that feed them."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self.oracle_builds = 0
        self.open_spans_max = 0
        self.durability_bytes = 0
        self._stack: List[List[float]] = []
        self._patches: List[tuple] = []
        self._counters_before: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self._oracle = None

    # -- wrapping ------------------------------------------------------
    def timed(self, layer: str, fn: Callable, key: str = "", span: bool = False):
        stack = self._stack
        self_s, incl_s, calls, spans = self.self_s, self.incl_s, self.calls, self.spans
        perf = time.perf_counter
        key = key or layer

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                incl_s[layer] += duration
                calls[key] += 1
                if stack:
                    stack[-1][0] += duration
                if span:
                    spans.append((layer, start, end, len(stack)))

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _wrap(self, owner, name: str, layer: str, key: str = "", span: bool = False) -> None:
        """Time ``owner.name`` as ``layer``; a name this version lacks is skipped."""
        if name in vars(owner):
            self._patch(owner, name, self.timed(layer, getattr(owner, name), key=key, span=span))

    def _restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def wrap_hook(self, hook: Callable) -> Callable:
        """The benchmark's own boundary hook: traced, outside every batch."""
        return self.timed("bench", hook, span=True)

    # -- set-up --------------------------------------------------------
    def begin_setup(self) -> None:
        original = DistanceOracle.__init__
        tracer = self

        def counting_init(oracle, *args, **kwargs):
            tracer.oracle_builds += 1
            original(oracle, *args, **kwargs)

        self._patch(DistanceOracle, "__init__", counting_init)

    def end_setup(self) -> None:
        self._restore()

    # -- stream --------------------------------------------------------
    def begin_stream(self, dispatcher) -> None:
        self._oracle = dispatcher.oracle
        self._counters_before = self._read_counters()
        dispatch = sys.modules["repro.core.dispatch"]
        self._wrap(StreamingEngine, "process", "service", span=True)
        self._wrap(Dispatcher, "dispatch_frame", "dispatch", span=True)
        self._wrap(Dispatcher, "inject", "disruptions", span=True)
        self._wrap(dispatch, "solve", "solver", span=True)
        self._wrap(_shards, "solve", "solver", span=True)
        self._wrap(dispatch, "solve_sharded", "shards", span=True)
        self._wrap(_shards, "partition_frame", "shards.partition", span=True)
        self._wrap(_shards, "merge_shard_results", "shards.merge", span=True)
        self._wrap(_shards, "reconcile_boundary", "shards.reconcile", span=True)
        self._wrap(CandidateIndex, "prune", "candidates")
        for name in _INSERTION_NAMES:
            original = getattr(sys.modules["repro.core.insertion"], name, None)
            if original is None:
                continue
            wrapped = self.timed("insertion", original, key=name)
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is original
                ):
                    self._patch(module, name, wrapped)
        self._patch_oracle()
        self._patch_durability()

    def _patch_oracle(self) -> None:
        for name in ("cost", "costs_from", "lower_bound", "invalidate"):
            self._wrap(DistanceOracle, name, "oracle", key=f"oracle.{name}")
        self._patch(DistanceOracle, "__call__", DistanceOracle.cost)
        original_fast = DistanceOracle.fast_cost_fn
        timed = self.timed

        def fast_cost_fn(oracle):
            fn = original_fast(oracle)
            if getattr(fn, "__self__", None) is oracle:
                return fn  # the (already wrapped) bound cost method
            return timed("oracle", fn, key="oracle.fast")

        self._patch(DistanceOracle, "fast_cost_fn", fast_cost_fn)
        self._wrap(ContractionHierarchy, "__init__", "oracle.rebuild", span=True)

    def _patch_durability(self) -> None:
        log = _durability.DurabilityLog
        for name in ("commit_frame", "write_snapshot"):
            if name in vars(log):
                timed = self.timed(
                    "durability", getattr(log, name), key=f"durability.{name}", span=True
                )
                self._patch(log, name, self._counting_bytes(timed))

    def _counting_bytes(self, fn: Callable) -> Callable:
        tracer = self
        depth = [0]

        def wrapper(*args, **kwargs):
            depth[0] += 1
            before = _wchar() if depth[0] == 1 else 0
            try:
                return fn(*args, **kwargs)
            finally:
                if depth[0] == 1:
                    tracer.durability_bytes += _wchar() - before
                depth[0] -= 1

        return wrapper

    def on_batch(self, engine, batch) -> None:
        open_spans = sum(1 for span in engine.spans.values() if not span.closed)
        self.open_spans_max = max(self.open_spans_max, open_spans)

    def end_stream(self) -> None:
        self._restore()
        after = self._read_counters()
        self.counters = {
            key: after[key] - self._counters_before.get(key, 0) for key in after
        }
        self._oracle = None

    def _read_counters(self) -> Dict[str, float]:
        ins = getattr(_perf, "INSERTION_STATS", None)
        cand = getattr(_perf, "CANDIDATE_STATS", None)
        shard = getattr(_perf, "SHARD_STATS", None)
        oracle = self._oracle
        return {
            "insertion.plans": _read(ins, "plans"),
            "insertion.pairs_evaluated": _read(ins, "pairs_evaluated"),
            "candidates.pairs_considered": _read(cand, "pairs_considered"),
            "candidates.pruned": _read(cand, "pairs_pruned_spatial")
            + _read(cand, "pairs_pruned_temporal"),
            "shards.boundary_riders": _read(shard, "boundary_riders"),
            "shards.reconciled_riders": _read(shard, "reconciled_riders"),
            "oracle.query_count": _read(oracle, "query_count"),
            "oracle.ch_query_count": _read(oracle, "ch_query_count"),
            "oracle.dijkstra_count": _read(oracle, "dijkstra_count"),
            "oracle.pair_cache_hits": _read(oracle, "pair_cache_hits"),
        }

    def write_spans(self, path: Path) -> None:
        """Write the kept spans (seconds since the first) as JSON lines."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, depth in self.spans:
                fh.write(json.dumps({
                    "layer": layer,
                    "start_s": start - origin,
                    "end_s": end - origin,
                    "depth": depth,
                }) + "\n")


class TripgenTrace:
    """Times ``TaxiTripSimulator.generate_frame`` during input generation."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.hits = 0
        self.misses = 0
        self.trips = 0

    def __enter__(self):
        stats = getattr(_perf, "WORKLOAD_STATS", None)
        self._before = (
            _read(stats, "dest_cache_hits"),
            _read(stats, "dest_cache_misses"),
            _read(stats, "trips_generated"),
        )
        self.tracer._wrap(TaxiTripSimulator, "generate_frame", "workload")
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer._restore()
        stats = getattr(_perf, "WORKLOAD_STATS", None)
        self.hits = _read(stats, "dest_cache_hits") - self._before[0]
        self.misses = _read(stats, "dest_cache_misses") - self._before[1]
        self.trips = _read(stats, "trips_generated") - self._before[2]
        return False

    @property
    def seconds(self) -> float:
        return self.tracer.incl_s["workload"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracers, traced, plain, tripgen, out_dir: Path) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced episodes of one run."""
    rows = [
        _episode_layers(tracer, ep, ep.scale) for tracer, ep in zip(tracers, traced)
    ]
    values = {
        name: statistics.median(row[name] for row in rows) for name in rows[0]
    }
    plain_s = statistics.median(sum(ep.batch_cal_s) for ep in plain)
    traced_s = statistics.median(sum(ep.batch_cal_s) for ep in traced)
    values["trace.overhead_frac"] = _ratio(traced_s, plain_s) - 1.0
    values["workload.tripgen_s"] = tripgen.seconds * plain[0].scale
    values["workload.trips"] = tripgen.trips
    values["workload.dest_cache_hit_rate"] = _ratio(
        tripgen.hits, tripgen.hits + tripgen.misses
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    tracers[-1].write_spans(out_dir / "spans.jsonl")
    return values


def _episode_layers(tracer: Tracer, ep, scale: float) -> Dict[str, float]:
    s, incl, calls, c = tracer.self_s, tracer.incl_s, tracer.calls, tracer.counters
    batch_total = ep.stream_s
    attributed = sum(s[layer] for layer in BATCH_LAYERS)
    offered = sum(f[0] for f in ep.frames)
    considered = c["candidates.pairs_considered"]
    shard_steps = incl["shards.partition"] + incl["shards.merge"] + incl["shards.reconcile"]
    oracle_s = s["oracle"] + s["oracle.rebuild"]
    return {
        "setup.network_s": ep.setup_cal_s["network_s"],
        "setup.oracle_s": ep.setup_cal_s["oracle_s"],
        "setup.dispatcher_s": ep.setup_cal_s["dispatcher_s"],
        "setup.oracle_builds": tracer.oracle_builds,
        "service.self_s": s["service"] * scale,
        "service.batches": len(ep.batch_s),
        "service.count_triggers": ep.triggers.get("count", 0),
        "service.open_spans_max": tracer.open_spans_max,
        "dispatch.self_s": s["dispatch"] * scale,
        "dispatch.roll_s": sum(f[3] for f in ep.frames) * scale,
        "dispatch.carried": sum(f[1] for f in ep.frames),
        "solver.s": s["solver"] * scale,
        "solver.riders_offered": offered,
        "solver.serve_ratio": _ratio(sum(f[2] for f in ep.frames), offered),
        "candidates.s": s["candidates"] * scale,
        "candidates.pairs_considered": considered,
        "candidates.pruned_frac": _ratio(c["candidates.pruned"], considered),
        "insertion.s": s["insertion"] * scale,
        "insertion.plans": c["insertion.plans"],
        "insertion.pairs_evaluated": c["insertion.pairs_evaluated"],
        "oracle.s": oracle_s * scale,
        "oracle.share": _ratio(oracle_s, batch_total),
        "oracle.queries": sum(
            calls[key] for key in (
                "oracle.cost", "oracle.fast", "oracle.costs_from", "oracle.lower_bound",
            )
        ),
        "oracle.ch_queries": c["oracle.ch_query_count"],
        "oracle.dijkstras": c["oracle.dijkstra_count"],
        "oracle.pair_cache_hit_rate": _ratio(
            c["oracle.pair_cache_hits"], c["oracle.query_count"]
        ),
        "oracle.rebuilds": calls["oracle.rebuild"],
        "oracle.rebuild_s": incl["oracle.rebuild"] * scale,
        "shards.partition_s": incl["shards.partition"] * scale,
        "shards.solve_s": max(incl["shards"] - shard_steps, 0.0) * scale,
        "shards.merge_s": incl["shards.merge"] * scale,
        "shards.reconcile_s": incl["shards.reconcile"] * scale,
        "shards.boundary_riders": c["shards.boundary_riders"],
        "shards.reconciled_riders": c["shards.reconciled_riders"],
        "disruptions.events": sum(1 for _ in ep.disruption_outcomes),
        "disruptions.applied": sum(1 for o in ep.disruption_outcomes if o.applied),
        "disruptions.repair_s": incl["disruptions"] * scale,
        "durability.commits": calls["durability.commit_frame"],
        "durability.snapshots": calls["durability.write_snapshot"],
        "durability.bytes": tracer.durability_bytes,
        "durability.s": s["durability"] * scale,
        "trace.unattributed_frac": _ratio(batch_total - attributed, batch_total),
    }
