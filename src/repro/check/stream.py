"""Streaming-vs-batch differential fuzzing (``--stream``).

The streaming engine's contract (:mod:`repro.service`) is that a
micro-batch trigger pinned to the dispatcher's ``frame_length`` — an
interval of exactly one frame, with an unbounded count trigger — is
*indistinguishable* from the batch rolling-horizon loop: same frames,
same assignments, same carry-over queue, same rider ledger, same fleet.
Each seed here proves that contract on a randomized scenario, then
stress-tests the count trigger on the same arrival stream.

Every seed draws one multi-frame dispatcher scenario (network, fleet,
method, utility weights, per-frame request batches) and runs two legs:

1. **lockstep differential** — a batch dispatcher consumes each frame's
   riders via :meth:`Dispatcher.dispatch_frame` while a second,
   identically-configured dispatcher consumes the same riders as timed
   :class:`~repro.service.Arrival` events through a
   :class:`~repro.service.StreamingEngine` whose ``delta_t`` equals the
   frame length.  After every frame the two live dispatchers are
   compared stop-for-stop with the prune fuzzer's equality oracle
   (:func:`repro.check.fuzz._compare_prune_frames`): served sets,
   utilities, schedules, arrival times, carry-over queues and ledgers
   must all match, and the clocks must agree exactly.
2. **count-trigger invariants** — a third dispatcher replays the whole
   arrival stream through the engine with a small ``max_batch``, so
   frames fire at arrival-driven, variable-length horizons.  Every
   fired micro-batch goes through the independent assignment validator
   and the cross-frame invariant checks
   (:func:`repro.check.fuzz._check_frame_invariants`), the rider ledger
   is re-proven conserved at every boundary, and the engine's span
   accounting must close: delivered + expired + cancelled + open equals
   admitted.  (Skipped on chaos seeds — disruptions between ``process``
   calls are exercised by the differential leg.)

Scenario modes mirror the other fuzzers: a fraction of seeds run
sharded (on both dispatchers), a fraction on a
shared tier-1 (CH + ALT) distance oracle, and a fraction under chaos —
seeded mid-horizon disruptions drawn from the *batch* dispatcher's
state and injected into both dispatchers at the same frame boundary, on
private copies of the road network so the mutations stay independent.

Frame lengths are drawn on a quarter-minute lattice so the two clocks
accumulate bit-identically — the contract is exact equality, not
tolerance, and the fuzzer must not manufacture 1-ulp divergence the
engine itself never produces.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.dispatch import DispatchError, Dispatcher
from repro.core.requests import Rider
from repro.core.vehicles import Vehicle
from repro.obs import trace as _trace
from repro.roadnet.oracle import DistanceOracle
from repro.service import Arrival, StreamingEngine
from repro.check.fuzz import (
    FuzzConfig,
    FuzzFailure,
    FuzzRunReport,
    _chaos_events,
    _check_frame_invariants,
    _check_ledger,
    _compare_prune_frames,
    _dispatch_requests,
    _network_for,
    _plan_for,
    _WEIGHT_PROFILES,
)

#: Modes a seed can draw (the remainder of the roll runs "plain").
STREAM_MODES: Tuple[str, ...] = ("plain", "sharded", "tiered", "chaos")


@dataclass
class StreamFuzzConfig:
    """Shape of the randomized streaming differential scenarios.

    The dispatch grid matches :class:`CrashFuzzConfig`;
    ``shard_fraction`` / ``tiered_fraction`` / ``chaos_fraction`` carve
    the seed space into modes (the remainder runs the default matcher on
    the untiered oracle).  ``min_riders_per_frame`` deliberately allows
    empty frames: an interval trigger must fire — and stay equivalent —
    on windows with no arrivals at all.  The ``p_*`` probabilities feed
    :func:`repro.check.fuzz._chaos_events` on chaos seeds.
    """

    grid_rows: int = 6
    grid_cols: int = 6
    num_networks: int = 4
    min_frames: int = 4
    max_frames: int = 6
    min_riders_per_frame: int = 0
    max_riders_per_frame: int = 5
    min_vehicles: int = 1
    max_vehicles: int = 3
    max_capacity: int = 3
    methods: Tuple[str, ...] = ("eg", "ba", "cf", "gbs+eg")
    shard_fraction: float = 0.2
    tiered_fraction: float = 0.2
    chaos_fraction: float = 0.25
    shard_count: int = 4
    max_batch_range: Tuple[int, int] = (2, 4)
    p_breakdown: float = 0.25
    p_cancel: float = 0.45
    p_perturb: float = 0.35
    p_closure: float = 0.2


@dataclass
class StreamSeedReport:
    """Everything one streaming differential trial produced."""

    seed: int
    method: str = ""
    mode: str = "plain"
    num_frames: int = 0
    num_vehicles: int = 0
    frame_length: float = 0.0
    max_retries: int = 1
    max_batch: int = 0
    num_events: int = 0
    total_requests: int = 0
    total_served: int = 0
    count_batches: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    # keep the FuzzRunReport aggregation happy
    scenario: str = "stream"
    num_riders: int = 0


def _arrivals_for(requests: List[Rider], frame: int, length: float) -> List[Arrival]:
    """Timed arrivals for one frame's riders, in batch list order.

    Timestamps are strictly increasing inside the open window and stay
    clear of the closing boundary, so the buffered order the engine
    dispatches matches the list order the batch dispatcher saw.
    """
    count = len(requests)
    return [
        Arrival(rider=rider, time=frame * length + (i + 0.5) / count * length)
        for i, rider in enumerate(requests)
    ]


def fuzz_stream_seed(
    seed: int, config: Optional[StreamFuzzConfig] = None
) -> StreamSeedReport:
    """Run one seeded streaming-vs-batch differential trial."""
    with _trace.span("fuzz.seed", kind="stream", seed=seed) as seed_span:
        report = _fuzz_stream_seed_impl(seed, config)
        seed_span.annotate(ok=report.ok, failures=len(report.failures))
    return report


def _fuzz_stream_seed_impl(
    seed: int, config: Optional[StreamFuzzConfig]
) -> StreamSeedReport:
    config = config or StreamFuzzConfig()
    rng = np.random.default_rng(seed)
    net_config = FuzzConfig(
        grid_rows=config.grid_rows,
        grid_cols=config.grid_cols,
        num_networks=config.num_networks,
    )
    base_network, base_oracle = _network_for(net_config, seed)

    # ------------------------------------------------------------------
    # scenario draw (everything up front, so every leg sees identical
    # inputs and the mode is a pure function of the seed)
    # ------------------------------------------------------------------
    mode_roll = float(rng.uniform())
    if mode_roll < config.shard_fraction:
        mode = "sharded"
    elif mode_roll < config.shard_fraction + config.tiered_fraction:
        mode = "tiered"
    elif mode_roll < (
        config.shard_fraction + config.tiered_fraction + config.chaos_fraction
    ):
        mode = "chaos"
    else:
        mode = "plain"

    method = config.methods[int(rng.integers(len(config.methods)))]
    if mode == "chaos" and method.startswith("gbs"):
        # the grouping plan is precomputed per network and chaos mutates
        # the network mid-run (same exclusion as the chaos fuzzer)
        method = "eg"
    alpha, beta = _WEIGHT_PROFILES[int(rng.integers(len(_WEIGHT_PROFILES)))]
    num_frames = int(rng.integers(config.min_frames, config.max_frames + 1))
    num_vehicles = int(
        rng.integers(config.min_vehicles, config.max_vehicles + 1)
    )
    if mode == "chaos":
        # a breakdown can only apply with a vehicle to spare
        num_vehicles = max(num_vehicles, 2)
    # quarter-minute lattice: clock accumulation stays bit-exact in both
    # the batch loop and the engine's trigger arithmetic
    frame_length = float(rng.integers(12, 33)) / 4.0
    max_retries = int(rng.integers(1, 5))
    max_batch = int(
        rng.integers(config.max_batch_range[0], config.max_batch_range[1] + 1)
    )
    fleet_spec = [
        (
            j,
            int(rng.integers(base_network.num_nodes)),
            int(rng.integers(1, config.max_capacity + 1)),
        )
        for j in range(num_vehicles)
    ]

    # chaos mutates the road network, so each dispatcher gets a private
    # copy with its own oracle; the other modes share the cached pair
    if mode == "chaos":
        batch_network = base_network.copy()
        stream_network = base_network.copy()
        batch_oracle = DistanceOracle(batch_network)
        stream_oracle = DistanceOracle(stream_network)
    elif mode == "tiered":
        batch_network = stream_network = base_network
        batch_oracle = stream_oracle = DistanceOracle(base_network, tier=1)
    else:
        batch_network = stream_network = base_network
        batch_oracle = stream_oracle = base_oracle

    # the full request stream against deterministic frame starts (chaos
    # perturbs costs mid-run, but deadlines are drawn up front from the
    # unperturbed oracle so both runs see the same riders)
    frames: List[List[Rider]] = []
    rider_id = 0
    for frame in range(num_frames):
        count = int(
            rng.integers(
                config.min_riders_per_frame, config.max_riders_per_frame + 1
            )
        )
        frames.append(
            _dispatch_requests(
                base_network, base_oracle, rng, count, frame * frame_length,
                frame_length, rider_id,
            )
        )
        rider_id += count
    arrival_frames = [
        _arrivals_for(batch, frame, frame_length)
        for frame, batch in enumerate(frames)
    ]
    issued = {r.rider_id for batch in frames for r in batch}

    report = StreamSeedReport(
        seed=seed,
        method=method,
        mode=mode,
        num_frames=num_frames,
        num_vehicles=num_vehicles,
        frame_length=frame_length,
        max_retries=max_retries,
        max_batch=max_batch,
        num_riders=rider_id,
    )
    failures = report.failures

    def fail(stage: str, detail: str) -> None:
        failures.append(
            FuzzFailure(seed=seed, stage=stage, method=method, detail=detail)
        )

    plan = _plan_for(base_network) if method.startswith("gbs") else None

    def make_dispatcher(network, oracle) -> Dispatcher:
        kwargs: dict = {}
        if mode == "sharded":
            kwargs.update(shard_workers=1, shard_count=config.shard_count)
        return Dispatcher(
            network,
            [Vehicle(vehicle_id=j, location=loc, capacity=cap)
             for j, loc, cap in fleet_spec],
            method=method,
            frame_length=frame_length,
            plan=plan,
            alpha=alpha,
            beta=beta,
            oracle=oracle,
            seed=seed,
            max_retries=max_retries,
        )

    # ------------------------------------------------------------------
    # leg 1: lockstep differential — interval trigger pinned to the
    # frame length must reproduce the batch run frame-for-frame
    # ------------------------------------------------------------------
    chaos_rng = np.random.default_rng((seed << 1) ^ 0x57EA)
    with make_dispatcher(batch_network, batch_oracle) as batch, \
            make_dispatcher(stream_network, stream_oracle) as stream:
        engine = StreamingEngine(stream, delta_t=frame_length)
        for frame in range(num_frames):
            try:
                batch_report = batch.dispatch_frame(frames[frame])
            except DispatchError as exc:
                fail("stream_batch", f"frame {frame}: batch leg: {exc}")
                break
            try:
                fired = engine.process(
                    arrival_frames[frame], until=(frame + 1) * frame_length
                )
            except DispatchError as exc:
                fail("stream_engine", f"frame {frame}: stream leg: {exc}")
                break
            if len(fired) != 1 or fired[0].trigger != "interval":
                fail(
                    "stream_trigger",
                    f"frame {frame}: pinned interval trigger fired "
                    f"{[(b.trigger, b.solved_at) for b in fired]} instead "
                    f"of one interval frame",
                )
                break
            stream_batch = fired[0]
            if stream_batch.report.num_requests != len(frames[frame]):
                fail(
                    "stream_trigger",
                    f"frame {frame}: engine admitted "
                    f"{stream_batch.report.num_requests} new riders, "
                    f"batch saw {len(frames[frame])}",
                )
            if batch.clock != stream.clock:
                fail(
                    "stream_clock",
                    f"frame {frame}: clocks diverge: batch={batch.clock!r} "
                    f"stream={stream.clock!r}",
                )
            _compare_prune_frames(
                frame, "stream", batch, stream, batch_report,
                stream_batch.report, fail,
            )
            if failures:
                break

            # chaos boundary: events drawn from the batch dispatcher's
            # state, replayed into both (skipped after the final frame)
            if mode != "chaos" or frame == num_frames - 1:
                continue
            events = _chaos_events(batch, batch_network, chaos_rng, config)
            if not events:
                continue
            report.num_events += len(events)
            try:
                batch_outcomes = batch.inject(events)
                stream_outcomes = stream.inject(copy.deepcopy(events))
            except Exception as exc:  # noqa: BLE001 — any inject failure is a bug
                fail(
                    "stream_inject",
                    f"frame {frame}: {type(exc).__name__}: {exc}",
                )
                break
            applied = [o.applied for o in batch_outcomes]
            if applied != [o.applied for o in stream_outcomes]:
                fail(
                    "stream_inject",
                    f"frame {frame}: disruption outcomes diverge: "
                    f"batch={applied} "
                    f"stream={[o.applied for o in stream_outcomes]}",
                )
                break
            if batch.ledger != stream.ledger:
                fail(
                    "stream_inject",
                    f"frame {frame}: ledgers diverge after identical "
                    f"disruptions",
                )
                break
        else:
            if batch.fleet_locations() != stream.fleet_locations():
                fail(
                    "stream_fleet",
                    f"final fleet locations diverge: "
                    f"batch={batch.fleet_locations()} "
                    f"stream={stream.fleet_locations()}",
                )
        report.total_requests = batch.total_requests
        report.total_served = batch.total_served

    # ------------------------------------------------------------------
    # leg 2: count-trigger invariants on the same arrival stream
    # (chaos seeds stop here: the differential leg already replayed
    # their disruptions, and this leg's stream has no event schedule)
    # ------------------------------------------------------------------
    if mode == "chaos" or failures:
        return report

    all_arrivals = [a for frame in arrival_frames for a in frame]
    oracle = (
        DistanceOracle(base_network, tier=1) if mode == "tiered"
        else base_oracle
    )
    with make_dispatcher(base_network, oracle) as dispatcher:
        state = {"pending": 0}

        def audit(eng: StreamingEngine, fired_batch) -> None:
            _check_frame_invariants(
                dispatcher, fired_batch.report, fired_batch.index,
                state["pending"], max_retries, fail,
            )
            _check_ledger(
                dispatcher, set(eng.spans), fail,
                f"count batch {fired_batch.index}",
            )
            state["pending"] = len(dispatcher.pending_requests)

        engine = StreamingEngine(
            dispatcher, delta_t=frame_length, max_batch=max_batch,
            boundary_hook=audit,
        )
        try:
            engine.process(
                all_arrivals, until=num_frames * frame_length, drain=True
            )
        except DispatchError as exc:
            fail("stream_count", f"count-trigger leg: {exc}")
            return report
        report.count_batches = len(engine.batches)
        summary = engine.summary()
        if summary["admitted"] != len(all_arrivals):
            fail(
                "stream_count",
                f"engine admitted {summary['admitted']} of "
                f"{len(all_arrivals)} arrivals",
            )
        accounted = (
            summary["delivered"] + summary["expired"]
            + summary["cancelled"] + summary["open"]
        )
        if accounted != summary["admitted"]:
            fail(
                "stream_count",
                f"span accounting leaks: delivered {summary['delivered']} "
                f"+ expired {summary['expired']} + cancelled "
                f"{summary['cancelled']} + open {summary['open']} != "
                f"admitted {summary['admitted']}",
            )
        for span in engine.spans.values():
            if span.delivery is not None and span.committed is None:
                fail(
                    "stream_span",
                    f"rider {span.rider_id} delivered without a recorded "
                    f"commitment",
                )
    return report


def run_stream_fuzz(
    seeds: Iterable[int],
    config: Optional[StreamFuzzConfig] = None,
    stop_after: Optional[float] = None,
    on_seed: Optional[Callable[[StreamSeedReport], None]] = None,
) -> FuzzRunReport:
    """Fuzz streaming-vs-batch differential trials over a seed sequence."""
    import time

    config = config or StreamFuzzConfig()
    run = FuzzRunReport()
    start = time.perf_counter()
    for seed in seeds:
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
        report = fuzz_stream_seed(seed, config)
        run.reports.append(report)
        if on_seed is not None:
            on_seed(report)
    return run
