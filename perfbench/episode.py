"""One benchmark episode: set up the dispatcher, stream the city, check.

An episode builds the network, the oracle (through its first query, which
builds the tier's structures) and the :class:`Dispatcher`, each step
timed raw with calibration probes between them.  It then drives the
pre-generated arrival stream through :class:`StreamingEngine`; the
engine's ``boundary_hook`` stamps the wall clock at every batch commit,
injects the seeded disruptions and probes the machine.  A batch's time
runs from the previous stamp (after the probe) to its own commit, plus
the repair time of disruptions injected just before it.

After the stream the correctness gate runs, untimed.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.check.validator import validate_fleet_state
from repro.core.dispatch import Dispatcher, RiderStatus
from repro.core.durability import DurabilityConfig
from repro.service import StreamingEngine

from calibration import SETUP_PROBES, Calibrator
from scenarios import Inputs, Workload, resolve_events

#: snapshot cadence (frames) of durable workloads; the WAL gets every frame
CHECKPOINT_EVERY = 10

_SETUP_STEPS = ("network_s", "oracle_s", "dispatcher_s")
#: probe boundaries: one before each set-up step, one after the last
#: (which opens batch 0), then one after every batch
_FIRST_BATCH_BOUNDARY = len(_SETUP_STEPS)


@dataclass
class Episode:
    """Raw timings and deterministic outputs of one episode."""

    setup_s: Dict[str, float]
    batch_s: List[float]
    sim_minutes: float
    triggers: Dict[str, int]
    outputs: Dict[str, object]
    errors: List[str] = field(default_factory=list)
    #: per batch: (riders offered, riders carried in, riders served,
    #: roll seconds) -- plain numbers, so no episode keeps its oracle alive
    frames: list = field(default_factory=list)
    disruption_outcomes: list = field(default_factory=list)
    calibrator: Calibrator = field(default_factory=Calibrator)

    @property
    def stream_s(self) -> float:
        """Raw seconds of all batches."""
        return sum(self.batch_s)

    @property
    def batch_cal_s(self) -> List[float]:
        """Calibrated seconds of every batch."""
        return self.calibrator.calibrate(self.batch_s, _FIRST_BATCH_BOUNDARY)

    @property
    def setup_cal_s(self) -> Dict[str, float]:
        """Calibrated seconds of every set-up step, and their total."""
        out = {
            step: self.setup_s[step] * self.calibrator.scale_between(k, k + 1)
            for k, step in enumerate(_SETUP_STEPS)
        }
        out["total_s"] = sum(out.values())
        return out

    @property
    def scale(self) -> float:
        """Effective calibration factor of this episode's stream."""
        return sum(self.batch_cal_s) / self.stream_s


def run_episode(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    scratch: Path,
    tracer=None,
) -> Episode:
    checkpoint_dir = (
        Path(tempfile.mkdtemp(prefix="wal-", dir=scratch))
        if workload.durability
        else None
    )
    try:
        return _run(workload, inputs, seed, checkpoint_dir, tracer)
    finally:
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)


def _run(workload, inputs, seed, checkpoint_dir, tracer) -> Episode:
    calibrator = Calibrator()
    setup: Dict[str, float] = {}
    gc.collect()  # start every episode from the same heap state
    if tracer is not None:
        tracer.begin_setup()
    calibrator.probe(SETUP_PROBES)
    start = time.perf_counter()
    network = workload.build_network()
    setup["network_s"] = time.perf_counter() - start
    calibrator.probe(SETUP_PROBES)
    start = time.perf_counter()
    oracle = workload.build_oracle(network)
    nodes = sorted(network.nodes())
    oracle.cost(nodes[0], nodes[-1])  # the first query builds the tier
    setup["oracle_s"] = time.perf_counter() - start
    calibrator.probe(SETUP_PROBES)
    start = time.perf_counter()
    dispatcher = Dispatcher(
        network,
        inputs.fleet,
        frame_length=workload.delta_t,
        oracle=oracle,
        seed=seed,
        candidate_mode=workload.candidate_mode,
        shard_workers=workload.shard_workers,
        durability=(
            DurabilityConfig(
                checkpoint_dir, checkpoint_every=CHECKPOINT_EVERY, fsync=False
            )
            if checkpoint_dir is not None
            else None
        ),
    )
    setup["dispatcher_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.end_setup()

    batch_s: List[float] = []
    outcomes: list = []
    clock = {"start": 0.0, "repair": 0.0}

    def boundary(engine: StreamingEngine, batch) -> None:
        now = time.perf_counter()
        batch_s.append(now - clock["start"] + clock["repair"])
        clock["repair"] = 0.0
        if tracer is not None:
            tracer.on_batch(engine, batch)
        draws = inputs.chaos.get(batch.index)
        if draws:
            events = resolve_events(draws, engine.dispatcher)
            if events:
                start = time.perf_counter()
                outcomes.extend(engine.dispatcher.inject(events))
                clock["repair"] = time.perf_counter() - start
        calibrator.probe()
        clock["start"] = time.perf_counter()

    engine = StreamingEngine(
        dispatcher,
        delta_t=workload.delta_t,
        max_batch=workload.max_batch,
        boundary_hook=boundary if tracer is None else tracer.wrap_hook(boundary),
    )
    # set-up structures live for the whole run: move them out of the
    # collector's reach, as a long-running service would, so full
    # collections do not land on random batches
    gc.collect()
    gc.freeze()
    calibrator.probe(SETUP_PROBES)
    try:
        if tracer is not None:
            tracer.begin_stream(dispatcher)
        clock["start"] = time.perf_counter()
        engine.process(inputs.arrivals, until=workload.horizon, drain=True)
        if tracer is not None:
            tracer.end_stream()
        if clock["repair"] and batch_s:
            batch_s[-1] += clock["repair"]
        outputs, errors = _gate(engine, dispatcher)
    finally:
        dispatcher.close()
        gc.unfreeze()
    triggers: Dict[str, int] = {}
    for batch in engine.batches:
        triggers[batch.trigger] = triggers.get(batch.trigger, 0) + 1
    return Episode(
        setup_s=setup,
        batch_s=batch_s,
        sim_minutes=dispatcher.clock,
        triggers=triggers,
        outputs=outputs,
        errors=errors,
        frames=[
            (
                b.report.batch_size,
                b.report.num_carried,
                b.report.num_served,
                b.report.perf.roll_seconds if b.report.perf else 0.0,
            )
            for b in engine.batches
        ],
        disruption_outcomes=outcomes,
        calibrator=calibrator,
    )


def _gate(engine: StreamingEngine, dispatcher: Dispatcher):
    """Deterministic outputs plus every violated correctness check."""
    errors: List[str] = []
    counts = dispatcher.ledger_counts()
    admitted = len(engine.spans)
    if set(dispatcher.ledger) != set(engine.spans):
        errors.append("ledger ids differ from the admitted ids")
    if sum(counts.values()) != admitted:
        errors.append(
            f"ledger conservation: admitted {admitted} != "
            f"sum of statuses {counts}"
        )
    fleet_report = validate_fleet_state(
        dispatcher.fleet.values(), dispatcher.clock, oracle=dispatcher.oracle
    )
    if not fleet_report.ok:
        errors.append("final fleet state invalid: " + fleet_report.summary(3))

    served = sorted(
        rid for rid, status in dispatcher.ledger.items()
        if status in (RiderStatus.COMMITTED, RiderStatus.DELIVERED)
    )
    waits = [
        engine.spans[rid].pickup - engine.spans[rid].arrival
        for rid in served
        if engine.spans[rid].pickup is not None
    ]
    utility = float(sum(batch.report.utility for batch in engine.batches))
    cancelled = counts[RiderStatus.CANCELLED.value]
    operations = admitted - cancelled
    failed = counts[RiderStatus.EXPIRED.value] + counts[RiderStatus.PENDING.value]
    if operations <= 0 or not waits:
        errors.append("workload produced no servable operations")
    outputs = {
        "admitted": admitted,
        "operations": operations,
        "ledger": counts,
        "unserved_frac": failed / operations if operations > 0 else float("nan"),
        "utility": utility,
        "utility_per_request": utility / admitted if admitted else float("nan"),
        "pickup_wait_p95_min": (
            float(np.percentile(waits, 95)) if waits else float("nan")
        ),
        "served_digest": hashlib.sha256(
            ",".join(map(str, served)).encode()
        ).hexdigest()[:16],
    }
    return outputs, errors
