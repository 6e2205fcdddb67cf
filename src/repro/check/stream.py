"""The streaming drive of the fuzz runner (``--mode stream``).

The streaming engine's contract (:mod:`repro.service`) is that a
micro-batch trigger pinned to the dispatcher's ``frame_length`` — an
interval of exactly one frame, with an unbounded count trigger — is
indistinguishable from the batch rolling-horizon loop.  On this drive
the candidate run B consumes each frame's riders as timed
:class:`~repro.service.Arrival` events through such an engine, while the
reference run A calls ``dispatch_frame``; the runner's comparator then
holds the two live dispatchers equal stop for stop at every boundary.

The engine hands a frame's plan only to its boundary hook, so the
drive takes the frames it compares from there.

After the lockstep, unperturbed seeds replay the whole arrival stream
through a third dispatcher with a small seeded ``max_batch``, so frames
fire at arrival-driven, variable-length horizons.  Every fired
micro-batch gets the runner's per-frame checks, and the engine's span
accounting must close: delivered + expired + cancelled + open equals
admitted.
"""

from __future__ import annotations

from typing import List

from repro.service import Arrival, StreamingEngine


def arrivals_for(riders, frame: int, length: float) -> List[Arrival]:
    """Timed arrivals for one frame's riders, in batch list order.

    Timestamps are strictly increasing inside the open window and stay
    clear of the closing boundary, so the buffered order the engine
    dispatches matches the list order the batch dispatcher saw.
    """
    count = len(riders)
    return [
        Arrival(rider=rider, time=frame * length + (i + 0.5) / count * length)
        for i, rider in enumerate(riders)
    ]


class StreamDrive:
    """B consumes every frame through a pinned interval trigger."""

    def __init__(self, trial) -> None:
        self.trial = trial
        self.length = trial.scenario.frame_length
        self.max_batch = int(trial.rng.integers(2, 5))
        trial.report.draws["max_batch"] = self.max_batch
        self.dispatcher = trial.open(trial.config)
        self._fired: List = []
        self.engine = StreamingEngine(
            self.dispatcher, delta_t=self.length,
            boundary_hook=lambda engine, batch: self._fired.append(batch),
        )

    def step(self, frame: int, riders):
        self.engine.process(
            arrivals_for(riders, frame, self.length),
            until=(frame + 1) * self.length,
        )
        fired, self._fired = self._fired, []
        if len(fired) != 1 or fired[0].trigger != "interval":
            self.trial.fail("stream", f"frame {frame}: pinned interval trigger "
                                      f"fired {[(b.trigger, b.solved_at) for b in fired]}")
            return None
        report = fired[0].report
        if report.num_requests != len(riders):
            self.trial.fail("stream", f"frame {frame}: engine admitted "
                                      f"{report.num_requests} new riders, batch saw {len(riders)}")
        return report

    def finish(self, reference) -> None:
        """The count-trigger leg (skipped on perturbed seeds: its stream
        has no event schedule, and the lockstep already replayed them)."""
        t = self.trial
        if t.perturb:
            return
        arrivals = [
            a for frame, riders in enumerate(t.scenario.frames)
            for a in arrivals_for(riders, frame, self.length)
        ]
        with t.open(t.config) as dispatcher:
            before = [t.before(dispatcher)]

            def audit(engine: StreamingEngine, batch) -> None:
                t.check_frame(dispatcher, batch.report, batch.index, before[0],
                              set(engine.spans), "count")
                before[0] = t.before(dispatcher)

            engine = StreamingEngine(
                dispatcher, delta_t=self.length, max_batch=self.max_batch,
                boundary_hook=audit,
            )
            try:
                engine.process(arrivals, until=len(t.scenario.frames) * self.length,
                               drain=True)
            except Exception as exc:  # noqa: BLE001 — any engine failure is a bug
                t.raised("count", "count-trigger leg", exc)
                return
        t.count("count_batches", len(engine.batches))
        summary = engine.summary()
        if summary["admitted"] != len(arrivals):
            t.fail("count", f"engine admitted {summary['admitted']} of "
                            f"{len(arrivals)} arrivals")
        accounted = sum(summary[k] for k in ("delivered", "expired", "cancelled", "open"))
        if accounted != summary["admitted"]:
            t.fail("count", f"span accounting leaks: {accounted} closed or open "
                            f"!= {summary['admitted']} admitted")
        for span in engine.spans.values():
            if span.delivery is not None and span.committed is None:
                t.fail("count", f"rider {span.rider_id} delivered without a "
                                f"recorded commitment")

    def close(self) -> None:
        self.dispatcher.close()
