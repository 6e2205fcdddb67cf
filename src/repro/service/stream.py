"""Event-driven streaming dispatch engine (ROADMAP item 4).

Real traffic does not arrive in frames.  :class:`StreamingEngine` turns
the batch :class:`~repro.core.dispatch.Dispatcher` into an always-on
service: arrivals stream in as :class:`Arrival` events, the engine
micro-batches them with a **dual trigger** — solve every ``delta_t``
minutes of simulated time *or* every ``max_batch`` arrivals, whichever
fires first — and dispatches each micro-batch through
``Dispatcher.dispatch_frame`` with a per-frame horizon equal to the
batch's actual span.  Everything the batch dispatcher already provides
(carry-over retries, disruption repair, sharded solving, the solver
watchdog, durability checkpoints) works unchanged underneath, because a
micro-batch *is* a frame — just a variable-length one.

Micro-batch semantics
---------------------
The engine maintains one **open window** ``[C, C + delta_t)`` where
``C`` is the dispatcher clock.  Arrivals inside the window buffer; the
window closes at trigger time ``T``:

- **interval trigger** — simulated time reaches the window edge
  (``T = C + delta_t``), even if the buffer is empty (empty frames keep
  carry-over retries and vehicle rolling on schedule);
- **count trigger** — the buffer reaches ``max_batch`` arrivals
  (``T`` = the triggering arrival's timestamp, so ``T - C`` can be
  anywhere in ``[0, delta_t)`` — zero-length frames are legal);
- **drain** — the caller flushes a partial window at end of stream.

Closing a window dispatches the buffered riders at clock ``C`` with
``frame_length = T - C`` and advances the dispatcher clock to ``T``,
which opens the next window.

Batch equivalence
-----------------
With ``delta_t`` pinned to the dispatcher's configured ``frame_length``
and ``max_batch`` unbounded, every window is exactly one batch frame:
arrivals timestamped inside frame ``f`` are dispatched together at
clock ``f * frame_length``, bit-for-bit identical to calling
``dispatch_frame`` per frame with the same rider lists (the ``stream``
fuzz mode of :mod:`repro.check` enforces this frame-for-frame,
including under sharded, tiered-oracle and chaos disruption runs).

Crash recovery
--------------
A streaming run over a durable dispatcher commits every micro-batch
(with its actual frame length) to the WAL.  To resume after a crash:
``Dispatcher.restore`` the checkpoint directory, wrap the restored
dispatcher in a fresh engine, and re-feed the *same deterministic
arrival stream from the start* — arrivals older than the restored clock
were committed by a previous incarnation and are skipped (counted in
:attr:`StreamingEngine.replayed_arrivals`); the open window's buffer is
rebuilt exactly because all of its arrivals are at or after the
restored clock.

Latency spans
-------------
Each request's lifecycle is tracked as a :class:`RequestSpan` —
admission (arrival enters the buffer), commitment (the solve that
schedules it), pickup and delivery (the committing plan's scheduled stop
times, exact while execution follows the plan) — and emitted through
:mod:`repro.obs` as ``stream.admit`` / ``stream.request`` instants plus
a ``stream.batch`` span per micro-batch.
:meth:`StreamingEngine.latency_summary` aggregates p50/p95/p99 per
stage.  Those latencies are simulated minutes; each
:class:`StreamBatch` also records the wall-clock seconds the engine
spent on it (``wall_seconds``), and :meth:`StreamingEngine.summary`
reports their p50/p95 as ``wall_ms``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.core.dispatch import Dispatcher, FrameReport, RiderStatus
from repro.core.requests import Rider
from repro.core.schedule import StopKind
from repro.obs import trace as _trace

_EPS = 1e-9

#: latency stages reported by :meth:`StreamingEngine.latency_summary`
STAGES = (
    "admission_to_commit",
    "commit_to_pickup",
    "pickup_to_delivery",
    "admission_to_delivery",
)


@dataclass(frozen=True)
class Arrival:
    """One ride request entering the system at simulated time ``time``.

    The rider's deadlines live on the same absolute clock as ``time``
    (and the dispatcher); ``time`` must not exceed ``pickup_deadline``
    or the request could expire before it can ever be solved.
    """

    rider: Rider
    time: float


@dataclass
class RequestSpan:
    """Lifecycle timestamps of one streamed request (sim minutes).

    ``committed``/``pickup``/``delivery`` stay ``None`` until the stage
    happens; ``pickup``/``delivery`` are the committing plan's scheduled
    stop times (re-read each time the plan is revised, so they track
    re-routes).  ``expired``/``cancelled`` terminate the span instead.
    """

    rider_id: int
    arrival: float
    committed: Optional[float] = None
    pickup: Optional[float] = None
    delivery: Optional[float] = None
    expired: Optional[float] = None
    cancelled: Optional[float] = None
    vehicle_id: Optional[int] = None

    @property
    def closed(self) -> bool:
        return (
            self.delivery is not None
            or self.expired is not None
            or self.cancelled is not None
        )

    def stage_latencies(self) -> Dict[str, float]:
        """The completed stage durations of this span."""
        out: Dict[str, float] = {}
        if self.committed is not None:
            out["admission_to_commit"] = self.committed - self.arrival
            if self.pickup is not None:
                out["commit_to_pickup"] = self.pickup - self.committed
                if self.delivery is not None:
                    out["pickup_to_delivery"] = self.delivery - self.pickup
                    out["admission_to_delivery"] = self.delivery - self.arrival
        return out


@dataclass(frozen=True)
class StreamBatch:
    """One dispatched micro-batch: the window and its frame report.

    Only the boundary hook sees ``report.assignment``; the recorded and
    returned batch drops it, so no frame's instance outlives its hook.

    ``wall_seconds`` is the wall-clock cost of the batch: its
    ``dispatch_frame`` call plus the latency-span update after it (the
    boundary hook is the caller's time and is excluded).
    """

    index: int
    trigger: str  # "interval" | "count" | "drain"
    window_start: float  # dispatcher clock when the window opened
    solved_at: float  # trigger time T (the new dispatcher clock)
    num_new: int  # arrivals buffered in this window
    report: FrameReport
    wall_seconds: float = 0.0

    @property
    def frame_length(self) -> float:
        return self.solved_at - self.window_start


def _percentiles(values: List[float]) -> Dict[str, float]:
    arr = np.asarray(values, dtype=float)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


class StreamingEngine:
    """Micro-batching streaming front-end over a batch :class:`Dispatcher`.

    Parameters
    ----------
    dispatcher:
        The (possibly sharded / tiered / durable) dispatcher to drive.
        The engine owns its clock from here on: do not interleave manual
        ``dispatch_frame`` calls.
    delta_t:
        Interval-trigger window length in simulated minutes (defaults to
        the dispatcher's configured ``frame_length``; must be > 0).
    max_batch:
        Count trigger: close the window as soon as this many arrivals
        buffer (``None`` = unbounded, interval trigger only).
    boundary_hook:
        Optional callback ``hook(engine, stream_batch)`` invoked after
        every dispatched micro-batch — the seam for injecting
        disruptions mid-stream, and the one place a streamed frame's
        plan (``stream_batch.report.assignment``) can be read (the
        ``stream`` fuzz mode audits every micro-batch through it).
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        delta_t: Optional[float] = None,
        max_batch: Optional[int] = None,
        boundary_hook: Optional[
            Callable[["StreamingEngine", StreamBatch], None]
        ] = None,
    ) -> None:
        self.dispatcher = dispatcher
        self.delta_t = float(
            dispatcher.config.frame_length if delta_t is None else delta_t
        )
        if not np.isfinite(self.delta_t) or self.delta_t <= 0:
            raise ValueError(f"delta_t must be finite and > 0, got {self.delta_t}")
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self.boundary_hook = boundary_hook

        self._buffer: List[Arrival] = []
        self.batches: List[StreamBatch] = []
        self.spans: Dict[int, RequestSpan] = {}
        self._open_spans: Dict[int, RequestSpan] = {}
        #: arrivals skipped because they predate the dispatcher clock —
        #: a resumed run re-feeding its deterministic source sees every
        #: already-committed arrival here
        self.replayed_arrivals = 0

    # -- stream consumption --------------------------------------------
    @property
    def window_start(self) -> float:
        """Start of the open window (the dispatcher clock)."""
        return self.dispatcher.clock

    @property
    def pending_arrivals(self) -> int:
        """Arrivals buffered in the open window."""
        return len(self._buffer)

    def process(
        self,
        arrivals: Iterable[Arrival],
        until: Optional[float] = None,
        drain: bool = False,
    ) -> List[StreamBatch]:
        """Feed arrivals through the dual trigger; returns fired batches.

        Arrivals must be fed in non-decreasing time order (the order
        defines the batch order the solver sees).  ``until`` keeps
        firing empty interval windows after the stream ends until the
        clock reaches it — use it to run carry-over retries dry, or to
        pin the number of frames in a differential run.  ``drain``
        flushes a final partial window (at its natural edge) so no
        buffered arrival is left unsolved.  ``process`` may be called
        repeatedly; the open window persists between calls.
        """
        fired: List[StreamBatch] = []
        for arrival in arrivals:
            t = float(arrival.time)
            if t < self.dispatcher.clock - _EPS:
                self.replayed_arrivals += 1
                continue
            while t >= self.dispatcher.clock + self.delta_t - _EPS:
                fired.append(
                    self._fire("interval", self.dispatcher.clock + self.delta_t)
                )
            self._admit(arrival)
            if self.max_batch is not None and len(self._buffer) >= self.max_batch:
                fired.append(self._fire("count", t))
        if until is not None:
            until = float(until)
            while self.dispatcher.clock + self.delta_t <= until + _EPS:
                fired.append(
                    self._fire("interval", self.dispatcher.clock + self.delta_t)
                )
        if drain and self._buffer:
            fired.append(self._fire("drain", self.dispatcher.clock + self.delta_t))
        return fired

    def drain(self) -> List[StreamBatch]:
        """Flush the open window if it holds any arrivals."""
        if not self._buffer:
            return []
        return [self._fire("drain", self.dispatcher.clock + self.delta_t)]

    # -- internals ------------------------------------------------------
    def _admit(self, arrival: Arrival) -> None:
        rider = arrival.rider
        if rider.rider_id in self.spans:
            raise ValueError(
                f"rider id {rider.rider_id} already streamed; ids must be "
                f"unique across the run"
            )
        self._buffer.append(arrival)
        span = RequestSpan(rider_id=rider.rider_id, arrival=float(arrival.time))
        self.spans[rider.rider_id] = span
        self._open_spans[rider.rider_id] = span
        _trace.instant(
            "stream.admit",
            rider=rider.rider_id,
            time=float(arrival.time),
            buffered=len(self._buffer),
        )

    def _fire(self, trigger: str, trigger_time: float) -> StreamBatch:
        clock = self.dispatcher.clock
        solved_at = max(float(trigger_time), clock)
        batch, self._buffer = self._buffer, []
        riders = [a.rider for a in batch]
        start = time.perf_counter()
        with _trace.span(
            "stream.batch",
            trigger=trigger,
            batch=len(riders),
            window=clock,
        ):
            report = self.dispatcher.dispatch_frame(
                riders, frame_length=solved_at - clock
            )
        self._update_spans(report, solved_at)
        stream_batch = StreamBatch(
            index=len(self.batches),
            trigger=trigger,
            window_start=clock,
            solved_at=solved_at,
            num_new=len(riders),
            report=report,
            wall_seconds=time.perf_counter() - start,
        )
        _trace.counter(
            "stream.open_requests", value=len(self._open_spans), frame=report.frame_index
        )
        if self.boundary_hook is not None:
            self.boundary_hook(self, stream_batch)
        stream_batch = replace(stream_batch, report=replace(report, assignment=None))
        self.batches.append(stream_batch)
        return stream_batch

    def _update_spans(self, report: FrameReport, solved_at: float) -> None:
        """Advance every open span from the frame's ledger + plan."""
        schedule_times = None  # built lazily: most frames commit few riders
        ledger = self.dispatcher.ledger
        for rid in sorted(self._open_spans):
            span = self._open_spans[rid]
            status = ledger.get(rid)
            if status in (RiderStatus.COMMITTED, RiderStatus.DELIVERED):
                if span.committed is None:
                    span.committed = solved_at
                if schedule_times is None:
                    schedule_times = self._scheduled_stop_times(report)
                times = schedule_times.get(rid)
                if times is not None:
                    vehicle_id, pickup, delivery = times
                    span.vehicle_id = vehicle_id
                    # executed stops drop out of later plans (an onboard
                    # rider's schedule keeps only the drop-off): refresh a
                    # stage only when the plan still schedules it
                    if pickup is not None:
                        span.pickup = pickup
                    if delivery is not None:
                        span.delivery = delivery
                if status is RiderStatus.DELIVERED:
                    self._close_span(span, "delivered")
            elif status is RiderStatus.EXPIRED:
                span.expired = solved_at
                self._close_span(span, "expired")
            elif status is RiderStatus.CANCELLED:
                span.cancelled = solved_at
                self._close_span(span, "cancelled")
            elif status is RiderStatus.PENDING and span.committed is not None:
                # released / stranded by a disruption: back in the queue
                span.committed = None
                span.pickup = None
                span.delivery = None
                span.vehicle_id = None

    def _scheduled_stop_times(self, report: FrameReport):
        """(vehicle, pickup, dropoff) plan times per rider this frame.

        Read from the frame's changed vehicles only: every other plan is
        one an earlier frame reported, with the same times, so its riders'
        spans already hold them.
        """
        times: Dict[int, List[Optional[float]]] = {}
        schedules = report.assignment.schedules
        for vid in sorted(report.changed_vehicles):
            seq = schedules[vid]
            for stop, arrive in zip(seq.stops, seq.arrive):
                entry = times.setdefault(stop.rider.rider_id, [vid, None, None])
                if stop.kind is StopKind.PICKUP:
                    entry[1] = arrive
                else:
                    entry[2] = arrive
        return {rid: tuple(entry) for rid, entry in times.items()}

    def _close_span(self, span: RequestSpan, outcome: str) -> None:
        del self._open_spans[span.rider_id]
        _trace.instant(
            "stream.request",
            rider=span.rider_id,
            outcome=outcome,
            arrival=span.arrival,
            committed=span.committed,
            pickup=span.pickup,
            delivery=span.delivery,
        )

    # -- reporting ------------------------------------------------------
    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 (+ mean/max/count) per lifecycle stage.

        Open spans contribute the stages they have completed so far, so
        ``admission_to_commit`` covers every committed rider even if the
        run stops before delivery.
        """
        stages: Dict[str, List[float]] = {stage: [] for stage in STAGES}
        for span in self.spans.values():
            for stage, latency in span.stage_latencies().items():
                stages[stage].append(latency)
        return {
            stage: _percentiles(values)
            for stage, values in stages.items()
            if values
        }

    def summary(self) -> Dict[str, object]:
        """Run-level roll-up (counts, triggers, latency percentiles)."""
        committed = delivered = expired = cancelled = 0
        for span in self.spans.values():
            if span.committed is not None:
                committed += 1
            if span.expired is not None:
                expired += 1
            elif span.cancelled is not None:
                cancelled += 1
            elif span.delivery is not None and span.rider_id not in self._open_spans:
                delivered += 1
        triggers: Dict[str, int] = {}
        for batch in self.batches:
            triggers[batch.trigger] = triggers.get(batch.trigger, 0) + 1
        wall_ms = [batch.wall_seconds * 1e3 for batch in self.batches]
        return {
            "batches": len(self.batches),
            "triggers": triggers,
            "admitted": len(self.spans),
            "replayed_arrivals": self.replayed_arrivals,
            "committed": committed,
            "delivered": delivered,
            "expired": expired,
            "cancelled": cancelled,
            "open": len(self._open_spans),
            "latency": self.latency_summary(),
            "wall_ms": {
                "p50": float(np.percentile(wall_ms, 50)),
                "p95": float(np.percentile(wall_ms, 95)),
            } if wall_ms else {},
        }
