"""repro.obs — the frame-level flight recorder (tracing + metrics export).

Structured observability for the whole stack: a low-overhead span
timer / JSONL trace recorder (:mod:`repro.obs.trace`), the machine-
checked event schema (:mod:`repro.obs.schema`), and the analysis layer
behind ``python -m repro.obs summary`` / ``diff``
(:mod:`repro.obs.summary`).

Tracing is **disabled by default** and every instrumentation site
degrades to one global read and a branch, so shipping the spans in the
hot path costs nothing until a tracer is installed::

    from repro import obs

    obs.start_trace("run.jsonl", meta={"scenario": "rush-hour"})
    dispatcher.dispatch_frame(requests)      # spans recorded
    obs.stop_trace()

Per-frame *counter deltas* (insertion plans, oracle searches, validator
work, watchdog tiers) are not spans: the dispatcher captures every
:mod:`repro.perf` counter family around each frame and stores the
difference in ``FrameReport.perf``.  When tracing is on it mirrors the
difference's ``as_dict()``, derived values included, into the trace as a
``frame.perf`` instant, so the CLI builds its per-frame table from the
file alone and never re-derives a count :mod:`repro.perf` defines.

This package depends only on the standard library; everything else in
``repro`` may import it freely.
"""

from repro.obs.trace import (
    NULL_SPAN,
    TRACE_VERSION,
    Tracer,
    counter,
    current,
    enabled,
    instant,
    span,
    start_trace,
    stop_trace,
)
from repro.obs.schema import validate_event, validate_line, validate_trace

__all__ = [
    "NULL_SPAN",
    "TRACE_VERSION",
    "Tracer",
    "counter",
    "current",
    "enabled",
    "instant",
    "span",
    "start_trace",
    "stop_trace",
    "validate_event",
    "validate_line",
    "validate_trace",
]
