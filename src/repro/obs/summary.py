"""Trace analysis: per-frame tables, span aggregates, and trace diffs.

Consumes JSONL traces recorded by :mod:`repro.obs.trace` (schema in
:mod:`repro.obs.schema`).  Pure functions over decoded events, shared by
the ``python -m repro.obs`` CLI and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.schema import validate_trace


@dataclass
class SpanAggregate:
    """Rollup of every span sharing one name."""

    name: str
    count: int = 0
    total: float = 0.0
    max: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration > self.max:
            self.max = duration


@dataclass
class TraceData:
    """A decoded trace: meta + events bucketed by type."""

    path: str
    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    instants: List[dict] = field(default_factory=list)
    counters: List[dict] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    # ------------------------------------------------------------------
    def span_aggregates(self) -> Dict[str, SpanAggregate]:
        """Per-name rollups over the *top-level occurrences* of each name.

        Aggregation is by name, so nested repetitions of the same name
        would double-count; the recorder does not nest a name inside
        itself.
        """
        out: Dict[str, SpanAggregate] = {}
        for event in self.spans:
            agg = out.get(event["name"])
            if agg is None:
                agg = out[event["name"]] = SpanAggregate(event["name"])
            agg.add(event["dur"])
        return out

    def frames(self) -> List[int]:
        seen = set()
        for event in self.spans + self.instants + self.counters:
            frame = event.get("frame")
            if frame is not None:
                seen.add(frame)
        return sorted(seen)

    def frame_perf(self) -> Dict[int, Dict[str, Any]]:
        """The ``frame.perf`` instant payload per frame (dispatcher deltas)."""
        out: Dict[int, Dict[str, Any]] = {}
        for event in self.instants:
            if event["name"] == "frame.perf" and event.get("frame") is not None:
                perf = event["attrs"].get("perf")
                if isinstance(perf, dict):
                    out[event["frame"]] = perf
        return out

    def frame_spans(self) -> Dict[int, dict]:
        """The ``dispatch.frame`` span per frame (duration + annotations)."""
        out: Dict[int, dict] = {}
        for event in self.spans:
            if event["name"] == "dispatch.frame" and event.get("frame") is not None:
                out[event["frame"]] = event
        return out

    def tier_histogram(self) -> Dict[str, int]:
        """Serving-tier counts: frame annotations first, tier spans else."""
        hist: Dict[str, int] = {}
        for event in self.frame_spans().values():
            tier = event["attrs"].get("tier")
            if tier:
                hist[tier] = hist.get(tier, 0) + 1
        if hist:
            return hist
        for event in self.spans:
            if event["name"] == "solver.tier" and (
                event["attrs"].get("status") == "accepted"
            ):
                tier = event["attrs"].get("tier", "?")
                hist[tier] = hist.get(tier, 0) + 1
        return hist


def load_trace(path: str) -> TraceData:
    """Read + schema-validate a JSONL trace file."""
    data = TraceData(path=path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            events, data.problems = validate_trace(fh)
    except OSError as exc:
        data.problems = [f"cannot read {path}: {exc}"]
        return data
    for event in events:
        kind = event["type"]
        if kind == "meta":
            data.meta = event
        elif kind == "span":
            data.spans.append(event)
        elif kind == "instant":
            data.instants.append(event)
        elif kind == "counter":
            data.counters.append(event)
    return data


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.1f}ms"


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in rows)
    return lines


def _get(perf: Dict[str, Any], *path: str) -> Optional[Any]:
    node: Any = perf
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def summarize(trace: TraceData, top: int = 10) -> str:
    """Human-readable report: header, per-frame table, top spans, tiers."""
    lines: List[str] = []
    n_events = len(trace.spans) + len(trace.instants) + len(trace.counters)
    end = 0.0
    for event in trace.spans:
        end = max(end, event["ts"] + event["dur"])
    for event in trace.instants + trace.counters:
        end = max(end, event["ts"])
    lines.append(
        f"trace {trace.path}: {n_events} events, "
        f"{len(trace.frames())} frame(s), span {_fmt_seconds(end)}"
    )

    frame_perf = trace.frame_perf()
    frame_spans = trace.frame_spans()
    frames = sorted(set(frame_perf) | set(frame_spans))
    if frames:
        rows = []
        for f in frames:
            perf = frame_perf.get(f, {})
            span = frame_spans.get(f)
            attrs = span["attrs"] if span else {}
            # derived values come precomputed in the payload (repro.perf
            # defines them); "-" on traces that predate a counter
            searches = _get(perf, "oracle", "searches")
            cands = _get(perf, "candidates", "candidates_returned")
            pruned = _get(perf, "candidates", "pairs_pruned")
            # sharded dispatch (PR 7): shard solves and boundary riders
            # reconciled; "-" on traces from unsharded runs
            shards = _get(perf, "shards", "shards_solved")
            if not shards:
                shards = None
            reconciled = _get(perf, "shards", "reconciled_riders")
            # schedules the frame audit checked (changed vehicles plus
            # the solver's writes); "-" on traces that predate it
            audited = _get(perf, "vehicles_audited")
            rows.append([
                str(f),
                _fmt_seconds(span["dur"] if span else None),
                _fmt_seconds(_get(perf, "solve_seconds")),
                _fmt_seconds(_get(perf, "disruption_seconds")),
                str(attrs.get("tier", "-")),
                str(_get(perf, "insertion", "plans") or 0),
                str(searches if searches is not None else "-"),
                str(cands if cands is not None else "-"),
                str(pruned if pruned is not None else "-"),
                str(_get(perf, "validation", "schedules") or 0),
                str(audited) if audited is not None else "-",
                str(shards) if shards is not None else "-",
                str(reconciled) if shards is not None else "-",
                f"{attrs.get('served', '-')}/{attrs.get('batch', '-')}",
            ])
        lines.append("")
        lines.append("per-frame breakdown:")
        lines.extend(_table(
            ["frame", "wall", "solve", "disrupt", "tier",
             "plans", "searches", "cands", "pruned", "validated", "audited",
             "shards", "reconciled", "served"],
            rows,
        ))

    aggregates = sorted(
        trace.span_aggregates().values(), key=lambda a: -a.total
    )
    if aggregates:
        lines.append("")
        lines.append(f"top spans (by total time, top {top}):")
        lines.extend(_table(
            ["span", "count", "total", "mean", "max"],
            [
                [a.name, str(a.count), _fmt_seconds(a.total),
                 _fmt_seconds(a.mean), _fmt_seconds(a.max)]
                for a in aggregates[:top]
            ],
        ))

    tiers = trace.tier_histogram()
    if tiers:
        lines.append("")
        lines.append("serving-tier histogram:")
        width = max(tiers.values())
        for tier, count in sorted(tiers.items(), key=lambda kv: -kv[1]):
            bar = "#" * max(1, round(count * 30 / width))
            lines.append(f"  {tier:>10}  {count:>4}  {bar}")
    return "\n".join(lines)


def diff(a: TraceData, b: TraceData, threshold: Optional[float] = None) -> Tuple[str, bool]:
    """Compare two traces' span aggregates; ``(report, regressed)``.

    ``threshold`` (a fraction, e.g. ``0.2`` for +20%) marks the run as
    regressed when any span's total time grew beyond it, which is the
    regression-hunting workflow: record a trace per candidate, diff
    against the baseline.
    """
    agg_a = a.span_aggregates()
    agg_b = b.span_aggregates()
    names = sorted(set(agg_a) | set(agg_b),
                   key=lambda n: -(agg_b.get(n, agg_a.get(n)).total))
    rows: List[List[str]] = []
    regressed = False
    for name in names:
        sa = agg_a.get(name)
        sb = agg_b.get(name)
        ta = sa.total if sa else 0.0
        tb = sb.total if sb else 0.0
        if ta > 0:
            pct = (tb - ta) / ta * 100.0
            pct_text = f"{pct:+.1f}%"
        else:
            pct = math.inf if tb > 0 else 0.0
            pct_text = "new" if tb > 0 else "0%"
        if threshold is not None and pct > threshold * 100.0:
            regressed = True
            pct_text += " !"
        rows.append([
            name,
            str(sa.count if sa else 0),
            str(sb.count if sb else 0),
            _fmt_seconds(ta),
            _fmt_seconds(tb),
            pct_text,
        ])
    lines = [f"diff {a.path} -> {b.path}:"]
    if rows:
        lines.extend(_table(
            ["span", "count A", "count B", "total A", "total B", "delta"],
            rows,
        ))
    else:
        lines.append("  (no spans in either trace)")
    fa, fb = len(a.frames()), len(b.frames())
    if fa or fb:
        lines.append(f"frames: {fa} -> {fb}")
    return "\n".join(lines), regressed
