"""Tests for repro.obs.summary analysis and the ``python -m repro.obs`` CLI.

Includes the integration path the CI trace-smoke step exercises: record a
trace from a real multi-frame dispatch run (and from ``python -m
repro.check --mode dispatch --trace``), then summarise it with the CLI.
"""

import json

import pytest

from repro.core.vehicles import Vehicle
from repro.core.dispatch import Dispatcher
from repro.obs import start_trace, stop_trace
from repro.obs.__main__ import main as obs_main
from repro.obs.summary import diff, load_trace, summarize
from tests.conftest import make_rider


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    stop_trace()
    yield
    stop_trace()


def write_trace(path, events):
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def synthetic_trace(path, scale=1.0):
    """A hand-built two-frame trace exercising every consumer feature."""
    meta = {"type": "meta", "version": 1, "unix_time": 0.0}
    events = [meta]
    for frame in (0, 1):
        events.append({
            "type": "span", "name": "dispatch.frame",
            "ts": frame * 1.0, "dur": 0.5 * scale, "depth": 0,
            "frame": frame,
            "attrs": {"tier": "eg", "served": 2, "batch": 3},
        })
        events.append({
            "type": "span", "name": "dispatch.solve",
            "ts": frame * 1.0 + 0.1, "dur": 0.2 * scale, "depth": 1,
            "frame": frame, "attrs": {"method": "eg"},
        })
        events.append({
            "type": "instant", "name": "frame.perf",
            "ts": frame * 1.0 + 0.5, "frame": frame,
            "attrs": {"perf": {
                "solve_seconds": 0.2 * scale,
                "disruption_seconds": 0.0,
                "insertion": {"plans": 4 + frame},
                "validation": {"schedules": 0},
                "oracle": {"dijkstra_count": 1, "bidirectional_count": 2,
                           "searches": 3},
            }},
        })
    write_trace(path, events)
    return path


class TestSummaryModule:
    def test_load_and_aggregate(self, tmp_path):
        path = synthetic_trace(str(tmp_path / "t.jsonl"))
        trace = load_trace(path)
        assert trace.ok
        assert trace.frames() == [0, 1]
        aggs = trace.span_aggregates()
        assert aggs["dispatch.frame"].count == 2
        assert aggs["dispatch.frame"].total == pytest.approx(1.0)
        assert aggs["dispatch.solve"].mean == pytest.approx(0.2)
        assert trace.tier_histogram() == {"eg": 2}
        perf = trace.frame_perf()
        assert perf[0]["insertion"]["plans"] == 4
        assert perf[1]["insertion"]["plans"] == 5

    def test_summarize_renders_all_sections(self, tmp_path):
        path = synthetic_trace(str(tmp_path / "t.jsonl"))
        text = summarize(load_trace(path))
        assert "per-frame breakdown:" in text
        assert "top spans" in text
        assert "serving-tier histogram:" in text
        assert "dispatch.frame" in text
        # the per-frame searches column reads oracle.searches
        assert any("3" in line for line in text.splitlines())

    def test_audited_column_dashes_on_older_traces(self, tmp_path):
        """The synthetic trace's payloads predate ``vehicles_audited``."""
        path = synthetic_trace(str(tmp_path / "t.jsonl"))
        lines = summarize(load_trace(path)).splitlines()
        header = lines.index("per-frame breakdown:") + 1
        column = lines[header].split().index("audited")
        rows = [line.split() for line in lines[header + 2:header + 4]]
        assert [row[column] for row in rows] == ["-", "-"]

    def test_tier_histogram_falls_back_to_tier_spans(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_trace(path, [
            {"type": "meta", "version": 1},
            {"type": "span", "name": "solver.tier", "ts": 0.0, "dur": 0.1,
             "depth": 0, "frame": None,
             "attrs": {"tier": "cf", "status": "accepted"}},
            {"type": "span", "name": "solver.tier", "ts": 0.2, "dur": 0.1,
             "depth": 0, "frame": None,
             "attrs": {"tier": "eg", "status": "rejected"}},
        ])
        assert load_trace(path).tier_histogram() == {"cf": 1}

    def test_diff_flags_regressions(self, tmp_path):
        old = load_trace(synthetic_trace(str(tmp_path / "a.jsonl")))
        new = load_trace(synthetic_trace(str(tmp_path / "b.jsonl"), scale=2.0))
        report, regressed = diff(old, new, threshold=0.5)
        assert regressed
        assert "+100.0% !" in report
        report, regressed = diff(old, new, threshold=1.5)
        assert not regressed

    def test_load_trace_missing_file(self, tmp_path):
        trace = load_trace(str(tmp_path / "absent.jsonl"))
        assert not trace.ok
        assert "cannot read" in trace.problems[0]


class TestCLI:
    def test_summary_exit_zero(self, tmp_path, capsys):
        path = synthetic_trace(str(tmp_path / "t.jsonl"))
        assert obs_main(["summary", path]) == 0
        out = capsys.readouterr().out
        assert "per-frame breakdown:" in out

    def test_summary_schema_violation_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "meta", "version": 1}) + "\n")
            fh.write("this is not json\n")
        assert obs_main(["summary", path]) == 1
        assert "SCHEMA VIOLATION" in capsys.readouterr().err

    def test_diff_exit_codes(self, tmp_path, capsys):
        a = synthetic_trace(str(tmp_path / "a.jsonl"))
        b = synthetic_trace(str(tmp_path / "b.jsonl"), scale=3.0)
        assert obs_main(["diff", a, b]) == 0  # no threshold: report only
        assert obs_main(["diff", a, b, "--threshold", "50"]) == 2
        assert obs_main(["diff", b, a, "--threshold", "50"]) == 0
        out = capsys.readouterr().out
        assert "frames: 2 -> 2" in out


class TestIntegration:
    def test_trace_from_real_dispatch_run(self, tmp_path, small_grid):
        """Record two real dispatcher frames; the summary must parse."""
        path = str(tmp_path / "dispatch.jsonl")
        fleet = [Vehicle(vehicle_id=0, location=0, capacity=2)]
        start_trace(path, meta={"scenario": "unit"})
        dispatcher = Dispatcher(
            small_grid, fleet, method="eg", frame_length=10.0, seed=1
        )
        dispatcher.dispatch_frame([
            make_rider(0, source=1, destination=23,
                       pickup_deadline=20.0, dropoff_deadline=60.0),
        ])
        dispatcher.dispatch_frame([])
        stop_trace()

        trace = load_trace(path)
        assert trace.ok, trace.problems
        assert trace.frames() == [0, 1]
        assert set(trace.frame_spans()) == {0, 1}
        assert set(trace.frame_perf()) == {0, 1}
        # nested dispatch spans inherited their frame from dispatch.frame
        solve_frames = sorted(
            e["frame"] for e in trace.spans if e["name"] == "dispatch.solve"
        )
        assert solve_frames == [0, 1]
        assert obs_main(["summary", path]) == 0

    def test_searches_column_counts_tier1_graph_work(self, tmp_path):
        """On a CH oracle, every search is a CH query or a batched row;
        the column must show the frame's ``oracle.searches``, not only
        its Dijkstra and bidirectional runs."""
        from repro.roadnet.generators import grid_city
        from repro.roadnet.oracle import DistanceOracle

        city = grid_city(8, 8, seed=2, removal_fraction=0.0,
                         arterial_every=None)
        fleet = [Vehicle(vehicle_id=i, location=9 * i, capacity=2)
                 for i in range(4)]
        path = str(tmp_path / "tier1.jsonl")
        start_trace(path)
        with Dispatcher(city, fleet, method="eg", frame_length=10.0, seed=1,
                        oracle=DistanceOracle(city, tier=1)) as dispatcher:
            reports = [
                dispatcher.dispatch_frame([
                    make_rider(10 * f + i, source=(7 * i + f) % 64,
                               destination=(7 * i + f + 30) % 64,
                               pickup_deadline=10.0 * f + 25.0,
                               dropoff_deadline=10.0 * f + 90.0)
                    for i in range(5)
                ])
                for f in range(3)
            ]
        stop_trace()

        lines = summarize(load_trace(path)).splitlines()
        header = lines.index("per-frame breakdown:") + 1
        column = lines[header].split().index("searches")
        rows = [line.split() for line in lines[header + 2:header + 5]]
        expected = [str(r.perf.oracle.searches) for r in reports]
        assert [row[column] for row in rows] == expected
        assert all(r.perf.oracle.ch_query_count for r in reports)

    def test_audited_column_counts_audited_vehicles(self, tmp_path, small_grid):
        """The column shows each frame's ``vehicles_audited``: every
        vehicle in the first frame, then only the changed ones."""
        fleet = [Vehicle(vehicle_id=0, location=0, capacity=2)] + [
            Vehicle(vehicle_id=i, location=i, capacity=2, ready_time=500.0)
            for i in range(1, 6)
        ]
        path = str(tmp_path / "audited.jsonl")
        start_trace(path)
        dispatcher = Dispatcher(
            small_grid, fleet, method="eg", frame_length=10.0, seed=1
        )
        reports = [
            dispatcher.dispatch_frame([
                make_rider(0, source=1, destination=23,
                           pickup_deadline=20.0, dropoff_deadline=60.0),
            ]),
            dispatcher.dispatch_frame([]),
        ]
        stop_trace()

        lines = summarize(load_trace(path)).splitlines()
        header = lines.index("per-frame breakdown:") + 1
        column = lines[header].split().index("audited")
        rows = [line.split() for line in lines[header + 2:header + 4]]
        expected = [str(r.perf.vehicles_audited) for r in reports]
        assert [row[column] for row in rows] == expected
        assert reports[0].perf.vehicles_audited == 6
        assert reports[1].perf.vehicles_audited < 6

    def test_trace_from_check_cli(self, tmp_path, capsys):
        """The CI trace-smoke path: repro.check --mode dispatch --trace, then
        repro.obs summary over the artifact."""
        from repro.check.__main__ import main as check_main

        path = str(tmp_path / "check.jsonl")
        out = str(tmp_path / "failures.json")
        rc = check_main([
            "--mode", "dispatch", "--seeds", "1", "--skip-self-test",
            "--trace", path, "--out", out,
        ])
        assert rc == 0
        assert f"trace written to {path}" in capsys.readouterr().out
        trace = load_trace(path)
        assert trace.ok, trace.problems
        assert any(e["name"] == "fuzz.seed" for e in trace.spans)
        assert any(e["name"] == "dispatch.frame" for e in trace.spans)
        assert obs_main(["summary", path]) == 0
