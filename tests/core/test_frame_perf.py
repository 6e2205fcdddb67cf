"""Per-frame snapshot-delta accounting (FrameReport.perf) and the
dispatcher's delta-based perf_report().

Regression focus: the per-frame numbers used to be reads of the
process-wide cumulative counters, so frame N silently included frames
1..N-1 *and* every other dispatcher/solver the process had run.
"""

import io

import pytest

from repro.check.validator import validate_assignment
from repro.core.dispatch import Dispatcher
from repro.core.solver import solve
from repro.core.vehicles import Vehicle
from repro.obs import start_trace, stop_trace, validate_trace
from repro.perf import FramePerf
from tests.conftest import make_rider


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    stop_trace()
    yield
    stop_trace()


@pytest.fixture
def dispatcher(small_grid):
    fleet = [
        Vehicle(vehicle_id=0, location=0, capacity=2),
        Vehicle(vehicle_id=1, location=24, capacity=2),
    ]
    return Dispatcher(
        small_grid, fleet, method="eg", frame_length=10.0, seed=3
    )


def requests(frame):
    base = frame * 10
    start = frame * 10.0
    return [
        make_rider(base + 0, source=1, destination=18,
                   pickup_deadline=start + 15.0,
                   dropoff_deadline=start + 60.0),
        make_rider(base + 1, source=6, destination=22,
                   pickup_deadline=start + 15.0,
                   dropoff_deadline=start + 60.0),
    ]


class TestFramePerfDeltas:
    def test_every_frame_report_carries_perf(self, dispatcher):
        r1 = dispatcher.dispatch_frame(requests(0))
        r2 = dispatcher.dispatch_frame(requests(1))
        assert isinstance(r1.perf, FramePerf)
        assert isinstance(r2.perf, FramePerf)

    def test_frame_counters_do_not_accumulate(self, dispatcher):
        """Frame 2's breakdown must exclude frame 1's work."""
        r1 = dispatcher.dispatch_frame(requests(0))
        r2 = dispatcher.dispatch_frame(requests(1))
        assert r1.perf.insertion.plans > 0
        assert r2.perf.insertion.plans > 0
        # cumulative accounting would make frame 2 >= frame 1 + frame 2
        total = dispatcher.perf_report().insertion.plans
        assert r2.perf.insertion.plans < total
        # ... and the per-frame deltas partition the run exactly
        assert r1.perf.insertion.plans + r2.perf.insertion.plans == total

    def test_oracle_and_validation_deltas_partition_the_run(self, small_grid):
        fleet = [Vehicle(vehicle_id=0, location=0, capacity=2)]
        dispatcher = Dispatcher(
            small_grid, fleet, method="eg", frame_length=10.0, seed=3
        )
        r1 = dispatcher.dispatch_frame(requests(0))
        # validation between frames lands in the next frame's delta
        validate_assignment(r1.assignment.instance, r1.assignment)
        r2 = dispatcher.dispatch_frame(requests(1))
        total = dispatcher.perf_report()
        for field in (
            "query_count", "dijkstra_count", "bidirectional_count", "batch_rows",
        ):
            assert (
                getattr(r1.perf.oracle, field)
                + getattr(r2.perf.oracle, field)
                == getattr(total.oracle, field)
            ), field
        assert r1.perf.validation.schedules == 0
        assert r2.perf.validation.schedules > 0
        assert (
            r1.perf.validation.schedules + r2.perf.validation.schedules
            == total.validation.schedules
        )
        # the APSP build ran once, in frame 1; frame 2 must not re-report it
        assert r1.perf.oracle.searches == len(small_grid)
        assert r2.perf.oracle.searches == 0

    def test_perf_report_excludes_pre_construction_work(
        self, small_grid, line_instance
    ):
        """Work done by other solvers before the dispatcher existed must
        not leak into its run report."""
        solve(line_instance, method="eg")  # pollute the process counters
        fleet = [Vehicle(vehicle_id=0, location=0, capacity=2)]
        dispatcher = Dispatcher(
            small_grid, fleet, method="eg", frame_length=10.0, seed=3
        )
        assert dispatcher.perf_report().insertion.plans == 0
        solve(line_instance, method="eg")  # concurrent outside work leaks —
        # this is the documented limitation of process-wide counters; the
        # report measures the interval, not the owner.  Dispatch nothing
        # and no frame is counted either way.
        assert dispatcher.total_requests == 0
        assert dispatcher.clock == 0.0

    def test_frame_perf_timings(self, dispatcher):
        r1 = dispatcher.dispatch_frame(requests(0))
        perf = r1.perf
        assert perf.wall_seconds > 0.0
        assert perf.solve_seconds > 0.0
        assert perf.wall_seconds >= perf.solve_seconds
        assert perf.disruption_seconds == 0.0
        # no watchdog configured: the tier map is the configured method
        assert list(perf.tier_seconds) == ["eg"]
        assert perf.tier_seconds["eg"] >= 0.0

    def test_frame_perf_with_watchdog_tiers(self, small_grid):
        fleet = [Vehicle(vehicle_id=0, location=0, capacity=2)]
        dispatcher = Dispatcher(
            small_grid, fleet, method="eg", frame_length=10.0, seed=3,
            frame_budget=30.0,
        )
        r1 = dispatcher.dispatch_frame(requests(0))
        assert r1.solver_tier in r1.perf.tier_seconds
        assert r1.perf.watchdog.frames == 1
        assert r1.perf.watchdog.tier_uses == {r1.solver_tier: 1}

    def test_as_dict_round_trip(self, dispatcher):
        r1 = dispatcher.dispatch_frame(requests(0))
        data = r1.perf.as_dict()
        assert data["insertion"]["plans"] == r1.perf.insertion.plans
        assert data["wall_seconds"] == r1.perf.wall_seconds
        assert data["tier_seconds"] == r1.perf.tier_seconds
        assert data["oracle"]["query_count"] == r1.perf.oracle.query_count

    def test_disruption_time_attributed_to_next_frame(self, small_grid):
        from repro.core.disruptions import RiderCancellation

        fleet = [
            Vehicle(vehicle_id=0, location=0, capacity=2),
            Vehicle(vehicle_id=1, location=24, capacity=2),
        ]
        dispatcher = Dispatcher(
            small_grid, fleet, method="eg", frame_length=10.0, seed=3
        )
        r1 = dispatcher.dispatch_frame(requests(0))
        assert r1.perf.disruption_seconds == 0.0
        dispatcher.inject([RiderCancellation(rider_id=0)])
        r2 = dispatcher.dispatch_frame(requests(1))
        assert r2.perf.disruption_seconds > 0.0
        # one-shot: the pending time was consumed by frame 2
        r3 = dispatcher.dispatch_frame([])
        assert r3.perf.disruption_seconds == 0.0


class TestFrameTraceAttribution:
    def test_dispatch_spans_carry_their_frame(self, dispatcher):
        stream = io.StringIO()
        start_trace(stream=stream)
        dispatcher.dispatch_frame(requests(0))
        dispatcher.dispatch_frame(requests(1))
        stop_trace()
        events, problems = validate_trace(stream.getvalue().splitlines())
        assert problems == []
        frame_spans = [e for e in events if e.get("name") == "dispatch.frame"]
        assert [e["frame"] for e in frame_spans] == [0, 1]
        assert frame_spans[0]["attrs"]["tier"] == "eg"
        # nested solve/build spans inherit the frame index
        for name in ("dispatch.build_instance", "dispatch.solve"):
            inner = [e for e in events if e.get("name") == name]
            assert sorted(e["frame"] for e in inner) == [0, 1], name
        # the per-frame delta is mirrored into the trace
        perf_instants = [
            e for e in events if e.get("name") == "frame.perf"
        ]
        assert [e["frame"] for e in perf_instants] == [0, 1]
        assert perf_instants[0]["attrs"]["perf"]["insertion"]["plans"] > 0
