"""Unit tests for repro.service (streaming micro-batch engine)."""

import gc
import time
import weakref

import pytest

from repro.core.dispatch import Dispatcher, RiderStatus
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from repro.service import Arrival, StreamingEngine, simulator_arrivals
from repro.workload.taxi import TaxiTripSimulator
from tests.conftest import make_rider


@pytest.fixture(scope="module")
def city():
    return grid_city(6, 6, seed=1, removal_fraction=0.0, arterial_every=None)


def make_fleet():
    return [Vehicle(vehicle_id=0, location=0, capacity=3),
            Vehicle(vehicle_id=1, location=35, capacity=3)]


def make_dispatcher(city, frame_length=10.0, **kwargs):
    return Dispatcher(
        city, make_fleet(), method="eg", frame_length=frame_length, seed=1,
        **kwargs,
    )


def arrival(rider_id, time, city=None, source=0, destination=5):
    return Arrival(
        rider=make_rider(
            rider_id, source=source, destination=destination,
            pickup_deadline=time + 15.0, dropoff_deadline=time + 60.0,
        ),
        time=time,
    )


def stream_of(city, seed=3, num_frames=4, frame_length=10.0, rate=0.6):
    sim = TaxiTripSimulator(city, seed=seed, trips_per_minute=rate)
    return list(simulator_arrivals(
        sim, num_frames=num_frames, frame_length=frame_length, patience=12.0,
    ))


class TestTriggers:
    def test_interval_trigger_fires_elapsed_windows(self, city):
        engine = StreamingEngine(make_dispatcher(city), delta_t=5.0)
        # a gap spanning three whole windows fires three interval frames
        fired = engine.process([arrival(0, 1.0), arrival(1, 16.0)])
        assert [b.trigger for b in fired] == ["interval"] * 3
        assert [b.num_new for b in fired] == [1, 0, 0]
        assert engine.window_start == 15.0
        assert engine.pending_arrivals == 1

    def test_empty_windows_still_fire(self, city):
        engine = StreamingEngine(make_dispatcher(city), delta_t=5.0)
        fired = engine.process([], until=20.0)
        assert len(fired) == 4
        assert all(b.report.batch_size == 0 for b in fired)
        assert engine.dispatcher.clock == 20.0

    def test_count_trigger_fires_early(self, city):
        engine = StreamingEngine(make_dispatcher(city), delta_t=10.0, max_batch=2)
        fired = engine.process([arrival(0, 1.0), arrival(1, 2.0), arrival(2, 3.0)])
        assert [b.trigger for b in fired] == ["count"]
        assert fired[0].num_new == 2
        assert fired[0].solved_at == 2.0  # the triggering arrival's time
        assert fired[0].frame_length == 2.0
        assert engine.pending_arrivals == 1

    def test_zero_length_count_batch(self, city):
        # max_batch arrivals at the window start: frame_length == 0 is legal
        engine = StreamingEngine(make_dispatcher(city), delta_t=10.0, max_batch=1)
        fired = engine.process([arrival(0, 0.0), arrival(1, 0.0)])
        assert len(fired) == 2
        assert all(b.frame_length == 0.0 for b in fired)
        assert engine.dispatcher.clock == 0.0

    def test_drain_flushes_partial_window(self, city):
        engine = StreamingEngine(make_dispatcher(city), delta_t=5.0)
        fired = engine.process([arrival(0, 1.0)], drain=True)
        assert [b.trigger for b in fired] == ["drain"]
        assert fired[0].num_new == 1
        assert engine.dispatcher.clock == 5.0

    def test_drain_method_noop_when_empty(self, city):
        engine = StreamingEngine(make_dispatcher(city), delta_t=5.0)
        assert engine.drain() == []

    def test_process_resumes_open_window_across_calls(self, city):
        engine = StreamingEngine(make_dispatcher(city), delta_t=5.0)
        assert engine.process([arrival(0, 1.0)]) == []
        fired = engine.process([arrival(1, 6.0)])
        assert len(fired) == 1 and fired[0].num_new == 1

    def test_late_arrival_skipped_and_counted(self, city):
        engine = StreamingEngine(make_dispatcher(city), delta_t=5.0)
        engine.process([], until=10.0)
        assert engine.process([arrival(0, 3.0)]) == []
        assert engine.replayed_arrivals == 1
        assert engine.pending_arrivals == 0

    def test_duplicate_rider_id_rejected(self, city):
        engine = StreamingEngine(make_dispatcher(city), delta_t=5.0)
        engine.process([arrival(0, 1.0)])
        with pytest.raises(ValueError, match="unique"):
            engine.process([arrival(0, 2.0)])

    def test_invalid_parameters(self, city):
        with pytest.raises(ValueError, match="delta_t"):
            StreamingEngine(make_dispatcher(city), delta_t=0.0)
        with pytest.raises(ValueError, match="max_batch"):
            StreamingEngine(make_dispatcher(city), delta_t=1.0, max_batch=0)

    def test_delta_t_defaults_to_frame_length(self, city):
        engine = StreamingEngine(make_dispatcher(city, frame_length=7.0))
        assert engine.delta_t == 7.0

    def test_boundary_hook_called_per_batch(self, city):
        seen = []
        engine = StreamingEngine(
            make_dispatcher(city), delta_t=5.0,
            boundary_hook=lambda eng, batch: seen.append(batch.index),
        )
        engine.process([], until=15.0)
        assert seen == [0, 1, 2]

    def test_only_the_hook_sees_a_frame_plan(self, city):
        instances = []

        def keep_ref(engine, batch):
            instances.append(weakref.ref(batch.report.assignment.instance))

        engine = StreamingEngine(
            make_dispatcher(city), delta_t=3.0, max_batch=4,
            boundary_hook=keep_ref,
        )
        fired = engine.process(stream_of(city), until=30.0, drain=True)
        assert fired == engine.batches
        assert len(instances) == len(fired) > 1
        assert all(batch.report.assignment is None for batch in fired)
        gc.collect()
        assert all(ref() is None for ref in instances)


class TestBatchEquivalence:
    def test_interval_pinned_to_frame_length_reproduces_batch(self, city):
        L, frames = 10.0, 4
        arrivals = stream_of(city, num_frames=frames, frame_length=L)
        batch = make_dispatcher(city, frame_length=L)
        per_frame = [[] for _ in range(frames)]
        for a in arrivals:
            per_frame[min(int(a.time // L), frames - 1)].append(a.rider)
        batch_reports = [batch.dispatch_frame(riders) for riders in per_frame]

        stream = make_dispatcher(city, frame_length=L)
        engine = StreamingEngine(stream, delta_t=L)
        fired = engine.process(arrivals, until=frames * L)

        assert len(fired) == frames
        for br, sb in zip(batch_reports, fired):
            sr = sb.report
            assert br.frame_start == sr.frame_start
            assert br.num_requests == sr.num_requests
            assert br.num_carried == sr.num_carried
            assert br.num_served == sr.num_served
            assert br.num_expired == sr.num_expired
            assert br.utility == sr.utility
        assert batch.ledger == stream.ledger
        assert batch.fleet_locations() == stream.fleet_locations()

    def test_count_trigger_run_serves_stream(self, city):
        arrivals = stream_of(city)
        engine = StreamingEngine(make_dispatcher(city), delta_t=3.0, max_batch=4)
        engine.process(arrivals, until=40.0, drain=True)
        counts = engine.dispatcher.ledger_counts()
        assert counts["delivered"] + counts["committed"] > 0
        assert engine.summary()["admitted"] == len(arrivals)


class TestLatencySpans:
    def test_spans_progress_through_lifecycle(self, city):
        arrivals = stream_of(city)
        engine = StreamingEngine(make_dispatcher(city), delta_t=3.0, max_batch=4)
        engine.process(arrivals, until=60.0, drain=True)
        delivered = [
            s for s in engine.spans.values() if s.delivery is not None
        ]
        assert delivered
        for span in delivered:
            assert span.committed is not None
            assert span.arrival <= span.committed
            assert span.pickup is not None
            assert span.pickup <= span.delivery
            assert span.vehicle_id in (0, 1)

    def test_latency_summary_percentiles(self, city):
        arrivals = stream_of(city)
        engine = StreamingEngine(make_dispatcher(city), delta_t=3.0, max_batch=4)
        engine.process(arrivals, until=60.0, drain=True)
        summary = engine.latency_summary()
        commit = summary["admission_to_commit"]
        assert commit["count"] > 0
        assert 0.0 <= commit["p50"] <= commit["p95"] <= commit["p99"]
        assert commit["p50"] <= 3.0 + 1e-9  # bounded by the window length

    def test_expired_rider_span_closed(self, city):
        # an unreachable deadline: pickup_deadline before the next window
        engine = StreamingEngine(
            make_dispatcher(city, max_retries=1), delta_t=5.0,
        )
        # middle of the grid, deadline far too tight for either corner
        # vehicle to reach
        doomed = Arrival(
            rider=make_rider(
                99, source=14, destination=35,
                pickup_deadline=0.3, dropoff_deadline=200.0,
            ),
            time=0.2,
        )
        engine.process([doomed], until=10.0)
        span = engine.spans[99]
        assert span.expired is not None
        assert span.closed
        assert engine.summary()["expired"] == 1

    def test_summary_counts_consistent(self, city):
        arrivals = stream_of(city)
        engine = StreamingEngine(make_dispatcher(city), delta_t=3.0, max_batch=4)
        engine.process(arrivals, until=60.0, drain=True)
        summary = engine.summary()
        assert summary["admitted"] == len(arrivals)
        assert summary["batches"] == len(engine.batches)
        assert (
            summary["delivered"] + summary["expired"]
            + summary["cancelled"] + summary["open"]
            == summary["admitted"]
        )


class TestChangedVehicleSpans:
    def test_spans_match_a_read_of_every_active_plan(self, city, monkeypatch):
        """Reading only each frame's changed vehicles leaves every span
        exactly as reading every active plan would, disruptions included."""
        from repro.core.disruptions import TravelTimePerturbation
        from repro.core.schedule import StopKind

        def every_active_plan(self, report):
            times = {}
            for vid, seq in report.assignment.schedules.iter_active():
                for stop, arrive in zip(seq.stops, seq.arrive):
                    entry = times.setdefault(
                        stop.rider.rider_id, [vid, None, None]
                    )
                    entry[1 if stop.kind is StopKind.PICKUP else 2] = arrive
            return {rid: tuple(entry) for rid, entry in times.items()}

        def perturb_once(engine, batch):
            if batch.index == 5:
                engine.dispatcher.inject([
                    TravelTimePerturbation(factors=((0, 1, 2.5), (14, 15, 0.5)))
                ])

        def spans(read):
            if read is not None:
                monkeypatch.setattr(
                    StreamingEngine, "_scheduled_stop_times", read
                )
            # a private copy: the perturbation edits the network
            dispatcher = Dispatcher(city.copy(), make_fleet(), method="eg",
                                    frame_length=2.0, seed=1)
            engine = StreamingEngine(dispatcher, boundary_hook=perturb_once)
            engine.process(stream_of(city, rate=1.2), until=60.0, drain=True)
            return {rid: vars(span) for rid, span in engine.spans.items()}

        incremental = spans(None)
        assert spans(every_active_plan) == incremental
        assert sum(s["delivery"] is not None for s in incremental.values())


class TestWallClock:
    def test_batch_wall_seconds_bounded_by_process(self, city):
        engine = StreamingEngine(make_dispatcher(city), delta_t=3.0, max_batch=4)
        start = time.perf_counter()
        engine.process(stream_of(city), until=60.0, drain=True)
        elapsed = time.perf_counter() - start
        walls = [batch.wall_seconds for batch in engine.batches]
        assert walls and all(w >= 0.0 for w in walls)
        assert sum(walls) <= elapsed
        wall_ms = engine.summary()["wall_ms"]
        assert 0.0 <= wall_ms["p50"] <= wall_ms["p95"] <= max(walls) * 1e3

    def test_summary_without_batches(self, city):
        assert StreamingEngine(make_dispatcher(city)).summary()["wall_ms"] == {}


class TestCrashResume:
    def test_resume_reproduces_uninterrupted_run(self, city, tmp_path):
        from repro.core.durability import DurabilityConfig

        L = 10.0
        arrivals = stream_of(city)

        reference = make_dispatcher(city, frame_length=L)
        ref_engine = StreamingEngine(reference, delta_t=3.0, max_batch=4)
        ref_engine.process(arrivals, until=40.0, drain=True)

        crashed = make_dispatcher(
            city, frame_length=L,
            durability=DurabilityConfig(directory=tmp_path, checkpoint_every=2),
        )
        engine = StreamingEngine(crashed, delta_t=3.0, max_batch=4)

        class Crash(Exception):
            pass

        def crash_midway(eng, batch):
            if batch.index == 4:
                raise Crash

        engine.boundary_hook = crash_midway
        with pytest.raises(Crash):
            engine.process(arrivals, until=40.0, drain=True)

        restored = Dispatcher.restore(str(tmp_path))
        resumed = StreamingEngine(restored, delta_t=3.0, max_batch=4)
        resumed.process(arrivals, until=40.0, drain=True)

        assert resumed.replayed_arrivals > 0  # pre-crash arrivals skipped
        assert restored.clock == reference.clock
        assert restored.ledger == reference.ledger
        assert restored.fleet_locations() == reference.fleet_locations()

    def test_variable_frame_lengths_round_trip_the_wal(self, city, tmp_path):
        from repro.core.durability import DurabilityConfig

        durable = make_dispatcher(
            city,
            durability=DurabilityConfig(directory=tmp_path, checkpoint_every=100),
        )
        engine = StreamingEngine(durable, delta_t=4.0, max_batch=2)
        engine.process(stream_of(city, num_frames=2), until=20.0, drain=True)
        lengths = [b.report.frame_length for b in engine.batches]
        assert len(set(lengths)) > 1  # genuinely variable horizons

        restored = Dispatcher.restore(str(tmp_path))
        assert restored.clock == durable.clock
        assert restored.ledger == durable.ledger
