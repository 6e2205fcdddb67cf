"""Unit tests for repro.core.dispatch (rolling-horizon dispatcher)."""

import dataclasses
import gc
import weakref

import pytest

from repro.core.dispatch import DispatchConfig, DispatchError, Dispatcher
from repro.core.schedule import Stop
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle
from repro.workload.taxi import TaxiTripSimulator
from tests.conftest import make_rider


@pytest.fixture(scope="module")
def city():
    return grid_city(8, 8, seed=2, removal_fraction=0.0, arterial_every=None)


@pytest.fixture
def dispatcher(city):
    fleet = [
        Vehicle(vehicle_id=0, location=0, capacity=2),
        Vehicle(vehicle_id=1, location=63, capacity=2),
    ]
    return Dispatcher(city, fleet, method="eg", frame_length=30.0, seed=1)


def frame_requests(city, count, start, seed, id_base=0):
    """Requests whose deadlines live on the absolute dispatcher clock.

    ``id_base`` keeps rider ids globally unique across frames (the
    dispatcher rejects reuse: carried-over and committed riders stay live
    between frames).
    """
    oracle = DistanceOracle(city)
    sim = TaxiTripSimulator(city, oracle=oracle, seed=seed)
    trips = sim.generate_trips(count, start, 30.0)
    riders = []
    for i, t in enumerate(trips):
        shortest = oracle.cost(t.pickup_node, t.dropoff_node)
        riders.append(
            make_rider(
                id_base + i, source=t.pickup_node, destination=t.dropoff_node,
                pickup_deadline=start + 20.0,
                dropoff_deadline=start + 20.0 + 2.0 * shortest,
            )
        )
    return riders


class TestConstruction:
    def test_duplicate_fleet_ids_rejected(self, city):
        fleet = [Vehicle(0, 0, 2), Vehicle(0, 1, 2)]
        with pytest.raises(ValueError, match="unique"):
            Dispatcher(city, fleet)

    def test_empty_fleet_rejected(self, city):
        with pytest.raises(ValueError, match="at least one"):
            Dispatcher(city, [])

    def test_options_live_in_one_validated_config(self, city):
        fleet = [Vehicle(0, 0, 2)]
        d = Dispatcher(city, fleet, method="cf", max_retries=2)
        assert d.config == DispatchConfig(method="cf", max_retries=2)
        for option in dataclasses.fields(DispatchConfig):
            assert not hasattr(d, option.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.config.method = "eg"
        with pytest.raises(ValueError, match="max_retries"):
            Dispatcher(city, fleet, max_retries=0)
        with pytest.raises(TypeError, match="fallbacks"):
            Dispatcher(city, fleet, fallbacks=("cf",))

    def test_config_fields_are_pinned(self):
        # a new setting must show up here as a deliberate test change
        assert [f.name for f in dataclasses.fields(DispatchConfig)] == [
            "method", "frame_length", "alpha", "beta", "seed", "max_retries",
            "validate_frames", "frame_budget", "candidate_mode",
            "shard_workers", "shard_count",
        ]

    @pytest.mark.parametrize(
        "setting",
        [
            {"frame_length": -5.0},
            {"frame_length": float("nan")},
            {"frame_budget": -1.0},
            {"alpha": 2.0},
        ],
        ids=["negative-frame", "nan-frame", "negative-budget", "alpha"],
    )
    def test_settings_that_break_the_run_are_rejected(self, setting):
        name = next(iter(setting))
        with pytest.raises(ValueError, match=name):
            DispatchConfig(**setting)

    def test_bad_alpha_writes_no_base_snapshot(self, city, tmp_path):
        with pytest.raises(ValueError, match="alpha"):
            Dispatcher(
                city, [Vehicle(0, 0, 2)], alpha=2.0, durability=str(tmp_path)
            )
        assert not list(tmp_path.iterdir())

    def test_live_config_keeps_build_fields(self, city):
        d = Dispatcher(city, [Vehicle(0, 0, 2)])
        d.config = dataclasses.replace(d.config, validate_frames=True)
        assert d.config.validate_frames
        for change in (
            {"candidate_mode": "spatial"},
            {"shard_workers": 1},
            {"shard_count": 4},
        ):
            with pytest.raises(ValueError, match="live dispatcher"):
                d.config = dataclasses.replace(d.config, **change)
        assert d.candidates is None and d.config.shard_workers is None

    def test_initial_state(self, dispatcher):
        assert dispatcher.clock == 0.0
        assert dispatcher.total_requests == 0
        assert dispatcher.fleet_locations() == {0: 0, 1: 63}
        assert dispatcher.pending_requests == []


class TestDispatchFrame:
    def test_single_frame(self, dispatcher, city):
        requests = frame_requests(city, 8, 0.0, seed=3)
        report = dispatcher.dispatch_frame(requests)
        assert report.frame_index == 0
        assert report.num_requests == 8
        assert report.num_carried == 0
        assert 0 < report.num_served <= 8
        assert report.utility > 0
        assert report.assignment.is_valid()
        assert dispatcher.clock == 30.0

    def test_fleet_rolls_forward(self, dispatcher, city):
        """Rollforward is time-consistent: each vehicle sits at the last
        stop it can reach by the new clock — or, mid-leg, is anchored at
        the stop it is driving towards with ``ready_time`` equal to its
        exact arrival there (never at the end of an unfinished plan)."""
        requests = frame_requests(city, 8, 0.0, seed=3)
        report = dispatcher.dispatch_frame(requests)
        next_clock = 30.0
        for vid, seq in report.assignment.schedules.items():
            fv = dispatcher.fleet[vid]
            if not seq.stops:
                assert fv.location == seq.origin
                continue
            reached = [k for k, t in enumerate(seq.arrive) if t <= next_clock]
            if len(reached) == len(seq.stops):
                assert fv.location == seq.stops[-1].location
                assert fv.ready_time is None
                assert fv.committed_stops == ()
            else:
                k = len(reached)  # first stop still ahead at the new clock
                assert fv.location == seq.stops[k].location
                assert fv.ready_time == pytest.approx(seq.arrive[k])
                assert fv.ready_time > next_clock
                assert fv.committed_stops == tuple(seq.stops[k + 1:])

    def test_multiple_frames_accumulate(self, dispatcher, city):
        reports = []
        for frame in range(3):
            requests = frame_requests(
                city, 6, frame * 30.0, seed=10 + frame, id_base=frame * 100
            )
            reports.append(dispatcher.dispatch_frame(requests))
        assert dispatcher.total_requests == 18
        assert 0 < dispatcher.total_served <= 18
        assert 0.0 < dispatcher.service_rate <= 1.0
        # running totals: the reports' fields summed in frame order
        assert dispatcher.total_served == sum(r.num_served for r in reports)
        assert dispatcher.total_expired == sum(r.num_expired for r in reports)
        assert dispatcher.total_utility == sum(r.utility for r in reports)
        assert dispatcher.clock == 90.0

    def test_dropped_report_frees_the_frame_instance(self, dispatcher, city):
        report = dispatcher.dispatch_frame(
            frame_requests(city, 6, 0.0, seed=10)
        )
        assert report.num_served > 0
        instance = weakref.ref(report.assignment.instance)
        del report
        gc.collect()
        assert instance() is None

    def test_empty_frame(self, dispatcher):
        report = dispatcher.dispatch_frame([])
        assert report.num_requests == 0
        assert report.num_served == 0
        # an empty frame is vacuously fully served, not a 0% failure
        assert report.service_rate == 1.0

    def test_zero_request_service_rates(self, dispatcher):
        """Guard: no-demand runs report 1.0, never divide by zero."""
        assert dispatcher.total_requests == 0
        assert dispatcher.service_rate == 1.0
        report = dispatcher.dispatch_frame([])
        assert report.batch_size == 0
        assert report.service_rate == 1.0
        assert dispatcher.service_rate == 1.0

    def test_utilisation_tracking(self, dispatcher, city):
        dispatcher.dispatch_frame(frame_requests(city, 8, 0.0, seed=3))
        utilisation = dispatcher.utilisation()
        assert set(utilisation) == {0, 1}
        assert all(u >= 0 for u in utilisation.values())
        assert sum(u > 0 for u in utilisation.values()) >= 1

    def test_deadlines_use_absolute_clock(self, dispatcher, city):
        """A request whose deadlines already passed cannot be served."""
        dispatcher.dispatch_frame(frame_requests(city, 4, 0.0, seed=3))
        stale = [
            make_rider(1000, source=10, destination=20,
                       pickup_deadline=1.0, dropoff_deadline=5.0)
        ]
        report = dispatcher.dispatch_frame(stale)
        assert report.num_served == 0

    def test_rider_id_reuse_rejected(self, dispatcher, city):
        dispatcher.dispatch_frame(frame_requests(city, 4, 0.0, seed=3))
        with pytest.raises(ValueError, match="unique across"):
            dispatcher.dispatch_frame(frame_requests(city, 4, 30.0, seed=4))

    def test_gbs_method_supported(self, city):
        from repro.core.grouping import prepare_grouping

        fleet = [Vehicle(0, 0, 2), Vehicle(1, 30, 2)]
        plan = prepare_grouping(city, k=3)
        dispatcher = Dispatcher(city, fleet, method="gbs+eg", plan=plan)
        report = dispatcher.dispatch_frame(frame_requests(city, 6, 0.0, seed=4))
        assert report.assignment.is_valid()


def _long_trip_dispatcher(city, frame_length=6.0, **kwargs):
    """A dispatcher whose frames are much shorter than its trips, so
    plans routinely straddle frame boundaries (carried-over state)."""
    fleet = [Vehicle(vehicle_id=0, location=0, capacity=2)]
    return Dispatcher(
        city, fleet, method="eg", frame_length=frame_length, seed=7, **kwargs
    )


def _long_trip(rid, start):
    # 0 -> 63 crosses the whole 8x8 grid: far longer than one frame
    return make_rider(
        rid, source=9, destination=63,
        pickup_deadline=start + 30.0, dropoff_deadline=start + 90.0,
    )


def _interleaved_trips():
    """Two riders whose EG plan interleaves (P0@9 P1@18 D1@45 D0@63):
    at the first 6-minute boundary the vehicle is mid-leg towards 45
    with rider 0 onboard and rider 0's drop-off still committed."""
    return [
        make_rider(0, source=9, destination=63,
                   pickup_deadline=30.0, dropoff_deadline=90.0),
        make_rider(1, source=18, destination=45,
                   pickup_deadline=30.0, dropoff_deadline=90.0),
    ]


class TestRollforward:
    def test_vehicle_not_teleported_across_frames(self, city):
        """Regression: the seed dispatcher jumped every vehicle to its
        final stop at the frame boundary, even when the plan ran hours
        past it.  The rollforward must keep the vehicle mid-route."""
        dispatcher = _long_trip_dispatcher(city)
        report = dispatcher.dispatch_frame([_long_trip(0, 0.0)])
        assert report.num_served == 1
        seq = report.assignment.schedules[0]
        assert seq.arrive[-1] > dispatcher.clock  # plan outlives the frame
        fv = dispatcher.fleet[0]
        assert (fv.location, fv.ready_time) != (seq.stops[-1].location, None)
        assert fv.ready_time is not None
        assert fv.ready_time > dispatcher.clock
        # the next frame plans this vehicle only from its true arrival
        report2 = dispatcher.dispatch_frame([])
        assert report2.assignment.is_valid()

    def test_onboard_riders_survive_the_boundary(self, city):
        dispatcher = _long_trip_dispatcher(city)
        dispatcher.dispatch_frame(_interleaved_trips())
        fv = dispatcher.fleet[0]
        # both pickups fall inside frame 0 and rider 1's drop-off is the
        # in-flight leg; rider 0 must ride across the boundary with its
        # drop-off still committed
        assert {r.rider_id for r in fv.onboard} == {0}
        assert any(s.rider.rider_id == 0 for s in fv.committed_stops)
        # run empty frames until the plan finishes; the rider leaves the
        # car exactly when its drop-off stop is reached, never silently
        for _ in range(20):
            dispatcher.dispatch_frame([])
            if not dispatcher.fleet[0].onboard:
                break
        assert dispatcher.fleet[0].onboard == ()
        assert dispatcher.fleet[0].committed_stops == ()

    def test_committed_riders_stay_served(self, city):
        """A rider promised in frame f is still delivered even when later
        frames bring competing requests."""
        dispatcher = _long_trip_dispatcher(city)
        dispatcher.dispatch_frame(_interleaved_trips())
        report = dispatcher.dispatch_frame(
            [make_rider(2, source=0, destination=1,
                        pickup_deadline=40.0, dropoff_deadline=90.0)]
        )
        seq = report.assignment.schedules[0]
        assert 0 in seq.rider_ids()  # commitment honoured
        assert report.assignment.is_valid()

    def test_frame_metrics_not_double_counted(self, city):
        """A plan spanning 3 frames is charged once: empty follow-up
        frames add no utility, cost, or served riders."""
        dispatcher = _long_trip_dispatcher(city)
        first = dispatcher.dispatch_frame([_long_trip(0, 0.0)])
        later = [dispatcher.dispatch_frame([]) for _ in range(3)]
        assert first.num_served == 1
        for r in later:
            assert r.num_served == 0
            assert r.utility == pytest.approx(0.0, abs=1e-9)
            assert r.travel_cost == pytest.approx(0.0, abs=1e-9)
        assert dispatcher.total_served == 1


def _missing_solve(drop_by_call):
    """Wrap the real solver, dropping given rider ids on given calls.

    Simulates a heuristic miss (BA's randomised order or GBS's grouping
    boundaries can strand feasible riders) so the carry-over path is
    exercised deterministically with EG.
    """
    from repro.core.solver import solve as real_solve

    calls = {"n": 0}

    def wrapped(instance, **kwargs):
        assignment = real_solve(instance, **kwargs)
        drop = drop_by_call.get(calls["n"], ())
        calls["n"] += 1
        for rid in drop:
            for vid, seq in assignment.schedules.items():
                if any(r.rider_id == rid for r in seq.assigned_riders()):
                    assignment.schedules[vid] = seq.without_rider(rid)
        return assignment

    return wrapped


class TestCarryOver:
    def test_unserved_rider_is_retried(self, city, monkeypatch):
        fleet = [Vehicle(vehicle_id=0, location=0, capacity=1)]
        dispatcher = Dispatcher(city, fleet, method="eg", frame_length=5.0,
                                seed=7, max_retries=5)
        # frame 0 misses rider 1; its deadline is still live, so it must
        # re-enter frame 1's batch and get served there
        monkeypatch.setattr(
            "repro.core.dispatch.solve", _missing_solve({0: {1}})
        )
        riders = [
            make_rider(0, source=1, destination=2,
                       pickup_deadline=30.0, dropoff_deadline=60.0),
            make_rider(1, source=1, destination=2,
                       pickup_deadline=30.0, dropoff_deadline=60.0),
        ]
        first = dispatcher.dispatch_frame(riders)
        assert first.num_served == 1
        assert [r.rider_id for r in dispatcher.pending_requests] == [1]
        second = dispatcher.dispatch_frame([])
        assert second.num_carried == 1
        assert second.num_requests == 0
        assert second.num_served == 1
        assert dispatcher.pending_requests == []

    def test_expired_rider_not_retried(self, dispatcher, city):
        # deadlines end before the next frame's clock -> expired, not carried
        report = dispatcher.dispatch_frame(frame_requests(city, 8, 0.0, seed=3))
        unserved = report.num_requests - report.num_served
        assert report.num_expired == unserved
        assert dispatcher.pending_requests == []

    def test_retry_budget_bounds_the_queue(self, city, monkeypatch):
        fleet = [Vehicle(vehicle_id=0, location=0, capacity=1)]
        dispatcher = Dispatcher(city, fleet, method="eg", frame_length=1.0,
                                seed=7, max_retries=2)
        # rider 1 is missed every frame; its deadline is far in the
        # future, so only the retry budget can expire it
        monkeypatch.setattr(
            "repro.core.dispatch.solve",
            _missing_solve({n: {1} for n in range(10)}),
        )
        riders = [
            make_rider(0, source=1, destination=2,
                       pickup_deadline=500.0, dropoff_deadline=1000.0),
            make_rider(1, source=1, destination=2,
                       pickup_deadline=500.0, dropoff_deadline=1000.0),
        ]
        first = dispatcher.dispatch_frame(riders)
        assert first.num_served == 1
        assert len(dispatcher.pending_requests) == 1  # attempts=1 < 2
        second = dispatcher.dispatch_frame([])
        # the second (and last budgeted) attempt also misses: expired
        assert second.num_carried == 1
        assert second.num_expired == 1
        assert dispatcher.pending_requests == []

    def test_service_rate_counts_unique_riders(self, city, monkeypatch):
        fleet = [Vehicle(vehicle_id=0, location=0, capacity=1)]
        dispatcher = Dispatcher(city, fleet, method="eg", frame_length=5.0,
                                seed=7, max_retries=4)
        monkeypatch.setattr(
            "repro.core.dispatch.solve", _missing_solve({0: {1, 2}, 1: {2}})
        )
        riders = [
            make_rider(i, source=1 + i, destination=20 + i,
                       pickup_deadline=60.0, dropoff_deadline=200.0)
            for i in range(3)
        ]
        for _ in range(4):
            dispatcher.dispatch_frame(riders)
            riders = []
        # every rider counted once in the denominator despite retries
        assert dispatcher.total_requests == 3
        assert dispatcher.total_served == 3
        assert dispatcher.service_rate == 1.0


class TestCarryoverBoundaries:
    """Exact edges of _update_carryover: deadline == next_clock and the
    attempts/max_retries fencepost, plus FrameReport degenerate frames."""

    def _lone_vehicle(self, city, frame_length=10.0, max_retries=5):
        fleet = [Vehicle(vehicle_id=0, location=0, capacity=1)]
        return Dispatcher(city, fleet, method="eg",
                          frame_length=frame_length, seed=7,
                          max_retries=max_retries)

    def test_deadline_exactly_at_next_clock_expires(self, city, monkeypatch):
        from repro.core.dispatch import RiderStatus

        dispatcher = self._lone_vehicle(city)
        monkeypatch.setattr(
            "repro.core.dispatch.solve", _missing_solve({0: {0}})
        )
        # pickup_deadline == next frame's clock exactly: the rider could
        # never be picked up after the boundary, so it must expire now
        rider = make_rider(0, source=1, destination=2,
                           pickup_deadline=10.0, dropoff_deadline=60.0)
        report = dispatcher.dispatch_frame([rider])
        assert report.num_served == 0
        assert report.num_expired == 1
        assert dispatcher.pending_requests == []
        assert dispatcher.ledger[0] is RiderStatus.EXPIRED

    def test_deadline_just_past_next_clock_is_carried(self, city, monkeypatch):
        dispatcher = self._lone_vehicle(city)
        monkeypatch.setattr(
            "repro.core.dispatch.solve", _missing_solve({0: {0}})
        )
        rider = make_rider(0, source=1, destination=2,
                           pickup_deadline=10.001, dropoff_deadline=60.0)
        report = dispatcher.dispatch_frame([rider])
        assert report.num_expired == 0
        assert [r.rider_id for r in dispatcher.pending_requests] == [0]

    def test_max_retries_n_means_exactly_n_offers(self, city, monkeypatch):
        from repro.core.dispatch import RiderStatus

        retries = 3
        dispatcher = self._lone_vehicle(city, frame_length=1.0,
                                        max_retries=retries)
        offered = []
        from repro.core.solver import solve as real_solve

        def counting_solve(instance, **kwargs):
            offered.append(sorted(r.rider_id for r in instance.riders))
            assignment = real_solve(instance, **kwargs)
            # miss rider 0 every frame: only the retry budget expires it
            for vid, seq in assignment.schedules.items():
                if any(r.rider_id == 0 for r in seq.assigned_riders()):
                    assignment.schedules[vid] = seq.without_rider(0)
            return assignment

        monkeypatch.setattr("repro.core.dispatch.solve", counting_solve)
        rider = make_rider(0, source=1, destination=2,
                           pickup_deadline=500.0, dropoff_deadline=1000.0)
        dispatcher.dispatch_frame([rider])
        for _ in range(retries + 2):
            dispatcher.dispatch_frame([])
        # offered to the solver in exactly the first `retries` frames
        assert [0] in offered
        assert sum(1 for batch in offered if 0 in batch) == retries
        assert dispatcher.ledger[0] is RiderStatus.EXPIRED

    def test_empty_frame_service_rate_vacuous(self, city):
        dispatcher = self._lone_vehicle(city)
        report = dispatcher.dispatch_frame([])
        assert report.batch_size == 0
        assert report.num_requests == report.num_carried == 0
        assert report.service_rate == 1.0

    def test_carried_only_frame_counts_in_batch_size(self, city, monkeypatch):
        dispatcher = self._lone_vehicle(city)
        monkeypatch.setattr(
            "repro.core.dispatch.solve", _missing_solve({0: {0}, 1: {0}})
        )
        rider = make_rider(0, source=1, destination=2,
                           pickup_deadline=500.0, dropoff_deadline=1000.0)
        dispatcher.dispatch_frame([rider])
        # frame 1 has no new requests, only the retried rider — it is
        # offered (batch_size 1) and missed again (service_rate 0)
        report = dispatcher.dispatch_frame([])
        assert report.num_requests == 0
        assert report.num_carried == 1
        assert report.batch_size == 1
        assert report.service_rate == 0.0
        # frame 2: the solver finally keeps it
        served = dispatcher.dispatch_frame([])
        assert served.num_carried == 1
        assert served.service_rate == 1.0


def _corrupting_solve(corrupt):
    """Wrap the real solver so the frame's plan is tampered with."""
    from repro.core.solver import solve as real_solve

    def wrapped(instance, **kwargs):
        assignment = real_solve(instance, **kwargs)
        corrupt(assignment)
        return assignment

    return wrapped


class TestDispatchError:
    def test_invalid_plan_raises_typed_error(self, city, monkeypatch):
        dispatcher = _long_trip_dispatcher(city)
        dispatcher.dispatch_frame(_interleaved_trips())

        def drop_commitments(assignment):
            # rider 0 is onboard with a committed drop-off: removing its
            # stops leaves it in the car forever
            seq = assignment.schedules[0]
            assignment.schedules[0] = seq.with_stops(
                [s for s in seq.stops if s.rider.rider_id != 0]
            )

        monkeypatch.setattr(
            "repro.core.dispatch.solve", _corrupting_solve(drop_commitments)
        )
        with pytest.raises(DispatchError) as excinfo:
            dispatcher.dispatch_frame([])
        err = excinfo.value
        assert err.frame_index == 1
        assert err.vehicle_id == 0
        assert err.violations

    def test_broken_carried_state_raises_even_with_degrade(self, city):
        dispatcher = _long_trip_dispatcher(city)
        dispatcher.dispatch_frame(_interleaved_trips())
        # corrupt the fleet state itself: the vehicle now reaches its
        # committed drop-off long past the rider's deadline, so the
        # carried-in plan is invalid and no frame may commit over it
        dispatcher.fleet[0].ready_time += 1000.0
        with pytest.raises(DispatchError):
            dispatcher.dispatch_frame([])


class TestMultiFrameValidation:
    def test_every_frame_validates_independently(self, city):
        """Differential test: the independent repro.check oracle audits
        every frame of a multi-frame run, including frames whose vehicles
        start mid-route with onboard passengers."""
        fleet = [
            Vehicle(vehicle_id=0, location=0, capacity=2),
            Vehicle(vehicle_id=1, location=63, capacity=2),
        ]
        dispatcher = Dispatcher(city, fleet, method="eg", frame_length=8.0,
                                seed=11, max_retries=3, validate_frames=True)
        rid = 0
        for frame in range(5):
            start = frame * 8.0
            requests = frame_requests(
                city, 4, start, seed=20 + frame, id_base=rid
            )
            # stretch deadlines so plans straddle boundaries and riders
            # can be carried over
            requests = [
                make_rider(r.rider_id, source=r.source,
                           destination=r.destination,
                           pickup_deadline=r.pickup_deadline + 20.0,
                           dropoff_deadline=r.dropoff_deadline + 40.0)
                for r in requests
            ]
            rid += len(requests)
            report = dispatcher.dispatch_frame(requests)
            assert report.assignment.is_valid()
            for vid, fv in dispatcher.fleet.items():
                if fv.ready_time is not None:
                    # never plannable before the true arrival time
                    assert fv.ready_time > dispatcher.clock - 8.0
        assert dispatcher.total_requests == 20

    def test_opt_frames_carry_riders_and_validate(self, city):
        """The exact solver's plans go through the same incremental
        frame accounting as the heuristics', with carried commitments."""
        fleet = [
            Vehicle(vehicle_id=0, location=0, capacity=2),
            Vehicle(vehicle_id=1, location=63, capacity=2),
        ]
        dispatcher = Dispatcher(city, fleet, method="opt", frame_length=8.0,
                                seed=11, max_retries=2, validate_frames=True)
        rid = 0
        carried_in = served = 0
        for frame in range(4):
            start = frame * 8.0
            carried_in += sum(
                1 for fv in dispatcher.fleet.values()
                if fv.onboard or fv.committed_stops
            )
            requests = [
                make_rider(r.rider_id, source=r.source,
                           destination=r.destination,
                           pickup_deadline=r.pickup_deadline + 20.0,
                           dropoff_deadline=r.dropoff_deadline + 40.0)
                for r in frame_requests(
                    city, 3, start, seed=40 + frame, id_base=rid
                )
            ]
            rid += len(requests)
            batch = {r.rider_id for r in requests} | {
                r.rider_id for r in dispatcher.pending_requests
            }
            report = dispatcher.dispatch_frame(requests)
            assert report.solver_tier == "opt"
            assert report.num_served == len(
                report.assignment.served_rider_ids() & batch
            )
            served += report.num_served
        assert carried_in > 0
        assert served > 0


class TestSetupBuildsOneOracle:
    """Regression: the area cover behind candidate retrieval and the shard
    plan used to build a private DistanceOracle (a second APSP table, or
    a second CH + ALT at city scale) instead of the dispatcher's own."""

    @staticmethod
    def _count_builds(monkeypatch):
        from repro.roadnet import oracle as oracle_module

        builds = {"apsp": 0, "ch": 0}
        build_apsp = oracle_module.DistanceOracle._build_apsp
        contraction = oracle_module.ContractionHierarchy

        def counting_apsp(self):
            builds["apsp"] += 1
            build_apsp(self)

        def counting_ch(*args, **kwargs):
            builds["ch"] += 1
            return contraction(*args, **kwargs)

        monkeypatch.setattr(
            oracle_module.DistanceOracle, "_build_apsp", counting_apsp
        )
        monkeypatch.setattr(oracle_module, "ContractionHierarchy", counting_ch)
        return builds

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"candidate_mode": "spatial"},
            {"candidate_mode": "spatiotemporal"},
            {"candidate_mode": "full", "shard_workers": 1},
        ],
    )
    @pytest.mark.parametrize("tier", [0, 1])
    def test_dispatcher_builds_no_second_oracle(
        self, city, monkeypatch, kwargs, tier
    ):
        builds = self._count_builds(monkeypatch)
        oracle = DistanceOracle(city, tier=tier)
        oracle.cost(0, 63)  # the first query builds the tier
        built = dict(builds)
        fleet = [Vehicle(vehicle_id=0, location=0, capacity=2)]
        Dispatcher(city, fleet, oracle=oracle, **kwargs)
        assert builds == built
        # at tier 0 the table's batched pass sweeps one throwaway hierarchy
        assert built == ({"apsp": 1, "ch": 1} if tier == 0 else {"apsp": 0, "ch": 1})


def _parked_fleet(size, ready_time=500.0):
    """Vehicle 0 idle at node 0; the rest parked until ``ready_time``.

    A parked vehicle carries state (a ready time ahead of the clock) that
    no frame changes until the clock reaches it.
    """
    return [Vehicle(vehicle_id=0, location=0, capacity=2)] + [
        Vehicle(vehicle_id=vid, location=vid % 64, capacity=2,
                ready_time=ready_time)
        for vid in range(1, size)
    ]


class TestIncrementalFrameState:
    """A frame rebuilds and audits only the vehicles whose carried
    state changed (plus the schedules the solver wrote)."""

    def test_frame_work_scales_with_changed_vehicles(self, city, monkeypatch):
        from repro.core import dispatch as dispatch_module
        from repro.core.instance import URRInstance

        dispatcher = Dispatcher(city, _parked_fleet(200), method="eg",
                                frame_length=1.0, seed=3)
        dispatcher.dispatch_frame([])  # every vehicle starts changed
        changed = [7, 50, 123]
        for vid in changed:
            dispatcher.fleet[vid].ready_time = 600.0

        calls = {"initial_sequence": 0, "Vehicle": 0}
        built = []
        initial_sequence = URRInstance.initial_sequence
        vehicle_cls = dispatch_module.Vehicle

        def counting_initial_sequence(self, vehicle):
            calls["initial_sequence"] += 1
            built.append(vehicle.vehicle_id)
            return initial_sequence(self, vehicle)

        def counting_vehicle(*args, **kwargs):
            calls["Vehicle"] += 1
            return vehicle_cls(*args, **kwargs)

        monkeypatch.setattr(URRInstance, "initial_sequence",
                            counting_initial_sequence)
        monkeypatch.setattr(dispatch_module, "Vehicle", counting_vehicle)
        report = dispatcher.dispatch_frame([])
        touched = report.assignment.schedules.touched
        assert calls["initial_sequence"] <= len(touched) + len(changed)
        assert calls["Vehicle"] <= len(changed)
        assert report.perf.vehicles_rebuilt == len(changed)
        assert report.perf.vehicles_audited == len(changed)
        assert report.changed_vehicles == frozenset(changed)

        # one rider: the reachability test builds no parked vehicle's plan
        # (they cannot make the pickup and have no stops to detour from)
        built.clear()
        clock = dispatcher.clock
        report = dispatcher.dispatch_frame([
            make_rider(1000, source=9, destination=18,
                       pickup_deadline=clock + 20.0,
                       dropoff_deadline=clock + 60.0)
        ])
        assert report.num_served == 1
        assert report.changed_vehicles == frozenset({0})
        assert set(built) == {0}

    def test_restore_audits_every_carried_vehicle(
        self, city, tmp_path, monkeypatch
    ):
        from repro.core.durability import DurabilityConfig

        run = Dispatcher(
            city, _parked_fleet(20), method="eg", frame_length=6.0, seed=7,
            durability=DurabilityConfig(tmp_path, fsync=False),
        )
        run.dispatch_frame(_interleaved_trips())
        run.dispatch_frame([])
        run.close()

        restored = Dispatcher.restore(tmp_path, city)
        carried = {
            vid for vid, fv in restored.fleet.items()
            if fv.as_vehicle().has_carried_state
        }
        audited = set()
        commitment_errors = Dispatcher._commitment_errors

        def spy(self, vehicle, seq):
            audited.add(vehicle.vehicle_id)
            return commitment_errors(self, vehicle, seq)

        monkeypatch.setattr(Dispatcher, "_commitment_errors", spy)
        try:
            report = restored.dispatch_frame([])
            assert len(carried) == 20
            assert carried <= audited
            assert report.perf.vehicles_audited == len(audited)
            # once audited, a parked vehicle is not audited again
            audited.clear()
            report = restored.dispatch_frame([])
            assert not audited & set(range(1, 20))
            assert report.perf.vehicles_audited == len(audited)
            assert report.changed_vehicles == frozenset(audited)
        finally:
            restored.close()

    def test_carried_duplicate_written_between_frames_is_reported(self, city):
        far = [
            make_rider(rid, source=src, destination=dst,
                       pickup_deadline=1000.0, dropoff_deadline=2000.0)
            for rid, src, dst in ((0, 27, 63), (1, 36, 7))
        ]
        a, b = far
        fleet = [
            Vehicle(vehicle_id=0, location=0, capacity=2, committed_stops=(
                Stop.pickup(a), Stop.pickup(b), Stop.dropoff(a),
                Stop.dropoff(b),
            )),
            Vehicle(vehicle_id=1, location=36, capacity=2),
            Vehicle(vehicle_id=2, location=9, capacity=2),
        ]
        dispatcher = Dispatcher(city, fleet, method="eg", frame_length=1.0,
                                seed=1)
        dispatcher.dispatch_frame([])
        # vehicle 0 is heading for a's pickup; b's pickup is still pending
        assert dispatcher.fleet[0].pending_pickup_ids() == {1}
        dispatcher.fleet[1].committed_stops = (Stop.pickup(b), Stop.dropoff(b))
        with pytest.raises(DispatchError) as excinfo:
            dispatcher.dispatch_frame([])
        assert excinfo.value.vehicle_id is None
        assert any("rider 1 assigned to vehicles" in v
                   for v in excinfo.value.violations)


class TestGroupingPlan:
    """A GBS dispatcher given no plan builds one per oracle epoch."""

    @staticmethod
    def _run(monkeypatch):
        """Four frames of ``gbs+eg`` with a perturbation before the third;
        returns the number of plans built and each frame's plans."""
        from repro.core import grouping
        from repro.core.disruptions import TravelTimePerturbation

        builds = []
        build_areas = grouping.build_areas

        def counting(*args, **kwargs):
            builds.append(args[0])
            return build_areas(*args, **kwargs)

        monkeypatch.setattr(grouping, "build_areas", counting)
        # its own city: the perturbation edits the network in place
        city = grid_city(8, 8, seed=2, removal_fraction=0.0,
                         arterial_every=None)
        fleet = [Vehicle(0, 0, 2), Vehicle(1, 63, 2), Vehicle(2, 27, 3)]
        d = Dispatcher(city, fleet, method="gbs+eg", frame_length=10.0, seed=3)
        frames = []
        for f in range(4):
            if f == 2:
                d.inject([TravelTimePerturbation(factors=((9, 10, 3.0),))])
            report = d.dispatch_frame(
                frame_requests(city, 6, f * 10.0, seed=40 + f, id_base=10 * f)
            )
            schedules = report.assignment.schedules
            frames.append((
                report.num_served,
                {
                    vid: (
                        [(s.kind, s.rider.rider_id) for s in schedules[vid].stops],
                        list(schedules[vid].arrive),
                    )
                    for vid in sorted(d.fleet)
                },
            ))
        return len(builds), frames

    def test_plan_is_built_once_per_oracle_epoch(self, monkeypatch):
        builds, frames = self._run(monkeypatch)
        assert builds == 2  # the first frame, and after the perturbation
        assert sum(served for served, _ in frames) > 0
        # the reference builds a fresh plan inside every solve
        monkeypatch.setattr(Dispatcher, "_grouping_plan", lambda self: None)
        rebuilds, reference = self._run(monkeypatch)
        assert rebuilds == 4
        assert frames == reference
