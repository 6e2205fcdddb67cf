"""Unit tests for repro.core.disruptions (mid-horizon fault injection)."""

import dataclasses
import math

import pytest

from repro.core.dispatch import Dispatcher, RiderStatus
from repro.core.disruptions import (
    DisruptionKind,
    OutcomeStatus,
    RiderCancellation,
    RiderNoShow,
    RoadClosure,
    TravelTimePerturbation,
    VehicleBreakdown,
)
from repro.core.schedule import StopKind
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from tests.conftest import make_rider


# function-scoped on purpose: disruptions mutate the road network in
# place (perturbations scale edges, closures remove them), so sharing
# one network across tests would leak state between them
@pytest.fixture
def city():
    return grid_city(8, 8, seed=2, removal_fraction=0.0, arterial_every=None)


def _dispatcher(city, num_vehicles=2, frame_length=6.0, **kwargs):
    fleet = [
        Vehicle(vehicle_id=j, location=[0, 63, 7, 56][j], capacity=2)
        for j in range(num_vehicles)
    ]
    return Dispatcher(
        city, fleet, method="eg", frame_length=frame_length, seed=7, **kwargs
    )


def _interleaved_trips():
    """EG plan P0@9 P1@18 D1@45 D0@63 on vehicle 0: at the first 6-minute
    boundary rider 0 is onboard and rider 0's drop-off still committed."""
    return [
        make_rider(0, source=9, destination=63,
                   pickup_deadline=30.0, dropoff_deadline=90.0),
        make_rider(1, source=18, destination=45,
                   pickup_deadline=30.0, dropoff_deadline=90.0),
    ]


class TestBreakdown:
    def test_onboard_rider_stranded_and_requeued(self, city):
        d = _dispatcher(city)
        d.dispatch_frame(_interleaved_trips())
        fv = d.fleet[0]
        anchor = fv.location
        onboard = {r.rider_id for r in fv.onboard}
        assert onboard  # rider 0 rides across the boundary
        (outcome,) = d.inject([VehicleBreakdown(vehicle_id=0)])
        assert outcome.applied
        assert outcome.event.kind is DisruptionKind.VEHICLE_BREAKDOWN
        assert set(outcome.stranded) == onboard
        assert 0 not in d.fleet
        # the stranded rider waits at the strand point with fresh deadlines
        entry = next(
            e for e in d.riders.queue() if e.rider.rider_id in onboard
        )
        assert entry.rider.source == anchor
        assert entry.attempts == 0  # fresh retry budget
        assert entry.rider.pickup_deadline > d.clock
        assert d.ledger[entry.rider.rider_id] is RiderStatus.PENDING

    def test_stranded_rider_recovered_by_other_vehicle(self, city):
        """End-to-end: the stranded rider is re-dispatched and delivered."""
        d = _dispatcher(city, max_retries=5)
        d.dispatch_frame(_interleaved_trips())
        stranded = {r.rider_id for r in d.fleet[0].onboard}
        d.inject([VehicleBreakdown(vehicle_id=0)])
        for _ in range(20):
            d.dispatch_frame([])
            if all(d.ledger[rid] is RiderStatus.DELIVERED for rid in stranded):
                break
        assert all(d.ledger[rid] is RiderStatus.DELIVERED for rid in stranded)

    def test_service_rate_counts_a_reserved_stranded_rider_once(self, city):
        """A rider served, stranded by a breakdown and served again is
        one served request (regression: the rate summed per-frame
        ``num_served`` and went above 1)."""
        d = _dispatcher(city, max_retries=5)
        d.dispatch_frame(_interleaved_trips())
        stranded = {r.rider_id for r in d.fleet[0].onboard}
        assert stranded
        d.inject([VehicleBreakdown(vehicle_id=0)])
        for _ in range(20):
            d.dispatch_frame([])
            if all(d.ledger[rid] is RiderStatus.DELIVERED for rid in stranded):
                break
        assert all(d.ledger[rid] is RiderStatus.DELIVERED for rid in stranded)
        assert d.total_requests == 2
        assert d.total_served > d.total_requests  # commits, not riders
        assert d.service_rate == 1.0

    def test_service_rate_drops_a_rider_cancelled_after_commit(self, city):
        d = _dispatcher(city, frame_length=1.0)
        d.dispatch_frame(_interleaved_trips())
        assert d.service_rate == 1.0
        rid = min(d.fleet[0].pending_pickup_ids())  # promised, not picked up
        (outcome,) = d.inject([RiderCancellation(rider_id=rid)])
        assert outcome.applied
        assert d.ledger[rid] is RiderStatus.CANCELLED
        assert d.service_rate == 0.5  # the other rider only

    def test_pending_pickup_released_with_original_request(self, city):
        # very short frames: the vehicle anchors at the first pickup and
        # the second rider's pickup is still pending in the chain
        d = _dispatcher(city, frame_length=1.0)
        riders = _interleaved_trips()
        d.dispatch_frame(riders)
        fv = d.fleet[0]
        pending = fv.pending_pickup_ids()
        assert pending  # promised, not yet picked up
        (outcome,) = d.inject([VehicleBreakdown(vehicle_id=0)])
        assert set(outcome.released) == pending
        # released riders keep their original, un-rewritten request
        by_id = {r.rider_id: r for r in riders}
        for entry in d.riders.queue():
            if entry.rider.rider_id in pending:
                assert entry.rider == by_id[entry.rider.rider_id]
                assert d.ledger[entry.rider.rider_id] is RiderStatus.PENDING

    def test_rider_stranded_at_destination_is_delivered(self, city):
        d = _dispatcher(city)
        d.dispatch_frame(_interleaved_trips())
        fv = d.fleet[0]
        # teleport the anchor to the onboard rider's destination
        rider = fv.onboard[0]
        d.fleet[0] = dataclasses.replace(fv, location=rider.destination)
        (outcome,) = d.inject([VehicleBreakdown(vehicle_id=0)])
        assert rider.rider_id in outcome.delivered
        assert d.ledger[rider.rider_id] is RiderStatus.DELIVERED

    def test_last_vehicle_never_broken(self, city):
        d = _dispatcher(city, num_vehicles=1)
        (outcome,) = d.inject([VehicleBreakdown(vehicle_id=0)])
        assert outcome.status is OutcomeStatus.SKIPPED
        assert 0 in d.fleet

    def test_unknown_vehicle_skipped(self, city):
        d = _dispatcher(city)
        (outcome,) = d.inject([VehicleBreakdown(vehicle_id=999)])
        assert outcome.status is OutcomeStatus.SKIPPED
        assert len(d.fleet) == 2


def _with_pickup_deadline(vehicle, rider_id, deadline):
    """``vehicle`` with one committed rider's pickup deadline rewritten."""
    stops = tuple(
        dataclasses.replace(
            s, rider=dataclasses.replace(s.rider, pickup_deadline=deadline)
        )
        if s.rider.rider_id == rider_id else s
        for s in vehicle.committed_stops
    )
    return dataclasses.replace(vehicle, committed_stops=stops)


class TestCommittedToExpired:
    """The three repairs that move a rider from COMMITTED to EXPIRED."""

    def test_breakdown_expires_an_onboard_rider_cut_off_from_its_destination(
        self, city
    ):
        d = _dispatcher(city)
        d.dispatch_frame(_interleaved_trips())
        assert 0 in {r.rider_id for r in d.fleet[0].onboard}
        assert d.ledger[0] is RiderStatus.COMMITTED
        for u in list(city.adjacency[63]):  # isolate rider 0's destination
            city.remove_edge(u, 63)
            city.remove_edge(63, u)
        d.oracle.invalidate()
        (outcome,) = d.inject([VehicleBreakdown(vehicle_id=0)])
        assert 0 in outcome.expired
        assert d.ledger[0] is RiderStatus.EXPIRED
        assert 0 not in {r.rider_id for r in d.pending_requests}

    def test_breakdown_expires_a_promised_pickup_past_its_deadline(self, city):
        d = _dispatcher(city, frame_length=1.0)
        d.dispatch_frame(_interleaved_trips())
        (rid,) = d.fleet[0].pending_pickup_ids()
        assert d.ledger[rid] is RiderStatus.COMMITTED
        d.fleet[0] = _with_pickup_deadline(d.fleet[0], rid, d.clock)
        (outcome,) = d.inject([VehicleBreakdown(vehicle_id=0)])
        assert outcome.expired == (rid,)
        assert d.ledger[rid] is RiderStatus.EXPIRED

    def test_reaudit_expires_a_released_pickup_past_its_deadline(self, city):
        d = _dispatcher(city, frame_length=1.0)
        d.dispatch_frame(_interleaved_trips())
        (rid,) = d.fleet[0].pending_pickup_ids()
        d.fleet[0] = _with_pickup_deadline(d.fleet[0], rid, d.clock)
        u, v = next((u, v) for u, nbrs in city.adjacency.items() for v in nbrs)
        (outcome,) = d.inject(
            [TravelTimePerturbation(factors=((u, v, 1.0),))]
        )
        assert outcome.expired == (rid,)
        assert d.ledger[rid] is RiderStatus.EXPIRED
        assert rid not in d.fleet[0].committed_rider_ids()


class TestCancellation:
    def test_queue_rider_cancelled(self, city):
        d = _dispatcher(city)
        d.riders.admit([make_rider(5, source=1, destination=2,
                                   pickup_deadline=100.0,
                                   dropoff_deadline=200.0)], frame=0)
        (outcome,) = d.inject([RiderCancellation(rider_id=5)])
        assert outcome.applied
        assert outcome.cancelled == (5,)
        assert d.pending_requests == []
        assert d.ledger[5] is RiderStatus.CANCELLED

    def test_committed_rider_excised_from_chain(self, city):
        d = _dispatcher(city, frame_length=1.0)
        d.dispatch_frame(_interleaved_trips())
        fv = d.fleet[0]
        rid = next(iter(fv.pending_pickup_ids()))
        (outcome,) = d.inject([RiderNoShow(rider_id=rid)])
        assert outcome.applied
        assert outcome.event.kind is DisruptionKind.RIDER_NO_SHOW
        # the repair replaced the vehicle; the old object is unchanged
        assert any(s.rider.rider_id == rid for s in fv.committed_stops)
        assert all(
            s.rider.rider_id != rid for s in d.fleet[0].committed_stops
        )
        assert d.ledger[rid] is RiderStatus.CANCELLED
        # the repaired chain still dispatches cleanly
        report = d.dispatch_frame([])
        assert report.assignment.is_valid()

    def test_onboard_rider_cannot_cancel(self, city):
        d = _dispatcher(city)
        d.dispatch_frame(_interleaved_trips())
        onboard = d.fleet[0].onboard[0].rider_id
        (outcome,) = d.inject([RiderCancellation(rider_id=onboard)])
        assert outcome.status is OutcomeStatus.SKIPPED
        assert d.ledger[onboard] is RiderStatus.COMMITTED

    def test_unknown_rider_skipped(self, city):
        d = _dispatcher(city)
        (outcome,) = d.inject([RiderCancellation(rider_id=424242)])
        assert outcome.status is OutcomeStatus.SKIPPED


class TestPerturbation:
    def test_costs_scaled_and_oracle_invalidated(self, city):
        d = _dispatcher(city)
        before_cost = city.adjacency[0][1]
        before_epoch = d.oracle.epoch
        (outcome,) = d.inject(
            [TravelTimePerturbation(factors=((0, 1, 2.0),))]
        )
        assert outcome.applied
        assert city.adjacency[0][1] == pytest.approx(2.0 * before_cost)
        assert city.reverse_adjacency[1][0] == pytest.approx(
            2.0 * before_cost
        )
        assert d.oracle.epoch > before_epoch
        assert d.oracle.cost(0, 1) <= 2.0 * before_cost + 1e-9

    def test_invalid_factor_rejected_atomically(self, city):
        d = _dispatcher(city)
        before = city.adjacency[0][1]
        (outcome,) = d.inject(
            [TravelTimePerturbation(
                factors=((0, 1, 2.0), (1, 2, float("inf")))
            )]
        )
        assert outcome.status is OutcomeStatus.SKIPPED
        assert city.adjacency[0][1] == before  # nothing applied

    def test_onboard_deadline_extended_not_dropped(self, city):
        """A congestion spike that makes an onboard rider's promise late
        stretches their drop-off deadline (arriving late beats never)."""
        d = _dispatcher(city)
        d.dispatch_frame(_interleaved_trips())
        fv = d.fleet[0]
        rider = fv.onboard[0]
        # find an edge on the remaining chain and make it brutally slow
        factors = tuple(
            (u, v, 50.0) for u, nbrs in city.adjacency.items()
            for v in nbrs
        )
        (outcome,) = d.inject([TravelTimePerturbation(factors=factors)])
        assert outcome.applied
        assert rider.rider_id in outcome.extended
        assert d.ledger[rider.rider_id] is RiderStatus.COMMITTED
        new_rider = next(
            r for r in d.fleet[0].onboard if r.rider_id == rider.rider_id
        )
        assert new_rider.dropoff_deadline > rider.dropoff_deadline
        # onboard tuple and committed stops agree on the rewritten rider
        for s in d.fleet[0].committed_stops:
            if s.rider.rider_id == rider.rider_id:
                assert s.rider.dropoff_deadline == pytest.approx(
                    new_rider.dropoff_deadline
                )
        # the repaired state dispatches cleanly
        report = d.dispatch_frame([])
        assert report.assignment.is_valid()


class TestClosure:
    def test_edges_removed_both_directions(self, city):
        d = _dispatcher(city)
        assert city.has_edge(0, 1)
        (outcome,) = d.inject([RoadClosure(edges=((0, 1),))])
        assert outcome.applied
        assert not city.has_edge(0, 1)
        assert not city.has_edge(1, 0)

    def test_closure_severing_commitment_reverted(self, city):
        d = _dispatcher(city, frame_length=1.0)
        d.dispatch_frame(_interleaved_trips())
        assert d.fleet[0].committed_stops
        # closing every edge would strand the committed stops: the whole
        # event must be reverted, atomically
        edges = tuple((u, v) for u, v, _c in city.edges())
        (outcome,) = d.inject([RoadClosure(edges=edges)])
        assert outcome.status is OutcomeStatus.SKIPPED
        assert "reverted" in outcome.detail
        for u, v, cost in city.edges():
            assert math.isfinite(cost)
        report = d.dispatch_frame([])
        assert report.assignment.is_valid()

    def test_unknown_edges_skipped(self, city):
        d = _dispatcher(city)
        (outcome,) = d.inject([RoadClosure(edges=((900, 901),))])
        assert outcome.status is OutcomeStatus.SKIPPED


class TestLedgerConservation:
    def test_every_rider_accounted_for_across_disruptions(self, city):
        d = _dispatcher(city, max_retries=4)
        riders = _interleaved_trips() + [
            make_rider(2, source=0, destination=1,
                       pickup_deadline=100.0, dropoff_deadline=300.0),
        ]
        d.dispatch_frame(riders)
        d.inject([
            VehicleBreakdown(vehicle_id=0),
            RiderCancellation(rider_id=2),
            TravelTimePerturbation(factors=((0, 1, 1.5),)),
        ])
        d.dispatch_frame([])
        counts = d.ledger_counts()
        assert sum(counts.values()) == len(riders)
        assert set(d.ledger) == {r.rider_id for r in riders}
        # PENDING mirrors the queue, COMMITTED mirrors the fleet plans
        assert d.riders_with_status(RiderStatus.PENDING) == {
            r.rider_id for r in d.pending_requests
        }
        fleet_ids = set()
        for fv in d.fleet.values():
            fleet_ids.update(r.rider_id for r in fv.onboard)
            fleet_ids.update(s.rider.rider_id for s in fv.committed_stops)
        assert d.riders_with_status(RiderStatus.COMMITTED) == fleet_ids

    def test_unknown_event_type_raises(self, city):
        d = _dispatcher(city)
        with pytest.raises(TypeError, match="unknown disruption"):
            d.inject([object()])

    def test_inject_returns_every_outcome(self, city):
        d = _dispatcher(city)
        outcomes = d.inject([RiderCancellation(rider_id=1)])
        outcomes += d.inject([VehicleBreakdown(vehicle_id=999)])
        assert len(outcomes) == 2
        assert all(o.status is OutcomeStatus.SKIPPED for o in outcomes)
