"""Dispatcher runs on the mu_v table vs the eager builders, in lockstep.

One dispatcher builds its frames on the array table with pinned rows
layered by reference; its twin is switched to the eager reference
construction (:func:`repro.check.utilities.use_eager_rows`).  Frame by
frame, the two must hand the solver equal matrices, keep equal pinned
rows (in the same order) and commit the same frames — across carried
riders, onboard riders, breakdowns that remove vehicles named by pinned
rows, and serial sharding.
"""

import random

import pytest

from repro.check.utilities import use_eager_rows
from repro.core.dispatch import Dispatcher
from repro.core.disruptions import RiderCancellation, VehicleBreakdown
from repro.core.durability import frame_summary
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from tests.conftest import make_rider

NODES = 64  # 8x8 grid
FRAMES = 8


@pytest.fixture(scope="module")
def city():
    return grid_city(8, 8, seed=2, removal_fraction=0.0, arterial_every=None)


def make_dispatcher(city, **kwargs):
    fleet = [
        Vehicle(vehicle_id=j, location=(9 * j) % NODES, capacity=2)
        for j in range(5)
    ]
    return Dispatcher(
        city, fleet, method="eg", frame_length=6.0, seed=3, max_retries=3,
        **kwargs,
    )


def frame_requests(frame):
    rng = random.Random(500 + frame)
    start = frame * 6.0
    riders = []
    for i in range(7):
        src, dst = rng.randrange(NODES), rng.randrange(NODES)
        if dst == src:
            dst = (dst + 1) % NODES
        riders.append(
            make_rider(frame * 100 + i, source=src, destination=dst,
                       pickup_deadline=start + rng.uniform(4.0, 20.0),
                       dropoff_deadline=start + rng.uniform(30.0, 60.0))
        )
    return riders


def disruptions(dispatcher, frame):
    """Seeded events between frames: a breakdown every third frame (the
    removed vehicle stays named in every live pinned row) and a
    cancellation of the lowest pending rider every other frame."""
    events = []
    if frame % 3 == 1 and len(dispatcher.fleet) > 2:
        events.append(VehicleBreakdown(vehicle_id=min(dispatcher.fleet)))
    pending = sorted(r.rider_id for r in dispatcher.pending_requests)
    if frame % 2 == 0 and pending:
        events.append(RiderCancellation(rider_id=pending[0]))
    return events


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"shard_workers": 1, "shard_count": 2}],
    ids=["global", "sharded"],
)
def test_table_matches_eager_builder_frame_by_frame(city, kwargs):
    with make_dispatcher(city, **kwargs) as table_run, \
            make_dispatcher(city, **kwargs) as eager_run:
        use_eager_rows(eager_run)
        saw_carried_pins = saw_removed_vehicle = False
        for frame in range(FRAMES):
            got = table_run.dispatch_frame(frame_requests(frame))
            want = eager_run.dispatch_frame(frame_requests(frame))
            table = got.assignment.instance.vehicle_utilities
            eager = want.assignment.instance.vehicle_utilities
            assert table == eager
            assert list(table.items()) == list(eager.items())
            pins, eager_pins = (
                table_run._pinned_utilities, eager_run._pinned_utilities
            )
            assert list(pins) == list(eager_pins)
            for rid, row in pins.items():
                assert list(row.items()) == list(eager_pins[rid].items())
            assert frame_summary(got) == frame_summary(want)
            assert table_run.ledger == eager_run.ledger
            saw_carried_pins |= bool(set(pins) & {
                e.rider.rider_id for e in table_run._carryover
            })
            saw_removed_vehicle |= any(
                set(row) - set(table_run.fleet) for row in pins.values()
            )
            events = disruptions(table_run, frame)
            outcomes = table_run.inject(events)
            assert [o.status for o in outcomes] == [
                o.status for o in eager_run.inject(events)
            ]
        # the run exercised the cases the overlay exists for
        assert saw_carried_pins
        assert saw_removed_vehicle
