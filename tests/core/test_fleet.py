"""The fleet (:mod:`repro.core.fleet`): its writers mark what they change.

Random sequences of replacements, withdrawals, rolls and
snapshot→restore round trips must keep the fleet's bookkeeping exact:
the committed-rider map equals one derived from scratch, a drain hands
back exactly the vehicles written since the last one, replacements keep
the insertion order, and a restored fleet equals the one it came from.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dispatch import Dispatcher
from repro.core.durability import DurabilityConfig
from repro.core.fleet import Fleet
from repro.core.instance import LazySchedules, URRInstance
from repro.core.requests import Rider
from repro.core.schedule import Stop
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle
from repro.social.generators import generate_geo_social
from repro.workload.instances import InstanceConfig, build_instance

NET = grid_city(4, 4, seed=3, removal_fraction=0.0, arterial_every=None)
ORACLE = DistanceOracle(NET)
NODES = sorted(NET.nodes())

STEPS = st.lists(
    st.tuples(
        st.sampled_from(("replace", "withdraw", "roll", "restore")),
        st.integers(0, 7),           # which vehicle
        st.sampled_from(NODES),      # a location / pickup
        st.sampled_from(NODES),      # a drop-off
        st.floats(0.0, 20.0),        # a duration
    ),
    max_size=30,
)


def _rider(rid, source, destination):
    return Rider(rider_id=rid, source=source, destination=destination,
                 pickup_deadline=1e6, dropoff_deadline=2e6)


def _derived(fleet):
    owners = {}
    for vid, vehicle in fleet.items():
        for rid in vehicle.committed_rider_ids():
            owners.setdefault(rid, []).append(vid)
    return owners


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(STEPS)
def test_random_writes_keep_the_fleet_exact(steps):
    fleet = Fleet(Vehicle(vid, NODES[vid], 2) for vid in range(8))
    order = list(range(8))
    written = set(order)
    clock, next_rid = 0.0, 0
    for kind, pick, a, b, span in steps + [("roll", 0, 0, 0, 1.0)]:
        vid = order[pick % len(order)]
        if kind == "replace":
            stops = ()
            if a != b:
                rider = _rider(next_rid, a, b)
                next_rid += 1
                stops = (Stop.pickup(rider), Stop.dropoff(rider))
            fleet[vid] = Vehicle(vid, fleet[vid].location, 2,
                                 ready_time=clock + span, committed_stops=stops)
            written.add(vid)
        elif kind == "withdraw" and len(order) > 1:
            del fleet[vid]
            order.remove(vid)
            written.add(vid)
        elif kind == "roll":
            instance = URRInstance(network=NET, riders=[],
                                   vehicles=list(fleet.values()),
                                   start_time=clock, oracle=ORACLE)
            schedules, baselines = LazySchedules(instance), LazySchedules(instance)
            if a != b:
                # the solver's write: one more rider on one vehicle
                rider = _rider(next_rid, a, b)
                next_rid += 1
                longer = dataclasses.replace(
                    fleet[vid], committed_stops=fleet[vid].committed_stops
                    + (Stop.pickup(rider), Stop.dropoff(rider)),
                )
                schedules[vid] = instance.initial_sequence(longer)
            before = dict(fleet)
            fleet.roll(schedules, baselines, clock + span, lambda rid: None)
            clock += span
            written |= {v for v in order if fleet[v] is not before[v]}
        elif kind == "restore":
            snapshot = json.loads(json.dumps(fleet.snapshot()))
            restored = Fleet.restore(snapshot)
            assert restored == fleet
            assert restored.snapshot() == fleet.snapshot()  # order and costs
            fleet, written = restored, set(order)
        assert list(fleet) == order
        assert fleet.drain(0) == sorted(written & set(order))
        written = set()
        owners = {rid: sorted(v) for rid, v in fleet.committed.owners.items()}
        assert owners == _derived(fleet)
    restored = Fleet.restore(json.loads(json.dumps(fleet.snapshot())))
    assert restored == fleet and restored.snapshot() == fleet.snapshot()


def test_only_the_marking_writers_write():
    fleet = Fleet([Vehicle(0, 0, 2), Vehicle(1, 1, 2)])
    with pytest.raises(KeyError):
        fleet[2] = Vehicle(2, 2, 2)  # a replace, not an insert
    for write in (lambda: fleet.update({}), lambda: fleet.pop(0),
                  lambda: fleet.setdefault(0), fleet.clear, fleet.popitem):
        with pytest.raises(TypeError):
            write()
    assert list(fleet) == [0, 1]


def test_vehicle_refuses_what_the_fleet_cannot_hold():
    """More riders onboard than seats, and an onboard rider without a
    committed drop-off, raise in ``Vehicle`` itself, so no fleet writer
    (construction, replacement, roll, restore) can store either state."""
    r0, r1 = (Rider(k, k, k + 5, 10.0, 20.0) for k in range(2))
    with pytest.raises(ValueError, match="exceed capacity"):
        Vehicle(0, 0, 1, onboard=(r0, r1))
    with pytest.raises(ValueError, match="no committed drop-off"):
        Vehicle(0, 0, 2, onboard=(r0,))
    fleet = Fleet([Vehicle(0, 0, 1, onboard=(r0,),
                           committed_stops=(Stop.dropoff(r0),))])
    fleet.drain(0)
    with pytest.raises(ValueError, match="exceed capacity"):
        fleet[0] = dataclasses.replace(fleet[0], onboard=(r0, r1))
    with pytest.raises(ValueError, match="no committed drop-off"):
        fleet[0] = dataclasses.replace(fleet[0], committed_stops=())
    assert fleet.drain(0) == []


def test_restored_fleet_equals_the_live_one(tmp_path):
    """Vehicles built with a social network come back from a checkpoint
    equal to the live ones (a driver id the checkpoint did not hold once
    made them differ)."""
    network = grid_city(6, 6, seed=4, removal_fraction=0.0, arterial_every=None)
    geo = generate_geo_social(network, num_users=40, seed=2)
    instance = build_instance(
        network, InstanceConfig(num_riders=8, num_vehicles=4, seed=5),
        geo_social=geo,
    )
    live = Dispatcher(network, instance.vehicles, frame_length=10.0,
                      durability=DurabilityConfig(tmp_path, fsync=False))
    live.dispatch_frame(instance.riders)
    live.close()
    restored = Dispatcher.restore(tmp_path, network)
    try:
        for vid in live.fleet:
            assert restored.fleet[vid] == live.fleet[vid]
        assert restored.fleet == live.fleet
    finally:
        restored.close()
