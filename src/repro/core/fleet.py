"""The fleet: all vehicle state a dispatcher keeps across frames.

:class:`Fleet` (``Dispatcher.fleet``) is the one writer of vehicle
state.  Every write marks the vehicle changed; :meth:`Fleet.drain`
re-registers exactly the changed vehicles in the committed-rider map
(:class:`CommittedRiders`) and :meth:`Fleet.audit` checks only them and
the plans the solver wrote, so a frame's bookkeeping follows what
changed rather than the size of the fleet.
"""

from __future__ import annotations

from dataclasses import replace
from typing import AbstractSet, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.durability import CheckpointError
from repro.core.instance import LazySchedules
from repro.core.schedule import Stop, StopKind, TransferSequence
from repro.core.vehicles import Vehicle
from repro.workload.serialize import rider_from_dict, rider_to_dict

_EPS = 1e-9


class CommittedRiders:
    """Fleet-wide ``rider id -> vehicles committed to it`` map.

    Kept current one vehicle at a time (:meth:`assign`), so reading it
    costs nothing per frame.  ``shared`` holds the riders more than one
    vehicle is committed to: carried-state corruption the frame audit
    reports as a cross-vehicle duplicate.
    """

    __slots__ = ("owners", "shared", "_ids")

    def __init__(self) -> None:
        self.owners: Dict[int, List[int]] = {}
        self.shared: Set[int] = set()
        self._ids: Dict[int, AbstractSet[int]] = {}

    def assign(self, vehicle_id: int, rider_ids: AbstractSet[int]) -> None:
        """Replace the riders registered for one vehicle."""
        for rid in self._ids.pop(vehicle_id, ()):
            owners = self.owners[rid]
            owners.remove(vehicle_id)
            if not owners:
                del self.owners[rid]
            elif len(owners) == 1:
                self.shared.discard(rid)
        if rider_ids:
            self._ids[vehicle_id] = rider_ids
        for rid in rider_ids:
            owners = self.owners.setdefault(rid, [])
            owners.append(vehicle_id)
            if len(owners) > 1:
                self.shared.add(rid)

    def duplicates(
        self, schedules: LazySchedules, touched: AbstractSet[int]
    ) -> List[str]:
        """Riders that two vehicles' schedules both serve.

        Batch riders can only sit in written schedules; a carried rider
        sits in every unwritten schedule of a vehicle committed to it,
        which this map answers without building those schedules.
        """
        owners = self.owners
        # (rider, vehicle) assignments: carried ones, then written ones
        pairs = [(rid, vid) for rid in sorted(self.shared)
                 for vid in owners[rid] if vid not in touched]
        for vid in sorted(touched):
            for rider in schedules[vid].assigned_riders():
                rid = rider.rider_id
                pairs += [(rid, o) for o in owners.get(rid, ()) if o not in touched]
                pairs.append((rid, vid))
        seen: Dict[int, int] = {}
        return [
            f"rider {rid} assigned to vehicles {first} and {vid}"
            for rid, vid in pairs
            if (first := seen.setdefault(rid, vid)) != vid
        ]


class Fleet(dict):
    """Every vehicle by id, with its travel cost and audit marks.

    A ``dict`` of frozen vehicles in the order they were handed in (the
    caller's objects; ids unique, at least one), so every read is the
    dict's own.  Item assignment replaces a vehicle in place, ``del``
    withdraws one, :meth:`roll` walks every plan to the next clock and
    :meth:`restore` rebuilds a checkpointed fleet; every write marks the
    vehicle changed, and the dict's other writers raise.  A vehicle's
    cost is the travel cost charged to it one frame's increment at a
    time (a committed leg is charged once, in the frame that planned it).
    """

    def __init__(self, vehicles: Iterable[Vehicle]) -> None:
        vehicles = list(vehicles)
        super().__init__((v.vehicle_id, v) for v in vehicles)
        if len(self) != len(vehicles):
            raise ValueError("fleet vehicle ids must be unique")
        if not vehicles:
            raise ValueError("fleet must contain at least one vehicle")
        self._cost: Dict[int, float] = dict.fromkeys(self, 0.0)
        self.committed = CommittedRiders()
        # vehicles written (or withdrawn) since the last drain, and the
        # drained ones (all after a new oracle epoch) not audited since
        self._changed: Set[int] = set(self)
        self._unaudited: Set[int] = set()
        self._epoch: Optional[int] = None

    def _unmarked(self, *args, **kwargs):
        raise TypeError("a fleet is written only by item assignment and del")

    update = setdefault = pop = popitem = clear = __ior__ = _unmarked

    def locations(self) -> Dict[int, int]:
        return {vid: v.location for vid, v in self.items()}

    def utilisation(self, frames: int) -> Dict[int, float]:
        """Mean travel cost per frame per vehicle (busy-time proxy)."""
        return {vid: self._cost[vid] / frames for vid in self}

    # -- writes -----------------------------------------------------------
    def __setitem__(self, vid: int, vehicle: Vehicle) -> None:
        """Replace a vehicle; it keeps its position and is marked changed."""
        if vid not in self:
            raise KeyError(f"vehicle {vid} is not in the fleet")
        super().__setitem__(vid, vehicle)
        self._changed.add(vid)

    def __delitem__(self, vid: int) -> None:
        """Withdraw a vehicle (a breakdown), with its cost."""
        super().__delitem__(vid)
        del self._cost[vid]
        self._changed.add(vid)

    def release(self, vid: int, rid: int) -> None:
        """Drop a rider's stops from a vehicle's committed plan."""
        vehicle = self[vid]
        self[vid] = replace(vehicle, committed_stops=tuple(
            s for s in vehicle.committed_stops if s.rider.rider_id != rid
        ))

    def roll(self, schedules: LazySchedules, baselines: LazySchedules,
             next_clock: float, deliver: Callable[[int], None]) -> None:
        """Walk every vehicle's plan to ``next_clock``.

        A vehicle the solver wrote is charged its plan's cost over the
        carried-in baseline; any other plan is the pristine one, whose
        cost delta is exactly zero.  Every drop-off executed or anchored
        is handed to ``deliver``.
        """
        touched = schedules.touched
        for vid, vehicle in self.items():
            if vid in touched:
                seq = schedules[vid]
                self._cost[vid] += seq.total_cost - baselines[vid].total_cost
            elif vehicle.committed_stops or vehicle.onboard:
                # it changed when last rolled, so the audit already built it
                seq = schedules.peek(vid)
                if seq is None:
                    seq = baselines[vid]
            elif (
                vehicle.ready_time is not None
                and vehicle.ready_time <= next_clock + _EPS
            ):
                # idle: nothing to walk; retire a stale finished-leg
                # timestamp like _rolled would (once per finished plan)
                self[vid] = replace(vehicle, ready_time=None)
                continue
            else:
                continue
            self[vid] = _rolled(vehicle, seq, next_clock, deliver)

    def drain(self, epoch: int) -> List[int]:
        """The vehicles written since the last drain that are still in
        the fleet, in id order: each is re-registered in
        :attr:`committed` (a withdrawn one is forgotten there) and
        marked unaudited.  A new oracle ``epoch`` marks every vehicle
        unaudited."""
        drained = []
        for vid in sorted(self._changed):
            vehicle = self.get(vid)
            if vehicle is None:
                self.committed.assign(vid, frozenset())
                self._unaudited.discard(vid)
            else:
                self.committed.assign(vid, vehicle.committed_rider_ids())
                self._unaudited.add(vid)
                drained.append(vid)
        self._changed.clear()
        if epoch != self._epoch:
            self._epoch = epoch
            self._unaudited.update(self)
        return drained

    # -- the frame audit --------------------------------------------------
    def audit(
        self, vehicles: Iterable[Vehicle], schedules: LazySchedules,
        clock: float, audited: Set[int],
    ) -> Tuple[Optional[int], List[str]]:
        """Audit a candidate plan over ``vehicles`` (the frame's): the
        first vehicle whose plan breaks a rule (``None``: none) with its
        violations, then every cross-vehicle one.  Adds the vehicles it
        checks to ``audited``.

        Per vehicle: schedule validity (deadlines, order, capacity) and
        commitment integrity (the carried-in onboard riders and committed
        stops survive, in order).  Only the plans the solver wrote and
        the vehicles unaudited since their last change are checked; any
        other plan is the pristine residual plan of a vehicle that passed
        an earlier audit in the same metric, so it re-derives the same
        arrival times and passes again.  A passing plan leaves every
        vehicle audited.
        """
        offending: Dict[int, List[str]] = {}
        touched = schedules.touched
        audit = touched | self._unaudited
        for vehicle in vehicles:
            vid = vehicle.vehicle_id
            if vid not in audit:
                continue
            seq = schedules.peek(vid)
            if seq is None:
                if not vehicle.has_carried_state:
                    # nothing carried: the pristine empty sequence
                    continue
                seq = schedules[vid]
            audited.add(vid)
            errors = seq.validity_errors()
            errors.extend(_commitment_errors(vehicle, seq, clock))
            if errors:
                offending[vid] = errors
        duplicates = self.committed.duplicates(schedules, touched)
        if not offending and not duplicates:
            self._unaudited.clear()
        vid, violations = next(iter(offending.items()), (None, []))
        return vid, violations + duplicates

    # -- checkpoints ------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``fleet`` checkpoint block, in fleet order (it drives the
        instance's vehicle order)."""
        return {"fleet": [
            {"id": vid, "location": v.location, "capacity": v.capacity,
             "ready_time": v.ready_time,
             "onboard": [rider_to_dict(r) for r in v.onboard],
             "committed_stops": [stop_to_dict(s) for s in v.committed_stops],
             "total_cost": self._cost[vid]}
            for vid, v in self.items()
        ]}

    @classmethod
    def restore(cls, snapshot: dict) -> "Fleet":
        """The fleet :meth:`snapshot` was taken of, every vehicle changed;
        :class:`CheckpointError` for a row no :class:`Vehicle` can hold."""
        vehicles = []
        for payload in snapshot["fleet"]:
            try:
                vehicles.append(Vehicle(
                    vehicle_id=payload["id"], location=payload["location"],
                    capacity=payload["capacity"], ready_time=payload["ready_time"],
                    onboard=[rider_from_dict(r) for r in payload["onboard"]],
                    committed_stops=[
                        stop_from_dict(s) for s in payload["committed_stops"]],
                ))
            except ValueError as exc:
                raise CheckpointError(
                    f"snapshot vehicle {payload['id']}: {exc}"
                ) from exc
        fleet = cls(vehicles)
        fleet._cost.update((p["id"], p["total_cost"]) for p in snapshot["fleet"])
        return fleet


def stop_to_dict(stop: Stop) -> dict:
    """A JSON-ready dict for one committed stop."""
    return {"location": stop.location, "kind": stop.kind.value,
            "rider": rider_to_dict(stop.rider)}


def stop_from_dict(payload: dict) -> Stop:
    """Inverse of :func:`stop_to_dict`."""
    return Stop(location=payload["location"], kind=StopKind(payload["kind"]),
                rider=rider_from_dict(payload["rider"]))


def _commitment_errors(
    vehicle: Vehicle, seq: TransferSequence, clock: float
) -> List[str]:
    """Violations of the carried-over commitments in a new schedule."""
    errors: List[str] = []
    onboard_ids = {r.rider_id for r in vehicle.onboard}
    if seq.initial_onboard != onboard_ids:
        errors.append(
            f"onboard riders changed: expected {sorted(onboard_ids)}, "
            f"schedule has {sorted(seq.initial_onboard)}"
        )
    start = max(
        clock, vehicle.ready_time if vehicle.ready_time is not None else clock
    )
    if abs(seq.start_time - start) > _EPS:
        errors.append(
            f"schedule starts at {seq.start_time:g} but the vehicle is "
            f"only plannable from {start:g}"
        )
    # committed stops must appear as an ordered subsequence
    pos = 0
    chain = vehicle.committed_stops
    for stop in seq.stops:
        if pos < len(chain) and stop == chain[pos]:
            pos += 1
    if pos < len(chain):
        errors.append(
            f"committed stop {chain[pos]!r} dropped or reordered "
            f"({pos}/{len(chain)} honoured)"
        )
    return errors


def _rolled(
    vehicle: Vehicle,
    seq: TransferSequence,
    next_clock: float,
    deliver: Callable[[int], None],
) -> Vehicle:
    """The vehicle with its committed plan walked to ``next_clock``.

    Stops with arrival at or before ``next_clock`` are executed.  If any
    remain, the vehicle is mid-leg towards the first of them: it is
    anchored at that stop's location with ``ready_time`` equal to its
    exact arrival there (the stop's pickup/drop-off takes effect at that
    moment), and the rest of the plan becomes the residual
    ``committed_stops``.  Re-deriving the schedule from the new anchor
    reproduces the original arrival times exactly, so commitments stay
    feasible and the vehicle is never planned from a location before it
    arrives there.  A drop-off executed or anchored is a delivery.
    """
    onboard = {r.rider_id: r for r in vehicle.onboard}
    stops, arrive = seq.stops, seq.arrive
    n = len(stops)
    k = 0
    while k < n and arrive[k] <= next_clock + _EPS:
        k += 1
    for stop in stops[:k + 1]:
        rid = stop.rider.rider_id
        if stop.kind is StopKind.PICKUP:
            onboard[rid] = stop.rider
        else:
            onboard.pop(rid, None)
            deliver(rid)
    location, ready_time, committed = vehicle.location, vehicle.ready_time, ()
    if k < n:
        # mid-leg: committed to reaching stops[k] at arrive[k]
        location, ready_time = stops[k].location, arrive[k]
        committed = tuple(stops[k + 1:])
    elif n:
        # plan finished by next_clock: idle at the last stop
        location, ready_time = stops[-1].location, None
    elif ready_time is not None and ready_time <= next_clock + _EPS:
        # no stops at all: a previous frame's in-flight leg ended
        ready_time = None
    return Vehicle(
        vehicle_id=vehicle.vehicle_id,
        location=location,
        capacity=vehicle.capacity,
        ready_time=ready_time,
        onboard=tuple(onboard.values()),
        committed_stops=committed,
    )
