"""Dynamically moving vehicles (Definition 2).

A vehicle is no longer always "empty and idle at ``l(c_j)``": in the
online rolling-horizon setting (Section 7.1.2, :mod:`repro.core.dispatch`)
a vehicle enters a frame *mid-plan* — some riders are physically in the
car, some stops from the previous frame's committed schedule are still
pending, and the vehicle only becomes plannable at the moment it reaches
``location``.  :class:`Vehicle` therefore carries that state explicitly:

- ``ready_time`` — absolute time at which the vehicle is at ``location``
  (``None`` means "at the instance start time", the single-frame case);
- ``onboard`` — riders already picked up (they occupy capacity from the
  first event and their drop-offs must appear in ``committed_stops``);
- ``committed_stops`` — the residual, already-promised stop sequence the
  next frame must honour (solvers may insert around these stops but never
  remove or reorder them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple, TYPE_CHECKING

from repro.core.requests import Rider

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.schedule import Stop


@dataclass(frozen=True)
class Vehicle:
    """A capacity-constrained vehicle offering ridesharing.

    Attributes
    ----------
    vehicle_id:
        Unique id within the instance.
    location:
        Current node ``l(c_j)`` on the road network.  With carried-over
        state this is the node the vehicle *will* occupy at
        ``ready_time`` (the completion point of its in-flight leg).
    capacity:
        Maximum simultaneous riders ``a_j`` (excluding the driver).
    ready_time:
        Absolute time the vehicle becomes plannable at ``location``;
        ``None`` defaults to the instance's ``start_time``.  Never earlier
        than the vehicle's true arrival at ``location`` — the dispatcher's
        rollforward guarantees this, and the validator re-checks it.
    onboard:
        Riders physically in the vehicle at ``ready_time``, in drop-off
        order.  Each must have exactly one drop-off (and no pickup) in
        ``committed_stops``.
    committed_stops:
        Residual stops promised in an earlier frame, in plan order.  May
        contain pickups of riders not yet onboard (assigned last frame,
        not yet reached).
    """

    vehicle_id: int
    location: int
    capacity: int
    ready_time: Optional[float] = None
    onboard: Tuple[Rider, ...] = field(default=())
    committed_stops: Tuple["Stop", ...] = field(default=())

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(
                f"vehicle {self.vehicle_id}: capacity must be >= 1, got {self.capacity}"
            )
        object.__setattr__(self, "onboard", tuple(self.onboard))
        object.__setattr__(self, "committed_stops", tuple(self.committed_stops))
        if len(self.onboard) > self.capacity:
            raise ValueError(
                f"vehicle {self.vehicle_id}: {len(self.onboard)} riders onboard "
                f"exceed capacity {self.capacity}"
            )
        if self.onboard or self.committed_stops:
            self._check_carried_state()

    # ------------------------------------------------------------------
    def _check_carried_state(self) -> None:
        """Structural sanity of the carried-over plan (cheap, O(stops))."""
        # local import: schedule.py does not import vehicles.py, so this
        # cannot cycle at runtime
        from repro.core.schedule import StopKind

        onboard_ids = [r.rider_id for r in self.onboard]
        if len(set(onboard_ids)) != len(onboard_ids):
            raise ValueError(
                f"vehicle {self.vehicle_id}: duplicate onboard rider ids"
            )
        onboard_set = set(onboard_ids)
        picked: Set[int] = set()
        dropped: Set[int] = set()
        for stop in self.committed_stops:
            rid = stop.rider.rider_id
            if stop.kind is StopKind.PICKUP:
                if rid in onboard_set:
                    raise ValueError(
                        f"vehicle {self.vehicle_id}: onboard rider {rid} has a "
                        f"committed pickup (already in the car)"
                    )
                if rid in picked:
                    raise ValueError(
                        f"vehicle {self.vehicle_id}: rider {rid} has two "
                        f"committed pickups"
                    )
                picked.add(rid)
            else:
                if rid not in onboard_set and rid not in picked:
                    raise ValueError(
                        f"vehicle {self.vehicle_id}: committed drop-off of rider "
                        f"{rid} precedes any pickup and the rider is not onboard"
                    )
                if rid in dropped:
                    raise ValueError(
                        f"vehicle {self.vehicle_id}: rider {rid} has two "
                        f"committed drop-offs"
                    )
                dropped.add(rid)
        missing = (onboard_set | picked) - dropped
        if missing:
            raise ValueError(
                f"vehicle {self.vehicle_id}: carried riders {sorted(missing)} "
                f"have no committed drop-off"
            )

    # ------------------------------------------------------------------
    @property
    def has_carried_state(self) -> bool:
        """True when the vehicle enters the instance mid-plan."""
        return bool(self.onboard) or bool(self.committed_stops) or (
            self.ready_time is not None
        )

    def committed_rider_ids(self) -> Set[int]:
        """Ids of every rider the vehicle is already committed to."""
        ids = {r.rider_id for r in self.onboard}
        ids.update(s.rider.rider_id for s in self.committed_stops)
        return ids

    def pending_pickup_ids(self) -> Set[int]:
        """Ids of committed riders not yet picked up.

        These are the promises a disruption can still *release* back to
        the dispatcher's queue (an onboard rider, by contrast, can only
        be delivered or stranded).
        """
        from repro.core.schedule import StopKind

        return {
            s.rider.rider_id
            for s in self.committed_stops
            if s.kind is StopKind.PICKUP
        }

    def __repr__(self) -> str:
        extra = ""
        if self.has_carried_state:
            extra = (
                f", ready={self.ready_time}, onboard={len(self.onboard)}, "
                f"committed={len(self.committed_stops)}"
            )
        return f"Vehicle({self.vehicle_id} at {self.location}, cap={self.capacity}{extra})"
