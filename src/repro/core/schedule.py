"""Transfer event structure (Section 3.1).

A vehicle's schedule is a sequence of pickup/drop-off *stops*; the legs
between consecutive stops are the paper's *transfer events*.  For a sequence
with ``n`` stops there are ``n`` events: event ``j`` (0-indexed here,
``tau_{j+1}`` in the paper) travels from the location of stop ``j-1`` (the
vehicle origin for ``j == 0``) to the location of stop ``j``.

Per event the structure maintains exactly the fields of Figure 4:

- earliest start time ``t^-`` (Eq. 6) — forward propagation,
- latest completion time ``t^+`` (Eq. 7) — backward propagation,
- flexible time ``ft`` (Eq. 8) — backward suffix minimum,
- the onboard rider set ``R_u``.

Derived quantities used throughout:

- ``arrive[j]`` — earliest arrival at stop ``j`` (``t^-`` of event ``j`` plus
  its travel cost);
- ``latest[j]`` — the event's latest completion time ``t^+``;
- ``slack[j] = latest[j] - arrive[j]`` so that
  ``ft[j] = min(slack[j], slack[j+1], ..., slack[n-1])``.

The sequence also answers the utility model's questions: each rider's
onboard legs with costs and co-rider sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.requests import Rider

CostFn = Callable[[int, int], float]

INF = float("inf")


class StopKind(enum.Enum):
    PICKUP = "pickup"
    DROPOFF = "dropoff"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


@dataclass(frozen=True)
class Stop:
    """One schedule stop: pick up or drop off a rider at a location."""

    location: int
    kind: StopKind
    rider: Rider

    @property
    def deadline(self) -> float:
        """Deadline ``dl(l)`` for reaching this stop."""
        if self.kind is StopKind.PICKUP:
            return self.rider.pickup_deadline
        return self.rider.dropoff_deadline

    @classmethod
    def pickup(cls, rider: Rider) -> "Stop":
        return cls(location=rider.source, kind=StopKind.PICKUP, rider=rider)

    @classmethod
    def dropoff(cls, rider: Rider) -> "Stop":
        return cls(location=rider.destination, kind=StopKind.DROPOFF, rider=rider)

    def __repr__(self) -> str:
        sign = "+" if self.kind is StopKind.PICKUP else "-"
        return f"r{self.rider.rider_id}{sign}@{self.location}"


@dataclass(frozen=True)
class OnboardLeg:
    """One leg a given rider spends onboard: its cost and the co-riders."""

    cost: float
    co_riders: FrozenSet[int]  # rider ids sharing the leg (excluding the rider)


class TransferSequence:
    """A vehicle schedule with the Section 3.1 transfer-event fields.

    Parameters
    ----------
    origin:
        The vehicle's current location (the paper's ``o``).
    start_time:
        Current timestamp ``t̄`` at which the vehicle sits at ``origin``.
    capacity:
        Vehicle capacity ``a_j``.
    cost:
        Travel-cost oracle ``cost(u, v)``.
    stops:
        Initial stop list (validated lazily; :meth:`is_valid` checks it).
    initial_onboard:
        Riders already in the vehicle at ``start_time`` (their pickups are
        *not* in ``stops``, only their drop-offs must be).
    committed:
        Rider ids whose stops were promised in an earlier dispatch frame:
        solvers may insert around them but :meth:`remove_rider` /
        :meth:`without_rider` refuse to unassign them.  Initial-onboard
        riders are always committed (they are physically in the car).
    """

    def __init__(
        self,
        origin: int,
        start_time: float,
        capacity: int,
        cost: CostFn,
        stops: Optional[Sequence[Stop]] = None,
        initial_onboard: Optional[Iterable[Rider]] = None,
        committed: Optional[Iterable[int]] = None,
    ) -> None:
        self.origin = origin
        self.start_time = float(start_time)
        self.capacity = capacity
        self.cost = cost
        self.stops: List[Stop] = list(stops) if stops else []
        self.initial_onboard: Set[int] = {
            r.rider_id for r in (initial_onboard or ())
        }
        self.committed: Set[int] = set(committed or ()) | self.initial_onboard
        self._initial_riders: Dict[int, Rider] = {
            r.rider_id: r for r in (initial_onboard or ())
        }
        self._riders_by_id: Optional[Dict[int, Rider]] = None  # lazy
        # derived arrays (refreshed by _recompute)
        self.arrive: List[float] = []
        self.latest: List[float] = []
        self.flexible: List[float] = []
        self.load_before: List[int] = []  # onboard count during event j
        self.leg_costs: List[float] = []  # travel cost of event j
        self.load_end: int = 0  # onboard count after the last stop
        self._stop_index: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        self._onboard_cache: Optional[List[Set[int]]] = None
        self._recompute()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.stops)

    def locations(self) -> List[int]:
        return [s.location for s in self.stops]

    @property
    def total_cost(self) -> float:
        """Total travel cost of the schedule, ``cost(S_j)``.

        Vehicles never wait (there are no earliest-pickup constraints), so
        the total cost equals the arrival time at the last stop minus the
        start time.
        """
        if not self.stops:
            return 0.0
        return self.arrive[-1] - self.start_time

    @property
    def completion_time(self) -> float:
        """Earliest time the vehicle finishes its last stop."""
        return self.arrive[-1] if self.stops else self.start_time

    def rider_ids(self) -> Set[int]:
        """All riders appearing in the schedule (incl. initial onboard)."""
        ids = set(self.initial_onboard)
        ids.update(s.rider.rider_id for s in self.stops)
        return ids

    def assigned_riders(self) -> List[Rider]:
        """Riders whose pickup occurs in this schedule, in pickup order."""
        return [s.rider for s in self.stops if s.kind is StopKind.PICKUP]

    def removable_riders(self) -> List[Rider]:
        """Assigned riders that may legally be unassigned (not committed).

        The candidate set for BA's replace step and the local-search
        relocate/swap moves: riders promised in an earlier dispatch frame
        (and riders already in the car) are excluded.
        """
        if not self.committed:
            return self.assigned_riders()
        return [
            s.rider
            for s in self.stops
            if s.kind is StopKind.PICKUP and s.rider.rider_id not in self.committed
        ]

    def rider(self, rider_id: int) -> Rider:
        return self._rider_index()[rider_id]

    def stop_indices(self, rider_id: int) -> Tuple[Optional[int], Optional[int]]:
        """(pickup index, drop-off index) of a rider; ``None`` when absent.

        O(1): the map is maintained by ``_recompute`` alongside the event
        arrays (it is read inside the utility and metrics loops).
        """
        return self._stop_index.get(rider_id, (None, None))

    # ------------------------------------------------------------------
    # event fields (paper naming, 0-indexed events)
    # ------------------------------------------------------------------
    def earliest_start(self, event: int) -> float:
        """``t^-`` of event ``event`` (Eq. 6): earliest departure from its
        start location."""
        if event == 0:
            return self.start_time
        return self.arrive[event - 1]

    def latest_completion(self, event: int) -> float:
        """``t^+`` of event ``event`` (Eq. 7)."""
        return self.latest[event]

    def flexible_time(self, event: int) -> float:
        """``ft`` of event ``event`` (Eq. 8)."""
        return self.flexible[event]

    def onboard_during(self, event: int) -> int:
        """Number of riders in the vehicle while travelling event ``event``."""
        return self.load_before[event]

    def event_endpoints(self, event: int) -> Tuple[int, int]:
        """``(l^-, l^+)`` of event ``event``."""
        start = self.origin if event == 0 else self.stops[event - 1].location
        return start, self.stops[event].location

    # ------------------------------------------------------------------
    # validity
    # ------------------------------------------------------------------
    def is_valid(self) -> bool:
        """Definition 3 validity: deadlines, order, capacity, completeness."""
        return not self.validity_errors()

    def validity_errors(self) -> List[str]:
        """Human-readable list of validity violations (empty when valid)."""
        errors: List[str] = []
        seen_pickup: Set[int] = set(self.initial_onboard)
        dropped: Set[int] = set()
        for idx, stop in enumerate(self.stops):
            rid = stop.rider.rider_id
            if stop.kind is StopKind.PICKUP:
                if rid in seen_pickup:
                    errors.append(f"rider {rid} picked up twice (stop {idx})")
                seen_pickup.add(rid)
            else:
                if rid not in seen_pickup:
                    errors.append(
                        f"rider {rid} dropped off before pickup (stop {idx})"
                    )
                if rid in dropped:
                    errors.append(f"rider {rid} dropped off twice (stop {idx})")
                dropped.add(rid)
            if self.arrive[idx] > stop.deadline + 1e-9:
                errors.append(
                    f"stop {idx} ({stop!r}) arrives at {self.arrive[idx]:.4f} "
                    f"after deadline {stop.deadline:.4f}"
                )
        undelivered = seen_pickup - dropped
        if undelivered:
            errors.append(f"riders never dropped off: {sorted(undelivered)}")
        for event, load in enumerate(self.load_before):
            if load > self.capacity:
                errors.append(
                    f"capacity exceeded during event {event}: "
                    f"{load} > {self.capacity}"
                )
        return errors

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def copy(self) -> "TransferSequence":
        clone = TransferSequence.__new__(TransferSequence)
        clone.origin = self.origin
        clone.start_time = self.start_time
        clone.capacity = self.capacity
        clone.cost = self.cost
        clone.stops = list(self.stops)
        clone.initial_onboard = set(self.initial_onboard)
        clone.committed = set(self.committed)
        clone._initial_riders = dict(self._initial_riders)
        clone._riders_by_id = None
        clone.arrive = list(self.arrive)
        clone.latest = list(self.latest)
        clone.flexible = list(self.flexible)
        clone.load_before = list(self.load_before)
        clone.leg_costs = list(self.leg_costs)
        clone.load_end = self.load_end
        clone._stop_index = dict(self._stop_index)
        clone._onboard_cache = None
        return clone

    def with_stops(self, stops: Iterable[Stop]) -> "TransferSequence":
        """A new sequence with the same vehicle state but the given stops.

        One ``_recompute`` total — no intermediate copy of the derived
        arrays (they are rebuilt anyway).  This is the materialisation
        primitive of the zero-copy insertion engine.
        """
        clone = TransferSequence.__new__(TransferSequence)
        clone.origin = self.origin
        clone.start_time = self.start_time
        clone.capacity = self.capacity
        clone.cost = self.cost
        clone.stops = list(stops)
        clone.initial_onboard = set(self.initial_onboard)
        clone.committed = set(self.committed)
        clone._initial_riders = dict(self._initial_riders)
        clone._riders_by_id = None
        clone._onboard_cache = None
        clone._recompute()
        return clone

    def without_rider(self, rider_id: int) -> "TransferSequence":
        """A new sequence with both of a rider's stops removed.

        Same semantics as ``copy()`` + :meth:`remove_rider` but with a
        single recompute and no array copies (BA's replace step and the
        local-search passes call this in their inner loops).
        """
        if rider_id in self.initial_onboard:
            raise ValueError(f"rider {rider_id} is already onboard; cannot remove")
        if rider_id in self.committed:
            raise ValueError(
                f"rider {rider_id} was committed in an earlier frame; "
                f"cannot remove"
            )
        remaining = [s for s in self.stops if s.rider.rider_id != rider_id]
        if len(remaining) == len(self.stops):
            raise KeyError(f"rider {rider_id} not in schedule")
        return self.with_stops(remaining)

    def insert_stop(self, index: int, stop: Stop) -> None:
        """Insert ``stop`` so it becomes ``stops[index]`` and refresh fields.

        ``index == len(self)`` appends after the current last stop.  The
        caller is responsible for validity (use
        :mod:`repro.core.insertion` for checked insertions).
        """
        self.stops.insert(index, stop)
        self._recompute()

    def remove_rider(self, rider_id: int) -> Rider:
        """Remove both stops of a rider (BA's replace operation).

        Returns the removed rider.  Raises ``KeyError`` when the rider is
        not in the schedule and ``ValueError`` for initial-onboard or
        committed riders (physically in the car / promised in an earlier
        frame; they cannot be unassigned).
        """
        if rider_id in self.initial_onboard:
            raise ValueError(f"rider {rider_id} is already onboard; cannot remove")
        if rider_id in self.committed:
            raise ValueError(
                f"rider {rider_id} was committed in an earlier frame; "
                f"cannot remove"
            )
        remaining = [s for s in self.stops if s.rider.rider_id != rider_id]
        if len(remaining) == len(self.stops):
            raise KeyError(f"rider {rider_id} not in schedule")
        removed = next(
            s.rider for s in self.stops if s.rider.rider_id == rider_id
        )
        self.stops = remaining
        self._recompute()
        return removed

    # ------------------------------------------------------------------
    # utility-model support
    # ------------------------------------------------------------------
    def leg_cost(self, event: int) -> float:
        """Travel cost of event ``event`` (cached at recompute time)."""
        return self.leg_costs[event]

    def onboard_legs(self, rider_id: int) -> List[OnboardLeg]:
        """The legs a rider spends onboard, with costs and co-rider sets.

        A rider picked up at stop ``p`` and dropped at stop ``d`` is onboard
        during events ``p+1 .. d`` (the pickup event itself carries the
        rider only from its own stop onward, i.e. not at all).  Riders
        already onboard at ``start_time`` ride from event 0.
        """
        pickup, dropoff = self.stop_indices(rider_id)
        if rider_id in self.initial_onboard:
            first_event = 0
        elif pickup is not None:
            first_event = pickup + 1
        else:
            raise KeyError(f"rider {rider_id} not in schedule")
        if dropoff is None:
            raise ValueError(f"rider {rider_id} has no drop-off stop")
        legs: List[OnboardLeg] = []
        onboard = self._onboard_sets()
        for event in range(first_event, dropoff + 1):
            co = frozenset(onboard[event] - {rider_id})
            legs.append(OnboardLeg(cost=self.leg_cost(event), co_riders=co))
        return legs

    def _onboard_sets(self) -> List[Set[int]]:
        """Rider-id sets onboard during each event (cached per recompute)."""
        if self._onboard_cache is None:
            sets: List[Set[int]] = []
            current: Set[int] = set(self.initial_onboard)
            for stop in self.stops:
                sets.append(set(current))
                if stop.kind is StopKind.PICKUP:
                    current.add(stop.rider.rider_id)
                else:
                    current.discard(stop.rider.rider_id)
            self._onboard_cache = sets
        return self._onboard_cache

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _recompute(self) -> None:
        """Refresh ``arrive`` (forward), ``latest`` and ``flexible``
        (backward), and per-event loads.  O(n) plus n cost-oracle calls."""
        n = len(self.stops)
        self.arrive = [0.0] * n
        self.latest = [0.0] * n
        self.flexible = [0.0] * n
        self.load_before = [0] * n
        self.leg_costs = [0.0] * n
        self.load_end = len(self.initial_onboard)
        self._stop_index = {}
        self._onboard_cache = None
        self._riders_by_id = None  # lazily rebuilt by _rider_index
        if n == 0:
            return
        cost = self.cost
        arrive = self.arrive
        leg_costs = self.leg_costs
        load_before = self.load_before
        index = self._stop_index
        pickup_kind = StopKind.PICKUP
        deadlines = [0.0] * n
        # forward: earliest arrivals (Eq. 6), leg costs, loads, and the
        # rider -> (pickup idx, drop-off idx) map in one pass
        prev_loc = self.origin
        t = self.start_time
        load = len(self.initial_onboard)
        for j, stop in enumerate(self.stops):
            loc = stop.location
            leg = cost(prev_loc, loc)
            leg_costs[j] = leg
            t += leg
            arrive[j] = t
            prev_loc = loc
            load_before[j] = load
            rider = stop.rider
            rid = rider.rider_id
            entry = index.get(rid)
            if stop.kind is pickup_kind:
                load += 1
                deadlines[j] = rider.pickup_deadline
                index[rid] = (j, entry[1] if entry else None)
            else:
                load -= 1
                deadlines[j] = rider.dropoff_deadline
                index[rid] = (entry[0] if entry else None, j)
        self.load_end = load
        # backward: latest completions (Eq. 7) and flexible times (Eq. 8,
        # the suffix minimum of slack) in one pass
        latest = self.latest
        flexible = self.flexible
        lat = deadlines[n - 1]
        latest[n - 1] = lat
        suffix = lat - arrive[n - 1]
        flexible[n - 1] = suffix
        for j in range(n - 2, -1, -1):
            lat = min(deadlines[j], lat - leg_costs[j + 1])
            latest[j] = lat
            slack = lat - arrive[j]
            if slack < suffix:
                suffix = slack
            flexible[j] = suffix

    def _rider_index(self) -> Dict[int, Rider]:
        if self._riders_by_id is None:
            index = dict(self._initial_riders)
            for stop in self.stops:
                index[stop.rider.rider_id] = stop.rider
            self._riders_by_id = index
        return self._riders_by_id

    def __repr__(self) -> str:
        inner = ", ".join(repr(s) for s in self.stops)
        return f"TransferSequence(o={self.origin}, t0={self.start_time:g}, [{inner}])"
