"""Typed mid-horizon disruptions and their recovery semantics.

The rolling-horizon dispatcher (:mod:`repro.core.dispatch`) assumes the
world holds still between frames; real fleets do not.  This module is the
fault model: typed events injected *between* frames
(:meth:`Dispatcher.inject`), each with a well-defined, conservative
recovery that never corrupts carried state:

- :class:`VehicleBreakdown` — the vehicle completes its in-flight leg to
  its anchor stop (consistent with the rollforward's optimistic anchor
  semantics) and is withdrawn there.  Onboard riders are *stranded*:
  they re-enter the carry-over queue as rewritten requests picking up at
  the strand point with recomputed deadlines (a rider stranded at their
  own destination is simply delivered).  Riders promised but not yet
  picked up are *released*: their original requests return to the queue.
- :class:`RiderCancellation` / :class:`RiderNoShow` — pre-commit the
  rider is dropped from the queue; post-commit their pickup and drop-off
  stops are excised from the vehicle's residual chain (schedule repair,
  not a resolve — removing stops can only shorten the remaining legs, by
  the triangle inequality of shortest-path costs, so the chain stays
  feasible).  A rider already in a car cannot cancel (skipped).
- :class:`TravelTimePerturbation` — per-edge cost multipliers (applied in
  both directions on undirected networks) followed by
  :meth:`DistanceOracle.invalidate` (epoch bump, pinned rows eagerly
  recomputed) and a deadline re-audit of every committed chain: promises
  made unmeetable are released back to the queue when the rider is not
  yet in the car, or kept with a stretched drop-off deadline when they
  are (an onboard rider cannot be un-picked-up; arriving late beats
  never arriving).
- :class:`RoadClosure` — edges removed outright, *unless* the closure
  would disconnect a committed stop, in which case the whole event is
  reverted and skipped (the dispatcher refuses to make promises
  physically impossible).  Queue riders whose trips become unreachable
  expire.

Every event yields a :class:`DisruptionOutcome` naming exactly which
riders were stranded / released / delivered / cancelled / expired /
extended — the chaos fuzz modes (``python -m repro.check --mode chaos``) use
these to prove that no committed rider ever vanishes except through an
explicit event, and that the :class:`~repro.core.dispatch.RiderStatus`
ledger conserves every rider ever issued.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.requests import Rider
from repro.core.schedule import Stop, StopKind
from repro.core.dispatch import Dispatcher, FleetVehicle, RiderStatus
from repro.obs import trace as _trace

_EPS = 1e-9

#: Multiplier on a stranded rider's strand-point-to-destination shortest
#: cost that, added to the new pickup deadline, bounds the rewritten
#: drop-off deadline (the original deadline is kept when looser).
STRAND_DETOUR_FACTOR = 1.5

#: Margin (minutes) added beyond the recomputed arrival when an onboard
#: rider's drop-off deadline must stretch after a travel-time perturbation.
EXTENSION_SLACK = 1e-6


class DisruptionKind(enum.Enum):
    """Event taxonomy (one per event dataclass)."""

    VEHICLE_BREAKDOWN = "vehicle_breakdown"
    RIDER_CANCELLATION = "rider_cancellation"
    RIDER_NO_SHOW = "rider_no_show"
    TRAVEL_TIME_PERTURBATION = "travel_time_perturbation"
    ROAD_CLOSURE = "road_closure"


@dataclass(frozen=True)
class VehicleBreakdown:
    """Withdraw a vehicle at its current anchor, stranding its riders."""

    vehicle_id: int

    kind = DisruptionKind.VEHICLE_BREAKDOWN


@dataclass(frozen=True)
class RiderCancellation:
    """The rider withdraws their request (pre- or post-commit)."""

    rider_id: int

    kind = DisruptionKind.RIDER_CANCELLATION


@dataclass(frozen=True)
class RiderNoShow:
    """The rider stops responding — same recovery, distinct taxonomy."""

    rider_id: int

    kind = DisruptionKind.RIDER_NO_SHOW


@dataclass(frozen=True)
class TravelTimePerturbation:
    """Scale edge travel costs: ``factors`` holds ``(u, v, multiplier)``.

    Multipliers must be finite and positive (congestion or relief, not
    removal — use :class:`RoadClosure` to sever an edge).  On undirected
    networks the reverse edge is scaled too.
    """

    factors: Tuple[Tuple[int, int, float], ...]

    kind = DisruptionKind.TRAVEL_TIME_PERTURBATION


@dataclass(frozen=True)
class RoadClosure:
    """Remove edges outright; ``edges`` holds ``(u, v)`` pairs."""

    edges: Tuple[Tuple[int, int], ...]

    kind = DisruptionKind.ROAD_CLOSURE


Disruption = Union[
    VehicleBreakdown,
    RiderCancellation,
    RiderNoShow,
    TravelTimePerturbation,
    RoadClosure,
]


def event_to_dict(event: Disruption) -> dict:
    """A JSON-ready dict for one typed event: its ``kind`` and fields."""
    if isinstance(event, VehicleBreakdown):
        fields = {"vehicle_id": int(event.vehicle_id)}
    elif isinstance(event, (RiderCancellation, RiderNoShow)):
        fields = {"rider_id": int(event.rider_id)}
    elif isinstance(event, TravelTimePerturbation):
        fields = {
            "factors": [[int(u), int(v), float(f)] for u, v, f in event.factors]
        }
    elif isinstance(event, RoadClosure):
        fields = {"edges": [[int(u), int(v)] for u, v in event.edges]}
    else:
        raise TypeError(f"unknown disruption event: {event!r}")
    return {"kind": event.kind.value, **fields}


def event_from_dict(payload: dict) -> Disruption:
    """Inverse of :func:`event_to_dict`."""
    kind = DisruptionKind(payload["kind"])
    if kind is DisruptionKind.VEHICLE_BREAKDOWN:
        return VehicleBreakdown(payload["vehicle_id"])
    if kind is DisruptionKind.RIDER_CANCELLATION:
        return RiderCancellation(payload["rider_id"])
    if kind is DisruptionKind.RIDER_NO_SHOW:
        return RiderNoShow(payload["rider_id"])
    if kind is DisruptionKind.TRAVEL_TIME_PERTURBATION:
        return TravelTimePerturbation(tuple(map(tuple, payload["factors"])))
    return RoadClosure(tuple(map(tuple, payload["edges"])))


class OutcomeStatus(enum.Enum):
    APPLIED = "applied"
    SKIPPED = "skipped"


_OUTCOME_LISTS = (
    "stranded", "released", "delivered", "cancelled", "expired", "extended",
)


@dataclass
class DisruptionOutcome:
    """What one event actually did to the dispatcher's state.

    The rider-id tuples partition every rider the event touched by what
    happened to them; :attr:`affected_rider_ids` is their union and is
    exactly the set of riders allowed to leave ``COMMITTED`` status at
    this boundary (the invariant the chaos fuzzer asserts).
    """

    event: Disruption
    status: OutcomeStatus
    detail: str = ""
    stranded: Tuple[int, ...] = ()    # onboard riders requeued from a breakdown
    released: Tuple[int, ...] = ()    # committed-not-picked-up riders requeued
    delivered: Tuple[int, ...] = ()   # stranded exactly at their destination
    cancelled: Tuple[int, ...] = ()
    expired: Tuple[int, ...] = ()     # recovery deadline already dead
    extended: Tuple[int, ...] = ()    # onboard drop-off deadlines stretched

    @property
    def applied(self) -> bool:
        return self.status is OutcomeStatus.APPLIED

    @property
    def affected_rider_ids(self) -> frozenset:
        return frozenset(
            self.stranded + self.released + self.delivered
            + self.cancelled + self.expired + self.extended
        )

    def summary(self) -> dict:
        """The status and rider-id lists, JSON-ready: what a WAL record
        stores and its replay must reproduce."""
        payload = {"status": self.status.value}
        for label in _OUTCOME_LISTS:
            payload[label] = [int(rid) for rid in getattr(self, label)]
        return payload

    def __str__(self) -> str:
        kind = getattr(self.event, "kind", None)
        name = kind.value if kind is not None else type(self.event).__name__
        parts = [f"[{name}/{self.status.value}] {self.detail}"]
        for label in _OUTCOME_LISTS:
            ids = getattr(self, label)
            if ids:
                parts.append(f"{label}={sorted(ids)}")
        return " ".join(parts)


class DisruptionEngine:
    """Applies disruptions to a :class:`Dispatcher` between frames.

    A stranded rider waits at the strand point for two frame lengths:
    their rewritten pickup deadline is the moment they stand there plus
    ``2 * frame_length``.  Every arc an applied perturbation or closure
    changes is recorded in the dispatcher's ``_metric_changes`` (new
    cost, ``None`` once closed), which a durable snapshot stores.
    """

    def __init__(self, dispatcher: Dispatcher) -> None:
        self.dispatcher = dispatcher

    # ------------------------------------------------------------------
    def apply(self, events: Sequence[Disruption]) -> List[DisruptionOutcome]:
        """Apply events in order; one outcome per event."""
        outcomes: List[DisruptionOutcome] = []
        for event in events:
            kind = getattr(event, "kind", None)
            name = kind.value if kind is not None else type(event).__name__
            with _trace.span("disruption.apply", kind=name) as ev_span:
                if isinstance(event, VehicleBreakdown):
                    outcome = self._breakdown(event)
                elif isinstance(event, (RiderCancellation, RiderNoShow)):
                    outcome = self._cancel(event)
                elif isinstance(event, TravelTimePerturbation):
                    outcome = self._perturb(event)
                elif isinstance(event, RoadClosure):
                    outcome = self._close(event)
                else:
                    raise TypeError(f"unknown disruption event: {event!r}")
                ev_span.annotate(status=outcome.status.value)
            outcomes.append(outcome)
        return outcomes

    # ------------------------------------------------------------------
    # vehicle breakdowns
    # ------------------------------------------------------------------
    def _breakdown(self, event: VehicleBreakdown) -> DisruptionOutcome:
        d = self.dispatcher
        fv = d.fleet.get(event.vehicle_id)
        if fv is None:
            return DisruptionOutcome(
                event, OutcomeStatus.SKIPPED,
                detail=f"vehicle {event.vehicle_id} unknown or already down",
            )
        if len(d.fleet) <= 1:
            return DisruptionOutcome(
                event, OutcomeStatus.SKIPPED,
                detail="refusing to break the last vehicle in the fleet",
            )
        clock = d.clock
        anchor = fv.location
        # the rider steps out when the vehicle reaches its anchor, never
        # before the current clock
        avail = max(
            clock, fv.ready_time if fv.ready_time is not None else clock
        )
        stranded: List[int] = []
        delivered: List[int] = []
        released: List[int] = []
        expired: List[int] = []

        for rider in fv.onboard:
            if rider.destination == anchor:
                d.ledger[rider.rider_id] = RiderStatus.DELIVERED
                delivered.append(rider.rider_id)
                continue
            shortest = d.oracle.cost(anchor, rider.destination)
            if not math.isfinite(shortest) or shortest <= 0:
                d.ledger[rider.rider_id] = RiderStatus.EXPIRED
                expired.append(rider.rider_id)
                continue
            pickup_deadline = avail + 2.0 * d.config.frame_length
            dropoff_deadline = max(
                rider.dropoff_deadline,
                pickup_deadline + STRAND_DETOUR_FACTOR * shortest,
            )
            d._requeue(
                dataclasses.replace(
                    rider,
                    source=anchor,
                    pickup_deadline=pickup_deadline,
                    dropoff_deadline=dropoff_deadline,
                )
            )
            stranded.append(rider.rider_id)

        for stop in fv.committed_stops:
            if stop.kind is not StopKind.PICKUP:
                continue
            rider = stop.rider
            if rider.pickup_deadline <= clock + _EPS:
                d.ledger[rider.rider_id] = RiderStatus.EXPIRED
                expired.append(rider.rider_id)
            else:
                d._requeue(rider)
                released.append(rider.rider_id)

        del d.fleet[event.vehicle_id]
        return DisruptionOutcome(
            event, OutcomeStatus.APPLIED,
            detail=f"vehicle {event.vehicle_id} withdrawn at node {anchor}",
            stranded=tuple(stranded),
            released=tuple(released),
            delivered=tuple(delivered),
            expired=tuple(expired),
        )

    # ------------------------------------------------------------------
    # cancellations / no-shows
    # ------------------------------------------------------------------
    def _cancel(
        self, event: Union[RiderCancellation, RiderNoShow]
    ) -> DisruptionOutcome:
        d = self.dispatcher
        rid = event.rider_id

        for i, entry in enumerate(d._carryover):
            if entry.rider.rider_id == rid:
                del d._carryover[i]
                d.ledger[rid] = RiderStatus.CANCELLED
                return DisruptionOutcome(
                    event, OutcomeStatus.APPLIED,
                    detail=f"rider {rid} removed from the carry-over queue",
                    cancelled=(rid,),
                )

        for fv in d.fleet.values():
            if rid not in {
                s.rider.rider_id
                for s in fv.committed_stops
                if s.kind is StopKind.PICKUP
            }:
                continue
            # excise both stops; remaining legs only shorten (triangle
            # inequality of shortest-path costs), so no repair is needed
            fv.committed_stops = tuple(
                s for s in fv.committed_stops if s.rider.rider_id != rid
            )
            d.ledger[rid] = RiderStatus.CANCELLED
            return DisruptionOutcome(
                event, OutcomeStatus.APPLIED,
                detail=(
                    f"rider {rid} released from vehicle "
                    f"{fv.vehicle_id}'s committed plan"
                ),
                cancelled=(rid,),
            )

        status = d.ledger.get(rid)
        if status is RiderStatus.COMMITTED:
            reason = "already in a vehicle (cannot cancel mid-ride)"
        elif status is None:
            reason = "never issued"
        else:
            reason = f"already {status.value}"
        return DisruptionOutcome(
            event, OutcomeStatus.SKIPPED,
            detail=f"rider {rid}: {reason}",
        )

    # ------------------------------------------------------------------
    # travel-time perturbations
    # ------------------------------------------------------------------
    def _perturb(self, event: TravelTimePerturbation) -> DisruptionOutcome:
        d = self.dispatcher
        net = d.network
        for u, v, factor in event.factors:
            if not (factor > 0 and math.isfinite(factor)):
                return DisruptionOutcome(
                    event, OutcomeStatus.SKIPPED,
                    detail=(
                        f"multiplier {factor!r} on edge ({u}, {v}) is not a "
                        f"positive finite number"
                    ),
                )
        scaled = 0
        missing: List[Tuple[int, int]] = []
        for u, v, factor in event.factors:
            if not net.has_edge(u, v):
                missing.append((u, v))
                continue
            arcs = [(u, v)]
            if net.undirected and net.has_edge(v, u):
                arcs.append((v, u))
            for a, b in arcs:
                cost = net.adjacency[a][b] * factor
                net.adjacency[a][b] = cost
                net.reverse_adjacency[b][a] = cost
                d._metric_changes[(a, b)] = cost
            scaled += len(arcs)
        if not scaled:
            return DisruptionOutcome(
                event, OutcomeStatus.SKIPPED,
                detail=f"no matching edges (missing: {missing})",
            )
        d.oracle.invalidate()
        extended, released, expired = self._reaudit_all()
        detail = f"{scaled} directed edge(s) scaled"
        if missing:
            detail += f"; {len(missing)} missing edge(s) ignored"
        return DisruptionOutcome(
            event, OutcomeStatus.APPLIED,
            detail=detail,
            released=released,
            expired=expired,
            extended=extended,
        )

    # ------------------------------------------------------------------
    # road closures
    # ------------------------------------------------------------------
    def _close(self, event: RoadClosure) -> DisruptionOutcome:
        d = self.dispatcher
        net = d.network
        removed: List[Tuple[int, int, float]] = []
        for u, v in event.edges:
            if net.has_edge(u, v):
                removed.append((u, v, net.adjacency[u][v]))
                net.remove_edge(u, v)
            if net.undirected and net.has_edge(v, u):
                removed.append((v, u, net.adjacency[v][u]))
                net.remove_edge(v, u)
        if not removed:
            return DisruptionOutcome(
                event, OutcomeStatus.SKIPPED, detail="no matching edges",
            )
        d.oracle.invalidate()
        broken = self._unreachable_commitment()
        if broken is not None:
            # atomic revert: promises must stay physically possible
            for u, v, cost in removed:
                net.adjacency[u][v] = cost
                net.reverse_adjacency[v][u] = cost
            d.oracle.invalidate()
            return DisruptionOutcome(
                event, OutcomeStatus.SKIPPED,
                detail=(
                    f"closure reverted: committed stop of rider "
                    f"{broken[1]} on vehicle {broken[0]} would become "
                    f"unreachable"
                ),
            )
        for u, v, _cost in removed:
            d._metric_changes[(u, v)] = None
        extended, released, expired = self._reaudit_all()
        return DisruptionOutcome(
            event, OutcomeStatus.APPLIED,
            detail=f"{len(removed)} directed edge(s) closed",
            released=released,
            expired=expired,
            extended=extended,
        )

    def _unreachable_commitment(self) -> Optional[Tuple[int, int]]:
        """(vehicle_id, rider_id) of the first disconnected committed stop."""
        d = self.dispatcher
        for vid, fv in d.fleet.items():
            location = fv.location
            for stop in fv.committed_stops:
                if not math.isfinite(d.oracle.cost(location, stop.location)):
                    return (vid, stop.rider.rider_id)
                location = stop.location
        return None

    # ------------------------------------------------------------------
    # deadline re-audit after travel-time changes
    # ------------------------------------------------------------------
    def _reaudit_all(
        self,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
        """Re-audit every committed chain and the queue; returns
        ``(extended, released, expired)`` rider-id tuples."""
        d = self.dispatcher
        extended: List[int] = []
        released: List[int] = []
        expired: List[int] = []
        for fv in d.fleet.values():
            self._reaudit_vehicle(fv, extended, released, expired)
        # queue riders whose trip no longer exists expire outright
        survivors = []
        for entry in d._carryover:
            rider = entry.rider
            if math.isfinite(d.oracle.cost(rider.source, rider.destination)):
                survivors.append(entry)
            else:
                d.ledger[rider.rider_id] = RiderStatus.EXPIRED
                expired.append(rider.rider_id)
        d._carryover = survivors
        return tuple(extended), tuple(released), tuple(expired)

    def _reaudit_vehicle(
        self,
        fv: FleetVehicle,
        extended: List[int],
        released: List[int],
        expired: List[int],
    ) -> None:
        """Repair one residual chain until every arrival meets its deadline.

        Each pass walks the chain with fresh oracle costs and fixes the
        *first* violated stop: a rider not yet picked up is released back
        to the queue (their stops excised — later arrivals only improve),
        an onboard rider's drop-off deadline is stretched to the new
        arrival (they cannot be un-picked-up).  Terminates because every
        pass either finishes clean, removes a rider, or moves the first
        violation strictly later.
        """
        d = self.dispatcher
        clock = d.clock
        while True:
            stops = fv.committed_stops
            start = max(
                clock, fv.ready_time if fv.ready_time is not None else clock
            )
            time_at = start
            location = fv.location
            violation = None
            for i, stop in enumerate(stops):
                time_at += d.oracle.cost(location, stop.location)
                location = stop.location
                if time_at > stop.deadline + _EPS:
                    violation = (i, stop, time_at)
                    break
            if violation is None:
                return
            _, stop, arrival = violation
            rid = stop.rider.rider_id
            pickup = next(
                (
                    s
                    for s in stops
                    if s.kind is StopKind.PICKUP and s.rider.rider_id == rid
                ),
                None,
            )
            if pickup is not None:
                # not yet in the car: release the whole promise
                fv.committed_stops = tuple(
                    s for s in stops if s.rider.rider_id != rid
                )
                rider = pickup.rider
                if rider.pickup_deadline <= clock + _EPS or not math.isfinite(
                    d.oracle.cost(rider.source, rider.destination)
                ):
                    d.ledger[rid] = RiderStatus.EXPIRED
                    expired.append(rid)
                else:
                    d._requeue(rider)
                    released.append(rid)
                continue
            if not math.isfinite(arrival):
                # closures guard committed reachability and perturbation
                # factors are finite, so an onboard rider's drop-off can
                # never be severed — if it is, carried state is corrupt
                raise RuntimeError(
                    f"vehicle {fv.vehicle_id}: onboard rider {rid}'s "
                    f"drop-off became unreachable"
                )
            # onboard: stretch the drop-off deadline to the new arrival,
            # swapping the rider object consistently everywhere it appears
            replacement = dataclasses.replace(
                stop.rider,
                dropoff_deadline=arrival + EXTENSION_SLACK,
            )
            fv.onboard = tuple(
                replacement if r.rider_id == rid else r for r in fv.onboard
            )
            fv.committed_stops = tuple(
                Stop(location=s.location, kind=s.kind, rider=replacement)
                if s.rider.rider_id == rid
                else s
                for s in stops
            )
            extended.append(rid)
