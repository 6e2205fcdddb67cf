"""Independent solution validator.

This module is the *oracle* for every solver in the package: given an
instance and an assignment it re-derives, **from first principles**, all
facts a correct solution must satisfy and reports every discrepancy:

- **schedule walk** — every vehicle schedule is re-walked stop by stop
  with fresh :meth:`~repro.roadnet.oracle.DistanceOracle.cost` queries
  (not the schedule's cached ``leg_costs``), re-checking pickup-before-
  drop-off order, capacity along every leg, and the Lemma 3.1 deadline
  condition ``arrive(l) <= dl(l)`` at every stop;
- **event-field audit** — the latest-completion times (Eq. 7) and
  flexible times (Eq. 8) are re-derived by an independent backward pass
  and compared against the incremental arrays
  :class:`~repro.core.schedule.TransferSequence` maintains.  A sign error
  in the analytic shifts of the zero-copy insertion engine shows up here
  even when the resulting schedule happens to stay feasible;
- **utility audit** — every served rider's Eq. 1–5 utility is re-derived
  from its own onboard walk (own onboard sets, own logistic formula, own
  cost-weighted similarity mean) and compared against the production
  :class:`~repro.core.utility.UtilityModel` and against the caller's
  claimed objective value.

The implementation deliberately shares **no code** with
``repro.core.schedule`` / ``repro.core.utility``: everything is written
directly from the paper's Definitions 1–4 and Eq. 1–8.  It is slow by
design — O(stops) oracle queries per schedule with no caching tricks —
and must never be called on a hot path.  No solver or dispatcher
setting runs it: tests and :mod:`repro.check` call it on the output.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.core.assignment import Assignment
from repro.core.instance import URRInstance
from repro.core.schedule import StopKind, TransferSequence
from repro.obs import trace as _trace
from repro.perf import VALIDATION_STATS

#: Absolute tolerance for time/cost comparisons (matches the solvers' eps).
TIME_EPS = 1e-9
#: Absolute tolerance when comparing re-derived against maintained arrays.
FIELD_EPS = 1e-6
#: Absolute tolerance for utility comparisons.
UTILITY_EPS = 1e-6


class ViolationKind(enum.Enum):
    """Named violation classes a :class:`ValidationReport` can contain."""

    CAPACITY_EXCEEDED = "capacity_exceeded"
    DEADLINE_MISSED = "deadline_missed"
    ORDER_VIOLATION = "order_violation"
    MALFORMED_STOP = "malformed_stop"
    DUPLICATE_ASSIGNMENT = "duplicate_assignment"
    VEHICLE_STATE_MISMATCH = "vehicle_state_mismatch"
    COMMITMENT_DROPPED = "commitment_dropped"
    EVENT_FIELD_MISMATCH = "event_field_mismatch"
    UTILITY_MISMATCH = "utility_mismatch"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


@dataclass(frozen=True)
class Violation:
    """One constraint violation found by the validator."""

    kind: ViolationKind
    detail: str
    vehicle_id: Optional[int] = None
    rider_id: Optional[int] = None
    stop_index: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.vehicle_id is not None:
            where.append(f"vehicle {self.vehicle_id}")
        if self.rider_id is not None:
            where.append(f"rider {self.rider_id}")
        if self.stop_index is not None:
            where.append(f"stop {self.stop_index}")
        prefix = f"[{self.kind.value}]"
        if where:
            prefix += " " + ", ".join(where) + ":"
        return f"{prefix} {self.detail}"


class ValidationError(AssertionError):
    """Raised by :meth:`ValidationReport.raise_if_invalid` on a report with
    violations."""

    def __init__(self, report: "ValidationReport") -> None:
        self.report = report
        super().__init__(report.summary())


@dataclass
class ValidationReport:
    """Outcome of an independent validation pass."""

    violations: List[Violation] = field(default_factory=list)
    num_schedules: int = 0
    num_stops: int = 0
    recomputed_utility: float = 0.0
    claimed_utility: float = 0.0
    per_vehicle_utility: Dict[int, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> Set[ViolationKind]:
        return {v.kind for v in self.violations}

    def of_kind(self, kind: ViolationKind) -> List[Violation]:
        return [v for v in self.violations if v.kind is kind]

    def summary(self, limit: int = 10) -> str:
        if self.ok:
            return (
                f"valid: {self.num_schedules} schedules, {self.num_stops} "
                f"stops, utility {self.recomputed_utility:.6f}"
            )
        lines = [
            f"{len(self.violations)} violation(s) across "
            f"{self.num_schedules} schedules:"
        ]
        lines += [f"  {v}" for v in self.violations[:limit]]
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise ValidationError(self)


# ----------------------------------------------------------------------
# independent re-derivations (no imports from schedule.py / utility.py)
# ----------------------------------------------------------------------
def _logistic_trajectory(sigma: float) -> float:
    """Eq. 5 re-stated: ``2 / (1 + exp(sigma - 1))`` with overflow guard."""
    return 2.0 / (1.0 + math.exp(min(sigma - 1.0, 700.0)))


@dataclass
class _Walk:
    """The validator's own forward walk of one schedule."""

    arrivals: List[float]
    leg_costs: List[float]
    onboard_during: List[Set[int]]  # rider ids riding leg j (before stop j)
    pickup_index: Dict[int, int]
    dropoff_index: Dict[int, int]


def _walk_schedule(
    instance: URRInstance,
    vehicle_id: int,
    seq: TransferSequence,
    out: List[Violation],
) -> _Walk:
    """Re-walk a schedule with fresh oracle calls, recording violations.

    Checks order (pickup before drop-off, no duplicates, every pickup
    delivered), per-leg capacity against the *instance* vehicle, deadline
    feasibility at every stop against the *instance* rider, and that each
    stop's location matches the rider's request.  Nothing cached by the
    sequence is trusted except the stop list itself and the vehicle state
    (origin / start time / capacity), which is cross-checked against the
    instance separately.
    """
    oracle = instance.oracle
    assert oracle is not None
    vehicle = instance.vehicle(vehicle_id)
    # riders the vehicle carried in from an earlier dispatch frame: their
    # stops are legal even though they are not in this frame's requests
    carried_ids = vehicle.committed_rider_ids()

    arrivals: List[float] = []
    leg_costs: List[float] = []
    onboard_during: List[Set[int]] = []
    pickup_index: Dict[int, int] = {}
    dropoff_index: Dict[int, int] = {}

    onboard: Set[int] = set(seq.initial_onboard)
    location = seq.origin
    clock = seq.start_time
    for idx, stop in enumerate(seq.stops):
        rid = stop.rider.rider_id
        rider = instance._riders_by_id.get(rid)
        if rider is None:
            if rid in carried_ids:
                # a carried-over rider (onboard or committed last frame);
                # its request data travels with the stop
                rider = stop.rider
            else:
                out.append(
                    Violation(
                        ViolationKind.MALFORMED_STOP,
                        f"stop references rider {rid} not in the instance",
                        vehicle_id=vehicle_id,
                        rider_id=rid,
                        stop_index=idx,
                    )
                )
                rider = stop.rider  # keep walking with the stop's own data

        # the leg to this stop carries the current onboard set
        onboard_during.append(set(onboard))
        if len(onboard) > vehicle.capacity:
            out.append(
                Violation(
                    ViolationKind.CAPACITY_EXCEEDED,
                    f"{len(onboard)} riders onboard during leg {idx} "
                    f"(capacity {vehicle.capacity})",
                    vehicle_id=vehicle_id,
                    stop_index=idx,
                )
            )
        leg = oracle.cost(location, stop.location)
        if not math.isfinite(leg):
            out.append(
                Violation(
                    ViolationKind.MALFORMED_STOP,
                    f"stop at node {stop.location} unreachable from {location}",
                    vehicle_id=vehicle_id,
                    rider_id=rid,
                    stop_index=idx,
                )
            )
        clock += leg
        location = stop.location
        arrivals.append(clock)
        leg_costs.append(leg)

        if stop.kind is StopKind.PICKUP:
            if stop.location != rider.source:
                out.append(
                    Violation(
                        ViolationKind.MALFORMED_STOP,
                        f"pickup at node {stop.location} but rider requests "
                        f"source {rider.source}",
                        vehicle_id=vehicle_id,
                        rider_id=rid,
                        stop_index=idx,
                    )
                )
            if rid in pickup_index or rid in seq.initial_onboard:
                out.append(
                    Violation(
                        ViolationKind.ORDER_VIOLATION,
                        "rider picked up twice",
                        vehicle_id=vehicle_id,
                        rider_id=rid,
                        stop_index=idx,
                    )
                )
            else:
                pickup_index[rid] = idx
            deadline = rider.pickup_deadline
            onboard.add(rid)
        else:
            if stop.location != rider.destination:
                out.append(
                    Violation(
                        ViolationKind.MALFORMED_STOP,
                        f"drop-off at node {stop.location} but rider requests "
                        f"destination {rider.destination}",
                        vehicle_id=vehicle_id,
                        rider_id=rid,
                        stop_index=idx,
                    )
                )
            if rid in dropoff_index:
                out.append(
                    Violation(
                        ViolationKind.ORDER_VIOLATION,
                        "rider dropped off twice",
                        vehicle_id=vehicle_id,
                        rider_id=rid,
                        stop_index=idx,
                    )
                )
            elif rid not in pickup_index and rid not in seq.initial_onboard:
                out.append(
                    Violation(
                        ViolationKind.ORDER_VIOLATION,
                        "rider dropped off before any pickup",
                        vehicle_id=vehicle_id,
                        rider_id=rid,
                        stop_index=idx,
                    )
                )
            else:
                dropoff_index[rid] = idx
            deadline = rider.dropoff_deadline
            onboard.discard(rid)

        if clock > deadline + TIME_EPS:
            out.append(
                Violation(
                    ViolationKind.DEADLINE_MISSED,
                    f"arrives at {clock:.6f}, deadline {deadline:.6f} "
                    f"({stop.kind.value})",
                    vehicle_id=vehicle_id,
                    rider_id=rid,
                    stop_index=idx,
                )
            )

    undelivered = (set(pickup_index) | set(seq.initial_onboard)) - set(dropoff_index)
    for rid in sorted(undelivered):
        out.append(
            Violation(
                ViolationKind.ORDER_VIOLATION,
                "rider picked up but never dropped off",
                vehicle_id=vehicle_id,
                rider_id=rid,
            )
        )
    return _Walk(
        arrivals=arrivals,
        leg_costs=leg_costs,
        onboard_during=onboard_during,
        pickup_index=pickup_index,
        dropoff_index=dropoff_index,
    )


def _audit_event_fields(
    instance: URRInstance,
    vehicle_id: int,
    seq: TransferSequence,
    walk: _Walk,
    out: List[Violation],
) -> None:
    """Cross-check the sequence's incremental arrays against a re-derivation.

    Re-derives Eq. 6 (earliest arrivals, already in ``walk``), Eq. 7
    (latest completions, backward recurrence
    ``t^+_j = min(dl(l_j), t^+_{j+1} - c_{j+1})``) and Eq. 8 (flexible
    times, suffix minimum of ``t^+ - t^-``) and compares them with the
    arrays maintained incrementally by ``TransferSequence._recompute`` and
    the zero-copy insertion shifts.
    """
    n = len(seq.stops)
    if n == 0:
        return

    def mismatch(name: str, j: int, got: float, want: float) -> None:
        out.append(
            Violation(
                ViolationKind.EVENT_FIELD_MISMATCH,
                f"{name}[{j}] = {got!r}, independent re-derivation gives {want!r}",
                vehicle_id=vehicle_id,
                stop_index=j,
            )
        )

    deadlines: List[float] = []
    for stop in seq.stops:
        rider = instance._riders_by_id.get(stop.rider.rider_id, stop.rider)
        deadlines.append(
            rider.pickup_deadline
            if stop.kind is StopKind.PICKUP
            else rider.dropoff_deadline
        )

    latest = [0.0] * n
    flexible = [0.0] * n
    latest[n - 1] = deadlines[n - 1]
    flexible[n - 1] = latest[n - 1] - walk.arrivals[n - 1]
    for j in range(n - 2, -1, -1):
        latest[j] = min(deadlines[j], latest[j + 1] - walk.leg_costs[j + 1])
        flexible[j] = min(flexible[j + 1], latest[j] - walk.arrivals[j])

    loads = [len(members) for members in walk.onboard_during]

    for j in range(n):
        if abs(seq.arrive[j] - walk.arrivals[j]) > FIELD_EPS:
            mismatch("arrive", j, seq.arrive[j], walk.arrivals[j])
        if abs(seq.leg_costs[j] - walk.leg_costs[j]) > FIELD_EPS:
            mismatch("leg_costs", j, seq.leg_costs[j], walk.leg_costs[j])
        if abs(seq.latest[j] - latest[j]) > FIELD_EPS:
            mismatch("latest", j, seq.latest[j], latest[j])
        if abs(seq.flexible[j] - flexible[j]) > FIELD_EPS:
            mismatch("flexible", j, seq.flexible[j], flexible[j])
        if seq.load_before[j] != loads[j]:
            mismatch("load_before", j, seq.load_before[j], loads[j])


def _rederive_utility(
    instance: URRInstance,
    vehicle_id: int,
    seq: TransferSequence,
    walk: _Walk,
    out: List[Violation],
) -> float:
    """Re-derive ``mu(S_j)`` (Eq. 1–5) from the validator's own walk.

    For each rider picked up in the schedule: onboard legs are events
    ``pickup+1 .. dropoff``; Eq. 4's numerator is the sum of their fresh
    leg costs; Eq. 2 is the cost-weighted mean of the mean similarity to
    the leg's co-riders; Eq. 5 is the logistic re-stated locally.  The
    result is compared against the production ``UtilityModel`` value and
    any disagreement is reported as a :class:`UTILITY_MISMATCH`.
    """
    alpha, beta = instance.alpha, instance.beta
    gamma = 1.0 - alpha - beta
    vehicle = instance.vehicle(vehicle_id)
    oracle = instance.oracle
    assert oracle is not None

    total = 0.0
    for rid, p in walk.pickup_index.items():
        d = walk.dropoff_index.get(rid)
        if d is None:
            continue  # already reported as an order violation
        # carried-over riders (committed in an earlier frame) are not in
        # this frame's requests but still count towards the objective —
        # exactly as the production model counts every pickup in the
        # schedule; their request data travels with the stop
        rider = instance._riders_by_id.get(rid, seq.stops[p].rider)
        legs = range(p + 1, d + 1)
        ride_cost = sum(walk.leg_costs[j] for j in legs)

        mu_v = instance.vehicle_utility(rider, vehicle)
        mu_r = 0.0
        if ride_cost > 0.0:
            acc = 0.0
            for j in legs:
                co = walk.onboard_during[j] - {rid}
                if not co or walk.leg_costs[j] == 0.0:
                    continue
                mean_sim = sum(
                    instance.similarity(rid, other) for other in co
                ) / len(co)
                acc += walk.leg_costs[j] * mean_sim
            mu_r = acc / ride_cost
        shortest = oracle.cost(rider.source, rider.destination)
        if shortest <= 0 or not math.isfinite(shortest):
            out.append(
                Violation(
                    ViolationKind.MALFORMED_STOP,
                    f"degenerate request: shortest cost {shortest!r} from "
                    f"{rider.source} to {rider.destination}",
                    vehicle_id=vehicle_id,
                    rider_id=rid,
                )
            )
            continue
        mu_t = _logistic_trajectory(max(ride_cost / shortest, 1.0))
        total += alpha * mu_v + beta * mu_r + gamma * mu_t
    return total


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def validate_schedule(
    instance: URRInstance,
    vehicle_id: int,
    seq: TransferSequence,
    audit_event_fields: bool = True,
) -> ValidationReport:
    """Independently validate one vehicle schedule.

    The single-schedule unit behind :func:`validate_assignment`.  Utility
    is re-derived but only cross-checked at the assignment level (a lone
    schedule has no claimed objective).
    """
    report = ValidationReport(num_schedules=1, num_stops=len(seq.stops))
    violations = report.violations
    vehicle = instance.vehicle(vehicle_id)

    if seq.capacity != vehicle.capacity:
        violations.append(
            Violation(
                ViolationKind.VEHICLE_STATE_MISMATCH,
                f"schedule capacity {seq.capacity} != vehicle capacity "
                f"{vehicle.capacity}",
                vehicle_id=vehicle_id,
            )
        )
    if seq.origin != vehicle.location:
        violations.append(
            Violation(
                ViolationKind.VEHICLE_STATE_MISMATCH,
                f"schedule origin {seq.origin} != vehicle location "
                f"{vehicle.location}",
                vehicle_id=vehicle_id,
            )
        )
    # the effective start is per-vehicle: a carried-over vehicle is only
    # plannable from the completion of its in-flight leg (``ready_time``),
    # never from a location before it actually arrives there
    effective_start = instance.start_time
    if vehicle.ready_time is not None and vehicle.ready_time > effective_start:
        effective_start = vehicle.ready_time
    if abs(seq.start_time - effective_start) > TIME_EPS:
        violations.append(
            Violation(
                ViolationKind.VEHICLE_STATE_MISMATCH,
                f"schedule start time {seq.start_time} != vehicle's "
                f"effective start time {effective_start} "
                f"(instance start {instance.start_time}, vehicle ready "
                f"{vehicle.ready_time})",
                vehicle_id=vehicle_id,
            )
        )

    onboard_ids = {r.rider_id for r in vehicle.onboard}
    if seq.initial_onboard != onboard_ids:
        violations.append(
            Violation(
                ViolationKind.COMMITMENT_DROPPED,
                f"schedule onboard set {sorted(seq.initial_onboard)} != "
                f"vehicle's carried onboard riders {sorted(onboard_ids)}",
                vehicle_id=vehicle_id,
            )
        )
    # every committed stop must survive, in order, in the new schedule
    pos = 0
    chain = vehicle.committed_stops
    for stop in seq.stops:
        if pos < len(chain) and stop == chain[pos]:
            pos += 1
    if pos < len(chain):
        missing = chain[pos]
        violations.append(
            Violation(
                ViolationKind.COMMITMENT_DROPPED,
                f"committed stop {missing!r} dropped or reordered "
                f"({pos}/{len(chain)} commitments honoured)",
                vehicle_id=vehicle_id,
                rider_id=missing.rider.rider_id,
            )
        )

    walk = _walk_schedule(instance, vehicle_id, seq, violations)
    if audit_event_fields:
        _audit_event_fields(instance, vehicle_id, seq, walk, violations)
    report.per_vehicle_utility[vehicle_id] = _rederive_utility(
        instance, vehicle_id, seq, walk, violations
    )
    report.recomputed_utility = report.per_vehicle_utility[vehicle_id]

    VALIDATION_STATS.schedules += 1
    VALIDATION_STATS.stops += len(seq.stops)
    VALIDATION_STATS.violations += len(violations)
    return report


def validate_assignment(
    instance: URRInstance,
    assignment: Assignment,
    claimed_utility: Optional[float] = None,
    audit_event_fields: bool = True,
) -> ValidationReport:
    """Independently validate a full assignment against its instance.

    Parameters
    ----------
    instance:
        The problem instance the assignment claims to solve.
    assignment:
        Any solver's output.
    claimed_utility:
        The objective value the caller believes the assignment achieves;
        defaults to ``assignment.total_utility()`` (i.e. the production
        utility model's answer), so by default the validator cross-checks
        the fast single-pass ``schedule_utility`` against its own
        per-rider Eq. 1–5 re-derivation.
    audit_event_fields:
        Also compare the schedules' incremental ``arrive`` / ``latest`` /
        ``flexible`` / ``load_before`` arrays against an independent
        re-derivation (catches engine algebra bugs that happen to produce
        feasible schedules).

    Returns
    -------
    ValidationReport
        With every violation found; ``report.ok`` means the assignment
        demonstrably satisfies Definitions 1–4.
    """
    with _trace.span(
        "check.validate_assignment", schedules=len(assignment.schedules)
    ) as vspan:
        report = _validate_assignment_impl(
            instance, assignment, claimed_utility, audit_event_fields
        )
        vspan.annotate(violations=len(report.violations))
    return report


def _validate_assignment_impl(
    instance: URRInstance,
    assignment: Assignment,
    claimed_utility: Optional[float],
    audit_event_fields: bool,
) -> ValidationReport:
    report = ValidationReport()
    violations = report.violations

    served_by: Dict[int, int] = {}
    model = instance.utility_model()
    recomputed_total = 0.0
    production_total = 0.0
    counted = 0  # violations already tallied by validate_schedule
    for vehicle_id, seq in assignment.schedules.items():
        if vehicle_id not in instance._vehicles_by_id:
            violations.append(
                Violation(
                    ViolationKind.VEHICLE_STATE_MISMATCH,
                    "assignment contains a vehicle not in the instance",
                    vehicle_id=vehicle_id,
                )
            )
            continue
        sub = validate_schedule(
            instance, vehicle_id, seq, audit_event_fields=audit_event_fields
        )
        violations.extend(sub.violations)
        counted += len(sub.violations)
        report.num_schedules += 1
        report.num_stops += sub.num_stops
        vehicle_utility = sub.per_vehicle_utility[vehicle_id]
        report.per_vehicle_utility[vehicle_id] = vehicle_utility
        recomputed_total += vehicle_utility
        production_total += model.schedule_utility(
            instance.vehicle(vehicle_id), seq
        )

        for stop in seq.stops:
            if stop.kind is not StopKind.PICKUP:
                continue
            rid = stop.rider.rider_id
            if rid in served_by and served_by[rid] != vehicle_id:
                violations.append(
                    Violation(
                        ViolationKind.DUPLICATE_ASSIGNMENT,
                        f"rider served by vehicles {served_by[rid]} and "
                        f"{vehicle_id}",
                        vehicle_id=vehicle_id,
                        rider_id=rid,
                    )
                )
            served_by.setdefault(rid, vehicle_id)

    report.recomputed_utility = recomputed_total
    report.claimed_utility = (
        claimed_utility if claimed_utility is not None else production_total
    )

    if abs(production_total - recomputed_total) > UTILITY_EPS:
        violations.append(
            Violation(
                ViolationKind.UTILITY_MISMATCH,
                f"production utility model reports {production_total:.9f}, "
                f"independent Eq. 1-5 re-derivation gives "
                f"{recomputed_total:.9f}",
            )
        )
    if abs(report.claimed_utility - recomputed_total) > UTILITY_EPS:
        violations.append(
            Violation(
                ViolationKind.UTILITY_MISMATCH,
                f"claimed objective {report.claimed_utility:.9f} != "
                f"re-derived objective {recomputed_total:.9f}",
            )
        )

    VALIDATION_STATS.assignments += 1
    # schedule-level violations were tallied by validate_schedule; only the
    # assignment-level ones found here still need counting
    VALIDATION_STATS.violations += len(violations) - counted
    return report


def validate_fleet_state(
    fleet: Iterable[Any],
    clock: float,
    oracle: Optional[Any] = None,
) -> ValidationReport:
    """Independently audit carried-over fleet state between frames.

    Operates on the dispatcher's fleet values (frozen
    :class:`~repro.core.vehicles.Vehicle` objects) or anything shaped like
    them (``vehicle_id`` / ``location`` / ``capacity`` / ``ready_time`` /
    ``onboard`` / ``committed_stops``), and re-derives every rule itself
    instead of trusting ``Vehicle.__post_init__``: corrupt state is
    reported as violations.  The chaos fuzzer runs this after every
    disruption injection, and a restore before it replays any frame.

    Checks per vehicle: onboard uniqueness and capacity, the structural
    pickup/drop-off pairing rules of the residual chain, the load along
    the chain, and — when an ``oracle`` is supplied — that walking the
    chain from the anchor at ``max(clock, ready_time)`` meets every
    stop's deadline (i.e. the promises are still keepable).
    """
    report = ValidationReport()
    violations = report.violations
    for fv in fleet:
        vid = fv.vehicle_id
        report.num_schedules += 1
        report.num_stops += len(fv.committed_stops)
        onboard_ids = [r.rider_id for r in fv.onboard]
        onboard_set = set(onboard_ids)
        if len(onboard_set) != len(onboard_ids):
            violations.append(
                Violation(
                    ViolationKind.VEHICLE_STATE_MISMATCH,
                    "duplicate onboard rider ids",
                    vehicle_id=vid,
                )
            )
        if len(fv.onboard) > fv.capacity:
            violations.append(
                Violation(
                    ViolationKind.CAPACITY_EXCEEDED,
                    f"{len(fv.onboard)} riders onboard exceed capacity "
                    f"{fv.capacity}",
                    vehicle_id=vid,
                )
            )
        if fv.ready_time is not None and fv.ready_time < clock - TIME_EPS:
            violations.append(
                Violation(
                    ViolationKind.VEHICLE_STATE_MISMATCH,
                    f"ready_time {fv.ready_time:g} behind the clock "
                    f"{clock:g} (should have been cleared)",
                    vehicle_id=vid,
                )
            )
        picked: Set[int] = set()
        dropped: Set[int] = set()
        load = len(onboard_set)
        for i, stop in enumerate(fv.committed_stops):
            rid = stop.rider.rider_id
            if stop.kind is StopKind.PICKUP:
                if rid in onboard_set or rid in picked:
                    violations.append(
                        Violation(
                            ViolationKind.ORDER_VIOLATION,
                            "pickup of a rider already in the car",
                            vehicle_id=vid, rider_id=rid, stop_index=i,
                        )
                    )
                picked.add(rid)
                load += 1
                if load > fv.capacity:
                    violations.append(
                        Violation(
                            ViolationKind.CAPACITY_EXCEEDED,
                            f"load {load} exceeds capacity {fv.capacity} "
                            f"after committed stop {i}",
                            vehicle_id=vid, rider_id=rid, stop_index=i,
                        )
                    )
            else:
                if rid not in onboard_set and rid not in picked:
                    violations.append(
                        Violation(
                            ViolationKind.ORDER_VIOLATION,
                            "drop-off precedes any pickup and the rider "
                            "is not onboard",
                            vehicle_id=vid, rider_id=rid, stop_index=i,
                        )
                    )
                if rid in dropped:
                    violations.append(
                        Violation(
                            ViolationKind.ORDER_VIOLATION,
                            "rider dropped off twice",
                            vehicle_id=vid, rider_id=rid, stop_index=i,
                        )
                    )
                dropped.add(rid)
                load -= 1
        missing = (onboard_set | picked) - dropped
        for rid in sorted(missing):
            violations.append(
                Violation(
                    ViolationKind.COMMITMENT_DROPPED,
                    "carried rider has no committed drop-off",
                    vehicle_id=vid, rider_id=rid,
                )
            )
        if oracle is not None:
            start = max(
                clock, fv.ready_time if fv.ready_time is not None else clock
            )
            time_at = start
            location = fv.location
            for i, stop in enumerate(fv.committed_stops):
                leg = oracle.cost(location, stop.location)
                time_at += leg
                location = stop.location
                if not math.isfinite(time_at):
                    violations.append(
                        Violation(
                            ViolationKind.DEADLINE_MISSED,
                            "committed stop unreachable from the anchor",
                            vehicle_id=vid,
                            rider_id=stop.rider.rider_id,
                            stop_index=i,
                        )
                    )
                    break
                if time_at > stop.deadline + TIME_EPS:
                    violations.append(
                        Violation(
                            ViolationKind.DEADLINE_MISSED,
                            f"arrival {time_at:.6f} misses committed "
                            f"deadline {stop.deadline:.6f}",
                            vehicle_id=vid,
                            rider_id=stop.rider.rider_id,
                            stop_index=i,
                        )
                    )
    VALIDATION_STATS.schedules += report.num_schedules
    VALIDATION_STATS.stops += report.num_stops
    VALIDATION_STATS.violations += len(violations)
    return report
