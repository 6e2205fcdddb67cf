"""Single-rider insertion (Section 3): Lemma 3.1/3.2 + Algorithm 1.

Given a vehicle's existing transfer sequence, find where to insert a new
rider's pickup and drop-off so that the **incremental travel cost is
minimal** while the sequence stays valid, *without reordering existing
stops* (the paper's standing assumption, justified by [25]).

Position convention: inserting at position ``p`` makes the new stop
``stops[p]``; this splits transfer event ``p`` (the leg ending at the old
``stops[p]``) into two.  ``p == len(stops)`` appends a new tail event.  The
drop-off position is expressed on the pickup-augmented sequence (so
``dropoff_position > pickup_position`` always).

Checked conditions per Lemma 3.1 (with the arrival check strengthened to
``earliest_start + cost(l^-, x) <= dl(x)``, which implies the paper's
conditions a and b and is what validity actually requires):

- arrival feasibility at the inserted location,
- detour within the event's flexible time (condition c) — not applicable to
  appends, which have no subsequent events,
- capacity (condition d) — checked per-event for the pickup and along the
  whole pickup→drop-off span when the pair is combined.

Two implementations of Algorithm 1 live here:

- :func:`plan_insertion` / :func:`arrange_single_rider` — the **zero-copy
  fast path**.  Every (pickup, drop-off) candidate pair is evaluated
  analytically against the existing ``arrive`` / ``latest`` / ``flexible`` /
  ``load_before`` arrays: inserting the pickup at ``p`` with detour ``Δs``
  shifts every later arrival by ``Δs``, shifts every later flexible time by
  ``-Δs``, and raises every later load by one, so the Lemma 3.1 conditions
  for the drop-off are plain array reads plus at most three oracle calls
  per position.  No trial sequence is ever built; the winning pair is
  materialised exactly once (one ``_recompute``).
- :func:`arrange_single_rider_reference` — the original copy-and-recompute
  implementation (one full sequence copy + O(n) recompute per candidate
  pickup position).  Kept as the executable specification: a property test
  checks the fast path against it, result-for-result, on randomized
  schedules, and ``benchmarks/bench_insertion_engine.py`` measures the
  speedup between the two.

The search follows Algorithm 1: candidates sorted by incremental cost with
early termination on both loops, and Lemma 3.2's earliest-start-time cut-off
while collecting candidates.  One deliberate deviation, recorded in
DESIGN.md: drop-off candidates are derived on the (virtual) pickup-augmented
sequence instead of patched from the pre-insertion list — same optimum, same
``O(n^2)`` bound, simpler invariants (and it naturally covers the "both
stops in the same original event" case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.requests import Rider
from repro.core.schedule import Stop, TransferSequence
from repro.obs import trace as _trace
from repro.perf import INSERTION_STATS

INF = float("inf")
_EPS = 1e-9


@dataclass(frozen=True)
class InsertionCandidate:
    """A valid single-location insertion position with its cost increase."""

    position: int
    delta_cost: float


@dataclass(frozen=True)
class InsertionPlan:
    """A planned (pickup, drop-off) insertion, not yet materialised.

    ``dropoff_position`` is an index on the pickup-augmented sequence,
    matching :class:`InsertionResult`.
    """

    pickup_position: int
    dropoff_position: int
    delta_cost: float
    pickup_delta: float
    dropoff_delta: float


class InsertionResult:
    """Outcome of :func:`arrange_single_rider`.

    Results from the fast path defer building the new sequence until
    ``sequence`` is first read (utility-blind callers like CF's ranking
    phase never pay for materialisation); the reference path constructs it
    eagerly.  Either way the arrays of ``sequence`` come from one real
    ``_recompute`` and are identical between the two paths.
    """

    __slots__ = (
        "pickup_position",
        "dropoff_position",
        "delta_cost",
        "_sequence",
        "_base",
        "_rider",
    )

    def __init__(
        self,
        sequence: Optional[TransferSequence],
        pickup_position: int,
        dropoff_position: int,
        delta_cost: float,
    ) -> None:
        self._sequence = sequence
        self.pickup_position = pickup_position
        self.dropoff_position = dropoff_position
        self.delta_cost = delta_cost
        self._base: Optional[TransferSequence] = None
        self._rider: Optional[Rider] = None

    @classmethod
    def deferred(
        cls, base: TransferSequence, rider: Rider, plan: "InsertionPlan"
    ) -> "InsertionResult":
        result = cls(
            None, plan.pickup_position, plan.dropoff_position, plan.delta_cost
        )
        result._base = base
        result._rider = rider
        return result

    @property
    def sequence(self) -> TransferSequence:
        if self._sequence is None:
            INSERTION_STATS.materializations += 1
            # detail-gated: one instant per materialisation is too chatty
            # for normal traces but invaluable when profiling the engine
            tracer = _trace.current()
            if tracer is not None and tracer.detail:
                tracer.instant(
                    "insertion.materialize",
                    rider=self._rider.rider_id,
                    pickup=self.pickup_position,
                    dropoff=self.dropoff_position,
                    delta=self.delta_cost,
                )
            new_stops = list(self._base.stops)
            new_stops.insert(self.pickup_position, Stop.pickup(self._rider))
            new_stops.insert(self.dropoff_position, Stop.dropoff(self._rider))
            self._sequence = self._base.with_stops(new_stops)
            self._base = None
            self._rider = None
        return self._sequence

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "materialised" if self._sequence is not None else "deferred"
        return (
            f"InsertionResult(pickup={self.pickup_position}, "
            f"dropoff={self.dropoff_position}, delta={self.delta_cost:g}, "
            f"{state})"
        )


def valid_insertions(
    sequence: TransferSequence,
    location: int,
    deadline: float,
    count_capacity: bool,
    min_position: int = 0,
) -> List[InsertionCandidate]:
    """All valid positions to insert one location (Lemma 3.1 + 3.2).

    Parameters
    ----------
    sequence:
        The transfer sequence to insert into.
    location:
        The node to visit (``s_i`` or ``e_i``).
    deadline:
        ``dl(x)`` — the deadline for reaching the location.
    count_capacity:
        True for pickups: the vehicle gains a rider at this stop, so the
        split event must have spare capacity (condition d).
    min_position:
        Only positions ``>= min_position`` are considered (used to force
        the drop-off after the pickup).
    """
    cost = sequence.cost
    n = len(sequence)
    candidates: List[InsertionCandidate] = []
    for p in range(max(min_position, 0), n + 1):
        earliest_start = sequence.earliest_start(p) if p < n else (
            sequence.arrive[n - 1] if n else sequence.start_time
        )
        # Lemma 3.2: earliest starts are non-decreasing along the sequence,
        # so once one exceeds the deadline no later position can be valid.
        if earliest_start > deadline + _EPS:
            break
        start_loc = sequence.origin if p == 0 else sequence.stops[p - 1].location
        to_x = cost(start_loc, location)
        if earliest_start + to_x > deadline + _EPS:
            continue  # cannot reach the location in time via this event
        if p < n:
            end_loc = sequence.stops[p].location
            delta = to_x + cost(location, end_loc) - cost(start_loc, end_loc)
            if delta > sequence.flexible[p] + _EPS:
                continue  # condition c: detour exceeds the flexible time
            if count_capacity and sequence.load_before[p] + 1 > sequence.capacity:
                continue  # condition d
        else:
            delta = to_x
            # load_end counts initial-onboard riders, so the check matters
            # even for an empty stop list (carried-over vehicles)
            if count_capacity and sequence.load_end + 1 > sequence.capacity:
                continue
        candidates.append(InsertionCandidate(position=p, delta_cost=delta))
    return candidates


def plan_insertion(
    sequence: TransferSequence, rider: Rider
) -> Optional[InsertionPlan]:
    """Algorithm 1 without materialisation: the zero-copy fast path.

    Evaluates every candidate (pickup, drop-off) pair analytically against
    the existing event arrays and returns the minimum-incremental-cost plan,
    or ``None`` when no valid insertion exists.  The input sequence is
    read-only; nothing is copied or recomputed.
    """
    INSERTION_STATS.plans += 1
    cost = sequence.cost
    stops = sequence.stops
    n = len(stops)
    arrive = sequence.arrive
    flexible = sequence.flexible
    load_before = sequence.load_before
    leg_costs = sequence.leg_costs
    capacity = sequence.capacity
    load_end = sequence.load_end
    origin = sequence.origin
    start_time = sequence.start_time
    source = rider.source
    pickup_deadline = rider.pickup_deadline
    destination = rider.destination
    dropoff_deadline = rider.dropoff_deadline

    # ------------------------------------------------------------------
    # pickup candidates (Lemma 3.1 + 3.2), identical to valid_insertions
    # with count_capacity=True; additionally remember the pickup arrival
    # and the split-leg cost cost(s, stops[p]) for the drop-off scan.
    # ------------------------------------------------------------------
    pd_eps = pickup_deadline + _EPS
    dd_eps = dropoff_deadline + _EPS
    pickups: List[tuple] = []  # (delta_s, p, arrive_at_source, source_to_next)
    for p in range(n + 1):
        earliest_start = arrive[p - 1] if p else start_time
        if earliest_start > pd_eps:
            break
        start_loc = origin if p == 0 else stops[p - 1].location
        to_s = cost(start_loc, source)
        if earliest_start + to_s > pd_eps:
            continue
        if p < n:
            s_to_next = cost(source, stops[p].location)
            delta_s = to_s + s_to_next - leg_costs[p]
            if delta_s > flexible[p] + _EPS:
                continue
            if load_before[p] + 1 > capacity:
                continue
        else:
            s_to_next = 0.0
            delta_s = to_s
            if load_end + 1 > capacity:
                continue
        pickups.append((delta_s, p, earliest_start + to_s, s_to_next))
    if not pickups:
        return None
    pickups.sort()

    # ------------------------------------------------------------------
    # Algorithm 1's double loop, sorted + early-terminated.  The trial
    # sequence (pickup inserted at p) is never built; its fields follow
    # from the originals:
    #   trial.arrive[j]      = arrive[j-1] + delta_s   (j > p; = A_s at p)
    #   trial.latest[j]      = latest[j-1]             (j > p)
    #   trial.flexible[j]    = flexible[j-1] - delta_s (j > p)
    #   trial.load_before[j] = load_before[j-1] + 1    (j > p)
    #   trial.leg_costs[p+1] = cost(s, stops[p])       (old leg otherwise)
    # ------------------------------------------------------------------
    best: Optional[InsertionPlan] = None
    best_delta = INF
    pairs_scanned = 0
    for delta_s, p, arrive_at_source, s_to_next in pickups:
        if delta_s >= best_delta - _EPS:
            break  # sorted: no later pickup candidate can win
        # Drop-off scan over trial positions q in p+1..n+1.  Selecting the
        # minimum (delta_e, q) among candidates with total < best_delta and
        # capacity holding on the whole span is exactly what iterating a
        # stably-sorted candidate list with the Algorithm 1 early breaks
        # selects — without building or sorting the list.
        best_e = INF
        best_q = -1
        budget = best_delta - _EPS  # a winning total must be below this
        for q in range(p + 1, n + 2):
            # capacity (condition d): the span p+1..q gains one rider, so
            # the first overloaded event invalidates every later q too
            load = load_before[q - 1] + 1 if q <= n else load_end + 1
            if load > capacity:
                break
            pairs_scanned += 1
            earliest_start = (
                arrive_at_source if q == p + 1 else arrive[q - 2] + delta_s
            )
            if earliest_start > dd_eps:
                break  # Lemma 3.2 on the trial sequence
            start_loc = source if q == p + 1 else stops[q - 2].location
            to_e = cost(start_loc, destination)
            if earliest_start + to_e > dd_eps:
                continue
            if q <= n:
                old_leg = s_to_next if q == p + 1 else leg_costs[q - 1]
                delta_e = to_e + cost(destination, stops[q - 1].location) - old_leg
                if delta_e > flexible[q - 1] - delta_s + _EPS:
                    continue  # condition c against the shifted flexible time
            else:
                delta_e = to_e
            if delta_s + delta_e >= budget:
                continue  # cannot beat the incumbent pair
            if delta_e < best_e:
                best_e = delta_e
                best_q = q
        if best_q < 0:
            continue
        best_delta = delta_s + best_e
        best = InsertionPlan(
            pickup_position=p,
            dropoff_position=best_q,
            delta_cost=best_delta,
            pickup_delta=delta_s,
            dropoff_delta=best_e,
        )
    INSERTION_STATS.pairs_evaluated += pairs_scanned
    return best


def arrange_single_rider(
    sequence: TransferSequence, rider: Rider
) -> Optional[InsertionResult]:
    """Algorithm 1 (ArrangeSingleRider), zero-copy fast path.

    Returns the minimum-incremental-cost valid insertion of ``rider`` into
    ``sequence`` (as a *new* sequence, materialised lazily on first
    ``.sequence`` access; the input is never mutated), or ``None`` when no
    valid insertion exists.
    """
    plan = plan_insertion(sequence, rider)
    if plan is None:
        return None
    return InsertionResult.deferred(sequence, rider, plan)


def arrange_single_rider_reference(
    sequence: TransferSequence, rider: Rider
) -> Optional[InsertionResult]:
    """Reference Algorithm 1: copy-and-recompute per candidate.

    The executable specification the fast path is property-tested against;
    every candidate pickup builds a full trial sequence (copy + recompute)
    and every improving drop-off builds another.  Do not use on hot paths.
    """
    INSERTION_STATS.reference_calls += 1
    pickups = valid_insertions(
        sequence, rider.source, rider.pickup_deadline, count_capacity=True
    )
    if not pickups:
        return None
    pickups.sort(key=lambda c: c.delta_cost)

    best: Optional[InsertionResult] = None
    best_delta = INF
    pickup_stop = Stop.pickup(rider)
    dropoff_stop = Stop.dropoff(rider)

    for cand_s in pickups:
        if cand_s.delta_cost >= best_delta - _EPS:
            break  # sorted: no later pickup candidate can win
        trial = sequence.copy()
        trial.insert_stop(cand_s.position, pickup_stop)
        dropoffs = valid_insertions(
            trial,
            rider.destination,
            rider.dropoff_deadline,
            count_capacity=False,
            min_position=cand_s.position + 1,
        )
        if not dropoffs:
            continue
        dropoffs.sort(key=lambda c: c.delta_cost)
        cap_ok = _capacity_span_flags(trial, cand_s.position)
        for cand_e in dropoffs:
            total = cand_s.delta_cost + cand_e.delta_cost
            if total >= best_delta - _EPS:
                break
            if not cap_ok[cand_e.position]:
                continue
            final = trial.copy()
            final.insert_stop(cand_e.position, dropoff_stop)
            best = InsertionResult(
                sequence=final,
                pickup_position=cand_s.position,
                dropoff_position=cand_e.position,
                delta_cost=total,
            )
            best_delta = total
            break  # dropoffs sorted: the first feasible one is the cheapest
    return best


def can_serve(sequence: TransferSequence, rider: Rider) -> bool:
    """True iff the rider has at least one valid (pickup, drop-off) pair.

    Plan-only: no sequence is ever materialised.
    """
    return plan_insertion(sequence, rider) is not None


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _capacity_span_flags(trial: TransferSequence, pickup_position: int) -> List[bool]:
    """For each drop-off position ``v`` in the trial sequence (pickup already
    inserted at ``pickup_position``), whether capacity holds on every event
    the new rider would ride (events ``pickup_position + 1 .. v``).

    In the trial sequence the new rider is counted onboard from the pickup
    stop to the end (no drop-off yet), so dropping at ``v`` is capacity-safe
    iff ``load_before[w] <= capacity`` for all events ``w`` in the span.
    ``loads[n]`` (the onboard count after the last trial stop) covers the
    append position.
    """
    n = len(trial)
    loads = list(trial.load_before) + [trial.load_end]
    flags = [False] * (n + 1)
    ok = True
    for v in range(pickup_position + 1, n + 1):
        ok = ok and loads[v] <= trial.capacity
        flags[v] = ok
    return flags
