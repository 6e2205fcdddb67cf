"""Reordering insertion (extension; Section 3 discussion).

The paper keeps existing schedules fixed when inserting a rider, citing
[25]'s finding that reordering costs much and gains little; [20] keeps a
tree of all valid orders instead.  To *test* that claim we provide the
optimal reordering insertion: given a schedule and a new rider, search all
valid stop orders of (existing stops + the rider's two stops) for the one
with minimum total travel cost.

The search enumerates interleavings with pickup-before-drop-off, deadline
and capacity pruning — exponential in the rider count, so it is guarded by
``max_stops``.  Used by ``benchmarks/bench_ablation_reorder.py``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.requests import Rider
from repro.core.schedule import Stop, StopKind, TransferSequence

_EPS = 1e-9


def arrange_single_rider_reordered(
    sequence: TransferSequence, rider: Rider, max_stops: int = 12
) -> Optional[TransferSequence]:
    """Min-travel-cost insertion of ``rider`` allowing full reordering.

    Existing riders keep being served (all current stops must appear), but
    their order may change.  Returns ``None`` when no valid order exists or
    the stop count exceeds ``max_stops``.

    Raises
    ------
    ValueError
        When the sequence carries initial-onboard riders (their drop-off
        order freedom is supported, but a pickup cannot be re-created).
    """
    stops = list(sequence.stops) + [Stop.pickup(rider), Stop.dropoff(rider)]
    if len(stops) > max_stops:
        return None

    pickups: List[Stop] = [s for s in stops if s.kind is StopKind.PICKUP]
    dropoffs = {s.rider.rider_id: s for s in stops if s.kind is StopKind.DROPOFF}
    onboard_dropoffs = [
        dropoffs[rid] for rid in sequence.initial_onboard if rid in dropoffs
    ]
    cost = sequence.cost
    capacity = sequence.capacity

    best_cost = float("inf")
    best_order: Optional[List[Stop]] = None
    order: List[Stop] = []

    def dfs(loc: int, time: float, onboard_ids: frozenset,
            todo_pick: Tuple[Stop, ...], todo_drop: Tuple[Stop, ...]) -> None:
        nonlocal best_cost, best_order
        if time - sequence.start_time >= best_cost - _EPS:
            return  # branch-and-bound on accumulated travel cost
        if not todo_pick and not todo_drop:
            total = time - sequence.start_time
            if total < best_cost:
                best_cost = total
                best_order = list(order)
            return
        for stop in todo_pick:
            if len(onboard_ids) >= capacity:
                break
            arrival = time + cost(loc, stop.location)
            if arrival > stop.deadline + _EPS:
                continue
            order.append(stop)
            dfs(
                stop.location,
                arrival,
                onboard_ids | {stop.rider.rider_id},
                tuple(s for s in todo_pick if s is not stop),
                todo_drop + (dropoffs[stop.rider.rider_id],),
            )
            order.pop()
        for stop in todo_drop:
            arrival = time + cost(loc, stop.location)
            if arrival > stop.deadline + _EPS:
                continue
            order.append(stop)
            dfs(
                stop.location,
                arrival,
                onboard_ids - {stop.rider.rider_id},
                todo_pick,
                tuple(s for s in todo_drop if s is not stop),
            )
            order.pop()

    dfs(
        sequence.origin,
        sequence.start_time,
        frozenset(sequence.initial_onboard),
        tuple(pickups),
        tuple(onboard_dropoffs),
    )
    if best_order is None:
        return None
    result = TransferSequence(
        origin=sequence.origin,
        start_time=sequence.start_time,
        capacity=capacity,
        cost=cost,
        stops=best_order,
        initial_onboard=[sequence.rider(rid) for rid in sequence.initial_onboard],
    )
    return result
