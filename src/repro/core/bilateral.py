"""Bilateral Arrangement approach, **BA** (Section 4, Algorithm 2).

BA arranges riders one at a time (in random order) and looks at both sides
of the market: each rider tries vehicles in descending order of the utility
they would gain there, and a full vehicle may **replace** an already
assigned rider when doing so *reduces the vehicle's travel cost and improves
the overall utility* — the replaced rider goes back into the pool and keeps
trying its remaining candidate vehicles.

Termination: every inner-loop iteration permanently removes the tried
vehicle from that rider's candidate list (Algorithm 2 line 9 removes
``c_j`` *before* testing), so the total size of all candidate lists strictly
decreases and the algorithm stops after at most ``sum_i |C_i|`` iterations.
This is the costly bookkeeping the paper blames for BA's slow-but-effective
profile — reproduced faithfully.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.insertion import (
    InsertionResult,
    arrange_single_rider,
    inserted_leg_costs,
)
from repro.core.requests import Rider
from repro.core.scoring import SolverState
from repro.core.vehicles import Vehicle

_EPS = 1e-9


def run_bilateral(
    state: SolverState,
    riders: Iterable[Rider],
    vehicles: Optional[List[Vehicle]] = None,
    rng: Optional[np.random.Generator] = None,
) -> None:
    """Run BA over the given riders, mutating ``state`` in place."""
    if vehicles is None:
        vehicles = state.instance.vehicles
    if rng is None:
        rng = state.instance.rng()
    vehicles_by_id = {v.vehicle_id: v for v in vehicles}

    pool: List[Rider] = list(riders)
    # per-rider candidate vehicle ids, shrinking monotonically (line 2)
    candidates: Dict[int, List[int]] = {
        r.rider_id: [
            v.vehicle_id for v in state.reachable_vehicles(r, vehicles)
        ]
        for r in pool
    }

    while pool:
        # line 4: randomly pick one rider
        idx = int(rng.integers(len(pool)))
        rider = pool.pop(idx)
        cand = candidates[rider.rider_id]
        while cand:
            # line 7: vehicle with the highest utility increase for r_i
            best_vid = _pick_best_vehicle(state, rider, cand, vehicles_by_id)
            cand.remove(best_vid)  # line 9 (removed before testing)
            vehicle = vehicles_by_id[best_vid]
            evaluation = state.evaluate(rider, vehicle)
            if evaluation is not None:
                state.commit(evaluation)  # lines 10-11
                break
            bumped = _try_replace(state, rider, vehicle)
            if bumped is not None:
                # lines 12-15: the replaced rider rejoins the pool
                if bumped.rider_id not in candidates:
                    # can happen under GBS: the victim was assigned while
                    # solving an earlier trip group
                    candidates[bumped.rider_id] = [
                        v.vehicle_id
                        for v in state.reachable_vehicles(bumped, vehicles)
                        if v.vehicle_id != vehicle.vehicle_id
                    ]
                pool.append(bumped)
                break


def _pick_best_vehicle(
    state: SolverState,
    rider: Rider,
    candidate_ids: List[int],
    vehicles_by_id: Dict[int, Vehicle],
) -> int:
    """The candidate vehicle with the highest utility increase for the rider.

    Feasible vehicles are ranked by the actual insertion's utility gain;
    infeasible ones by an optimistic bound (direct trip, full trajectory
    utility) so they are still tried — they may become feasible through the
    replace operation.
    """
    best_vid = candidate_ids[0]
    best_key: Tuple[int, float, float] = (-1, float("-inf"), float("-inf"))
    model = state.model
    for vid in candidate_ids:
        vehicle = vehicles_by_id[vid]
        evaluation = state.evaluate(rider, vehicle)
        if evaluation is not None:
            # feasible vehicles first, ranked by utility increase; among
            # near-equal gains prefer the cheaper insertion (the prose's
            # bilateral "suitable" Pareto condition)
            key = (1, evaluation.delta_utility, -evaluation.delta_cost)
        else:
            # infeasible now — may become feasible through replacement;
            # rank by the utility the rider would get if served directly
            optimistic = (
                model.alpha * state.instance.vehicle_utility(rider, vehicle)
                + (1.0 - model.alpha - model.beta) * 1.0
            )
            key = (0, optimistic, 0.0)
        if key > best_key:
            best_key = key
            best_vid = vid
    return best_vid


def _try_replace(
    state: SolverState, rider: Rider, vehicle: Vehicle
) -> Optional[Rider]:
    """BA's replace step (Algorithm 2 lines 12-15).

    Try removing each rider currently assigned to ``vehicle`` and inserting
    ``rider`` instead; accept the best swap that strictly reduces the
    vehicle's travel cost and strictly improves its schedule utility.
    Returns the replaced rider (to be re-pooled), or ``None``.  Riders
    committed in an earlier dispatch frame (and riders already in the car)
    are never considered as victims.
    """
    seq = state.schedule(vehicle.vehicle_id)
    old_cost = seq.total_cost
    old_utility = state.utility(vehicle.vehicle_id)
    best_gain = 0.0
    best: Optional[InsertionResult] = None
    best_bumped: Optional[Rider] = None
    for victim in seq.removable_riders():
        reduced = seq.without_rider(victim.rider_id)
        insertion = arrange_single_rider(reduced, rider)
        if insertion is None:
            continue
        # the new sequence's total cost, summed as its _recompute would
        t = reduced.start_time
        for leg in inserted_leg_costs(reduced, rider, insertion):
            t += leg
        if t - reduced.start_time >= old_cost - _EPS:
            continue  # must reduce the travel cost
        new_utility = state.model.insertion_utility(vehicle, reduced, rider, insertion)
        gain = new_utility - old_utility
        if gain <= _EPS:
            continue  # must improve the overall utility
        if gain > best_gain:
            best_gain = gain
            best = insertion
            best_bumped = victim
    if best is None:
        return None
    state.replace_schedule(vehicle.vehicle_id, best.sequence)
    return best_bumped
