"""The URR utility model (Section 2.4, Eq. 1–5).

``mu(r_i, c_j) = alpha * mu_v + beta * mu_r + (1 - alpha - beta) * mu_t``

- **vehicle-related** ``mu_v`` — a preference lookup in ``[0, 1]``;
- **rider-related** ``mu_r`` — Eq. 2: over the rider's onboard legs, the
  cost-weighted mean of the average social similarity to co-riders;
- **trajectory-related** ``mu_t`` — Eq. 5: ``2 / (1 + exp(sigma - 1))`` of
  the detour ratio ``sigma = onboard cost / shortest cost`` (Eq. 4).

The model is deliberately independent of any solver: it only needs a
:class:`~repro.core.schedule.TransferSequence`, a cost oracle, a vehicle
utility lookup and a similarity lookup.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

from repro.core.requests import Rider
from repro.core.schedule import CostFn, TransferSequence
from repro.core.vehicles import Vehicle

#: mu_v(r_i, c_j) lookup
VehicleUtilityFn = Callable[[Rider, Vehicle], float]
#: s(r_i, r_i') lookup over *rider ids*
SimilarityFn = Callable[[int, int], float]


def trajectory_utility(sigma: float) -> float:
    """Eq. 5: logistic decay of the travel-cost ratio.

    ``sigma`` is the Eq. 4 ratio (>= 1 for any feasible trip); the result is
    in ``(0, 1]`` with ``trajectory_utility(1.0) == 1.0``.
    """
    if sigma < 1.0 - 1e-9:
        raise ValueError(f"travel cost ratio must be >= 1, got {sigma}")
    # guard against overflow for pathological detours
    exponent = min(sigma - 1.0, 700.0)
    return 2.0 / (1.0 + math.exp(exponent))


def check_balance(alpha: float, beta: float) -> None:
    """Raise :class:`ValueError` unless ``alpha, beta >= 0`` and
    ``alpha + beta <= 1`` (NaN fails)."""
    if not (alpha >= 0 and beta >= 0 and alpha + beta <= 1 + 1e-12):
        raise ValueError(
            f"need alpha, beta >= 0 and alpha + beta <= 1; got ({alpha}, {beta})"
        )


class UtilityModel:
    """Evaluates Eq. 1 utilities for riders on scheduled vehicles.

    Parameters
    ----------
    alpha, beta:
        Balancing parameters; ``alpha, beta >= 0`` and ``alpha + beta <= 1``.
    vehicle_utility:
        ``mu_v(r_i, c_j)`` lookup.
    similarity:
        ``s(r_i, r_i')`` lookup over rider ids.
    cost:
        Travel-cost oracle (for the shortest-cost denominator of Eq. 4).
    """

    def __init__(
        self,
        alpha: float,
        beta: float,
        vehicle_utility: VehicleUtilityFn,
        similarity: SimilarityFn,
        cost: CostFn,
    ) -> None:
        check_balance(alpha, beta)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.vehicle_utility = vehicle_utility
        self.similarity = similarity
        self.cost = cost

    # ------------------------------------------------------------------
    def rider_utility(
        self, rider: Rider, vehicle: Vehicle, sequence: TransferSequence
    ) -> float:
        """``mu(r_i, c_j)`` of one rider under the given schedule (Eq. 1)."""
        mu_v = self.vehicle_utility(rider, vehicle) if self.alpha else 0.0
        mu_r = self.rider_related(rider, sequence) if self.beta else 0.0
        gamma = 1.0 - self.alpha - self.beta
        mu_t = self.trajectory_related(rider, sequence) if gamma > 1e-12 else 0.0
        return self.alpha * mu_v + self.beta * mu_r + gamma * mu_t

    def rider_related(self, rider: Rider, sequence: TransferSequence) -> float:
        """Eq. 2: cost-weighted mean co-rider similarity over onboard legs."""
        legs = sequence.onboard_legs(rider.rider_id)
        total = sum(leg.cost for leg in legs)
        if total <= 0:
            return 0.0
        similarity = self.similarity
        acc = 0.0
        for leg in legs:
            if not leg.co_riders or leg.cost == 0.0:
                continue
            pair_sum = sum(
                similarity(rider.rider_id, other) for other in leg.co_riders
            )
            acc += (leg.cost / total) * (pair_sum / len(leg.co_riders))
        return acc

    def trajectory_related(self, rider: Rider, sequence: TransferSequence) -> float:
        """Eq. 4 + Eq. 5: logistic decay of the rider's detour ratio."""
        legs = sequence.onboard_legs(rider.rider_id)
        onboard_cost = sum(leg.cost for leg in legs)
        shortest = self.cost(rider.source, rider.destination)
        if shortest <= 0:
            raise ValueError(
                f"rider {rider.rider_id}: shortest cost from {rider.source} to "
                f"{rider.destination} is {shortest}; requests must have distinct, "
                "reachable endpoints"
            )
        sigma = max(onboard_cost / shortest, 1.0)
        return trajectory_utility(sigma)

    # ------------------------------------------------------------------
    def schedule_utility(self, vehicle: Vehicle, sequence: TransferSequence) -> float:
        """``mu(S_j)``: total utility of all riders picked up in ``S_j``.

        Single pass over the schedule's events: per event the onboard
        riders accumulate its cost (for Eq. 4) and, when co-riders are
        present, the cost-weighted mean similarity (the Eq. 2 numerator).
        This is O(events * capacity^2) instead of the O(events^2) of
        evaluating each rider independently — this method dominates the
        solvers' runtime, so the constant factor matters.
        """
        riders = sequence.assigned_riders()
        if not riders:
            return 0.0
        gamma = 1.0 - self.alpha - self.beta
        total = 0.0
        if self.alpha:
            total += self.alpha * sum(
                self.vehicle_utility(rider, vehicle) for rider in riders
            )
        if self.beta <= 1e-12 and gamma <= 1e-12:
            return total

        onboard = sequence._onboard_sets()
        leg_costs = sequence.leg_costs
        similarity = self.similarity
        onboard_cost: Dict[int, float] = {}
        sim_acc: Dict[int, float] = {}
        want_sim = self.beta > 1e-12
        for event, members in enumerate(onboard):
            c = leg_costs[event]
            if not members or c == 0.0:
                continue
            k = len(members)
            for rid in members:
                onboard_cost[rid] = onboard_cost.get(rid, 0.0) + c
            if want_sim and k >= 2:
                member_list = list(members)
                for i, rid in enumerate(member_list):
                    pair_sum = 0.0
                    for j, other in enumerate(member_list):
                        if i != j:
                            pair_sum += similarity(rid, other)
                    sim_acc[rid] = sim_acc.get(rid, 0.0) + c * pair_sum / (k - 1)
        # pickup events put the rider onboard only *after* the stop, so the
        # onboard sets above exclude each rider's own pickup event — exactly
        # the Eq. 2 / Eq. 4 trajectory TR_j^i.
        cost = self.cost
        for rider in riders:
            rid = rider.rider_id
            ride_cost = onboard_cost.get(rid, 0.0)
            if want_sim and ride_cost > 0:
                total += self.beta * (sim_acc.get(rid, 0.0) / ride_cost)
            if gamma > 1e-12:
                shortest = cost(rider.source, rider.destination)
                if shortest <= 0:
                    raise ValueError(
                        f"rider {rid}: non-positive shortest cost "
                        f"{shortest} from {rider.source} to {rider.destination}"
                    )
                sigma = ride_cost / shortest
                total += gamma * trajectory_utility(max(sigma, 1.0))
        return total

    def schedule_utility_breakdown(
        self, vehicle: Vehicle, sequence: TransferSequence
    ) -> Dict[int, float]:
        """Per-rider utilities for the schedule (rider id -> mu)."""
        return {
            rider.rider_id: self.rider_utility(rider, vehicle, sequence)
            for rider in sequence.assigned_riders()
        }
