"""Extensible utility components (the paper's stated extension point).

Section 2.4: *"other factors, such as the travel distances of the empty
vehicles, the sceneries along the trips and so on, may also affect the
utility of riders ... which, however, can be easily embedded in this
framework (i.e., adding more balancing parameters and utility components
in Equation 1)"*.

:class:`ExtendedUtilityModel` implements exactly that: Eq. 1's three
components plus any number of extra weighted components, with the weights
summing to at most 1 (the trajectory component absorbs the remainder, as
in the base model).  Two ready-made components from the paper's own list:

- :func:`empty_distance_component` — riders dislike vehicles that must
  drive far empty to pick them up;
- :func:`punctuality_component` — riders value slack between their
  arrival and their drop-off deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.core.insertion import InsertionResult
from repro.core.requests import Rider
from repro.core.schedule import CostFn, TransferSequence
from repro.core.utility import SimilarityFn, UtilityModel, VehicleUtilityFn
from repro.core.vehicles import Vehicle

#: an extra component: (rider, vehicle, sequence) -> value in [0, 1]
ComponentFn = Callable[[Rider, Vehicle, TransferSequence], float]


@dataclass(frozen=True)
class UtilityComponent:
    """One additional weighted term of the extended Eq. 1."""

    name: str
    weight: float
    fn: ComponentFn

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"component {self.name!r}: weight must be >= 0")


class ExtendedUtilityModel(UtilityModel):
    """Eq. 1 with extra components:

    ``mu = alpha mu_v + beta mu_r + sum_i w_i comp_i + (1 - alpha - beta -
    sum_i w_i) mu_t``.
    """

    def __init__(
        self,
        alpha: float,
        beta: float,
        vehicle_utility: VehicleUtilityFn,
        similarity: SimilarityFn,
        cost: CostFn,
        components: Sequence[UtilityComponent] = (),
    ) -> None:
        extra = sum(c.weight for c in components)
        if alpha < 0 or beta < 0 or alpha + beta + extra > 1 + 1e-12:
            raise ValueError(
                "alpha + beta + extra component weights must stay <= 1 "
                f"(got {alpha} + {beta} + {extra})"
            )
        # the base model validates alpha + beta <= 1, which still holds
        super().__init__(alpha, beta, vehicle_utility, similarity, cost)
        self.components: List[UtilityComponent] = list(components)
        self._extra_weight = extra

    # ------------------------------------------------------------------
    def rider_utility(
        self, rider: Rider, vehicle: Vehicle, sequence: TransferSequence
    ) -> float:
        mu_v = self.vehicle_utility(rider, vehicle) if self.alpha else 0.0
        mu_r = self.rider_related(rider, sequence) if self.beta else 0.0
        gamma = 1.0 - self.alpha - self.beta - self._extra_weight
        mu_t = self.trajectory_related(rider, sequence) if gamma > 1e-12 else 0.0
        total = self.alpha * mu_v + self.beta * mu_r + gamma * mu_t
        for component in self.components:
            if component.weight:
                value = component.fn(rider, vehicle, sequence)
                if not 0.0 <= value <= 1.0 + 1e-9:
                    raise ValueError(
                        f"component {component.name!r} returned {value}; "
                        "components must map into [0, 1]"
                    )
                total += component.weight * value
        return total

    def schedule_utility(self, vehicle: Vehicle, sequence: TransferSequence) -> float:
        # the single-pass fast path does not know about extra components;
        # fall back to the exact per-rider sum
        return sum(
            self.rider_utility(rider, vehicle, sequence)
            for rider in sequence.assigned_riders()
        )

    def insertion_utility(
        self, vehicle: Vehicle, base: TransferSequence, rider: Rider, plan
    ) -> float:
        # components read the whole sequence (punctuality reads ``arrive``),
        # which the plan-scored arrays do not carry: build it
        sequence = InsertionResult.deferred(base, rider, plan).sequence
        return self.schedule_utility(vehicle, sequence)


# ----------------------------------------------------------------------
# ready-made components from the paper's own examples
# ----------------------------------------------------------------------
def empty_distance_component(cost: CostFn, scale: float = 10.0) -> ComponentFn:
    """Penalise long empty approach drives (the paper's "travel distances
    of the empty vehicles").

    Value = ``exp(-approach / scale)`` where ``approach`` is the travel
    cost from the leg start preceding the rider's pickup stop to the
    pickup; 1.0 when the vehicle is already there.
    """

    def component(rider: Rider, vehicle: Vehicle, sequence: TransferSequence) -> float:
        pickup_idx, _ = sequence.stop_indices(rider.rider_id)
        if pickup_idx is None:
            return 0.0
        start, _ = sequence.event_endpoints(pickup_idx)
        approach = cost(start, rider.source)
        return math.exp(-approach / scale)

    return component


def punctuality_component(scale: float = 10.0) -> ComponentFn:
    """Reward slack between arrival and the drop-off deadline.

    Value = ``1 - exp(-slack / scale)``; 0 when the rider arrives exactly
    at the deadline.
    """

    def component(rider: Rider, vehicle: Vehicle, sequence: TransferSequence) -> float:
        _, dropoff_idx = sequence.stop_indices(rider.rider_id)
        if dropoff_idx is None:
            return 0.0
        slack = max(rider.dropoff_deadline - sequence.arrive[dropoff_idx], 0.0)
        return 1.0 - math.exp(-slack / scale)

    return component
