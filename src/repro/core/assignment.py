"""Assignment results: the output of every URR solver.

An :class:`Assignment` maps each vehicle to its final
:class:`~repro.core.schedule.TransferSequence` and records which riders were
served.  It computes the Definition 4 objective (sum of served riders'
utilities) and offers a full validity audit used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.instance import LazySchedules, URRInstance
from repro.core.schedule import TransferSequence


@dataclass
class Assignment:
    """Solver output for one URR instance."""

    instance: URRInstance
    schedules: Dict[int, TransferSequence] = field(default_factory=dict)
    solver_name: str = ""
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, instance: URRInstance, solver_name: str = "") -> "Assignment":
        """Every vehicle on its carried-in plan (idle when it has none)."""
        return cls(
            instance=instance,
            schedules=LazySchedules(instance),
            solver_name=solver_name,
        )

    # ------------------------------------------------------------------
    def schedule(self, vehicle_id: int) -> TransferSequence:
        return self.schedules[vehicle_id]

    def _iter_schedules(self):
        """(vehicle_id, sequence) pairs that can contribute anything.

        When ``schedules`` is a :class:`~repro.core.instance.LazySchedules`
        this skips pristine empty vehicles (no stops, nothing onboard):
        they add zero utility, zero cost, no riders and no violations, so
        every aggregate below is unchanged while large idle fleets stop
        costing O(fleet) per call.
        """
        fast = getattr(self.schedules, "iter_active", None)
        return fast() if fast is not None else self.schedules.items()

    def vehicle_of(self, rider_id: int) -> Optional[int]:
        """Vehicle serving a rider, or ``None`` when unassigned."""
        for vehicle_id, seq in self._iter_schedules():
            if rider_id in {r.rider_id for r in seq.assigned_riders()}:
                return vehicle_id
        return None

    def served_rider_ids(self) -> Set[int]:
        served: Set[int] = set()
        for _vid, seq in self._iter_schedules():
            served.update(r.rider_id for r in seq.assigned_riders())
        return served

    def unserved_rider_ids(self) -> Set[int]:
        all_ids = {r.rider_id for r in self.instance.riders}
        return all_ids - self.served_rider_ids()

    @property
    def num_served(self) -> int:
        return len(self.served_rider_ids())

    # ------------------------------------------------------------------
    def total_utility(self) -> float:
        """Definition 4 objective: sum of served riders' Eq. 1 utilities."""
        model = self.instance.utility_model()
        total = 0.0
        for vehicle_id, seq in self._iter_schedules():
            vehicle = self.instance.vehicle(vehicle_id)
            total += model.schedule_utility(vehicle, seq)
        return total

    def total_travel_cost(self) -> float:
        """Sum of all vehicles' schedule travel costs."""
        return sum(seq.total_cost for _vid, seq in self._iter_schedules())

    def utility_by_vehicle(self) -> Dict[int, float]:
        model = self.instance.utility_model()
        return {
            vid: model.schedule_utility(self.instance.vehicle(vid), seq)
            for vid, seq in self.schedules.items()
        }

    # ------------------------------------------------------------------
    def validity_errors(self) -> List[str]:
        """All constraint violations across all schedules (empty = valid).

        Checks every schedule's internal validity plus the global condition
        that no rider is served by two vehicles.
        """
        errors: List[str] = []
        seen: Dict[int, int] = {}
        for vehicle_id, seq in self._iter_schedules():
            for msg in seq.validity_errors():
                errors.append(f"vehicle {vehicle_id}: {msg}")
            for rider in seq.assigned_riders():
                if rider.rider_id in seen:
                    errors.append(
                        f"rider {rider.rider_id} assigned to vehicles "
                        f"{seen[rider.rider_id]} and {vehicle_id}"
                    )
                seen[rider.rider_id] = vehicle_id
        return errors

    def is_valid(self) -> bool:
        return not self.validity_errors()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Assignment({self.solver_name or 'unnamed'}: "
            f"served={self.num_served}/{self.instance.num_riders}, "
            f"utility={self.total_utility():.4f})"
        )
