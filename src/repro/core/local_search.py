"""Local-search improvement over a solved assignment (extension).

The paper's heuristics are constructive and one-shot; the natural next
step (and the spirit of BA's replace operation, generalised) is a local
search that keeps improving a finished assignment:

- **relocate** — move a served rider to a different vehicle when that
  raises the total utility;
- **inject** — insert a currently unserved rider wherever feasible (the
  constructive heuristics can strand riders whose vehicles filled up in
  the wrong order);
- **swap** — exchange two riders between two vehicles when the pair of
  reinsertions beats the incumbent.

Moves use Algorithm 1 for all reinsertions (no schedule reordering), so
the search stays within the paper's non-reordered schedule space; it
terminates when a full pass yields no improving move or the move budget
runs out (each accepted move strictly increases the total utility, so
termination is guaranteed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.assignment import Assignment
from repro.core.insertion import arrange_single_rider
from repro.core.instance import LazySchedules, URRInstance
from repro.core.requests import Rider
from repro.core.schedule import TransferSequence
from repro.core.utility import UtilityModel

_EPS = 1e-9


@dataclass
class SearchStats:
    """What the search did (for logging and the tests)."""

    relocations: int = 0
    injections: int = 0
    swaps: int = 0
    passes: int = 0
    utility_before: float = 0.0
    utility_after: float = 0.0

    @property
    def moves(self) -> int:
        return self.relocations + self.injections + self.swaps

    @property
    def improvement(self) -> float:
        return self.utility_after - self.utility_before


def improve_assignment(
    assignment: Assignment,
    max_moves: int = 10_000,
    enable_swaps: bool = True,
) -> Tuple[Assignment, SearchStats]:
    """Hill-climb an assignment with relocate / inject / swap moves.

    Returns a **new** assignment (the input is not modified) plus stats.
    Every accepted move strictly improves the total utility and preserves
    full validity (audited move-by-move in debug, end-to-end always).
    """
    instance = assignment.instance
    model = instance.utility_model()
    schedules = LazySchedules(instance)
    for vid, seq in assignment.schedules.items():
        schedules[vid] = seq.copy()
    utilities: Dict[int, float] = {
        vid: model.schedule_utility(instance.vehicle(vid), seq)
        for vid, seq in schedules.items()
    }
    stats = SearchStats(utility_before=sum(utilities.values()))

    improved = True
    while improved and stats.moves < max_moves:
        improved = False
        stats.passes += 1
        if _inject_pass(instance, model, schedules, utilities, stats, max_moves):
            improved = True
        if _relocate_pass(instance, model, schedules, utilities, stats, max_moves):
            improved = True
        if enable_swaps and stats.moves < max_moves:
            if _swap_pass(instance, model, schedules, utilities, stats, max_moves):
                improved = True

    stats.utility_after = sum(utilities.values())
    result = Assignment(
        instance=instance,
        schedules=schedules,
        solver_name=f"{assignment.solver_name}+ls",
        elapsed_seconds=assignment.elapsed_seconds,
    )
    return result, stats


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def _served_map(schedules: Dict[int, TransferSequence]) -> Dict[int, int]:
    served: Dict[int, int] = {}
    for vid, seq in schedules.items():
        for rider in seq.assigned_riders():
            served[rider.rider_id] = vid
    return served


def _inject_pass(instance, model, schedules, utilities, stats, max_moves) -> bool:
    """Insert unserved riders wherever utility increases."""
    served = _served_map(schedules)
    moved = False
    for rider in instance.riders:
        if stats.moves >= max_moves:
            break
        if rider.rider_id in served:
            continue
        best = _best_insertion(instance, model, schedules, utilities, rider)
        if best is None:
            continue
        vid, new_seq, new_utility = best
        if new_utility > utilities[vid] + _EPS:
            schedules[vid] = new_seq
            utilities[vid] = new_utility
            stats.injections += 1
            moved = True
    return moved


def _relocate_pass(instance, model, schedules, utilities, stats, max_moves) -> bool:
    """Move riders to vehicles where they contribute more."""
    moved = False
    for vid, seq in list(schedules.items()):
        for rider in seq.removable_riders():
            if stats.moves >= max_moves:
                return moved
            reduced = seq.without_rider(rider.rider_id)
            reduced_utility = model.schedule_utility(instance.vehicle(vid), reduced)
            best = _best_insertion(
                instance, model, schedules, utilities, rider, exclude=vid
            )
            if best is None:
                continue
            target_vid, new_seq, new_utility = best
            gain = (new_utility - utilities[target_vid]) - (
                utilities[vid] - reduced_utility
            )
            if gain > _EPS:
                schedules[vid] = reduced
                utilities[vid] = reduced_utility
                schedules[target_vid] = new_seq
                utilities[target_vid] = new_utility
                stats.relocations += 1
                moved = True
                seq = schedules[vid]
    return moved


def _swap_pass(instance, model, schedules, utilities, stats, max_moves) -> bool:
    """Exchange rider pairs between vehicles when the pair swap wins."""
    moved = False
    vids = sorted(schedules)
    for i, vid_a in enumerate(vids):
        for vid_b in vids[i + 1:]:
            if stats.moves >= max_moves:
                return moved
            if _try_swap(instance, model, schedules, utilities, vid_a, vid_b, stats):
                moved = True
    return moved


def _try_swap(instance, model, schedules, utilities, vid_a, vid_b, stats) -> bool:
    seq_a, seq_b = schedules[vid_a], schedules[vid_b]
    vehicle_a, vehicle_b = instance.vehicle(vid_a), instance.vehicle(vid_b)
    current = utilities[vid_a] + utilities[vid_b]
    for rider_a in seq_a.removable_riders():
        for rider_b in seq_b.removable_riders():
            reduced_a = seq_a.without_rider(rider_a.rider_id)
            reduced_b = seq_b.without_rider(rider_b.rider_id)
            insert_b_into_a = arrange_single_rider(reduced_a, rider_b)
            if insert_b_into_a is None:
                continue
            insert_a_into_b = arrange_single_rider(reduced_b, rider_a)
            if insert_a_into_b is None:
                continue
            new_a = model.schedule_utility(vehicle_a, insert_b_into_a.sequence)
            new_b = model.schedule_utility(vehicle_b, insert_a_into_b.sequence)
            if new_a + new_b > current + _EPS:
                schedules[vid_a] = insert_b_into_a.sequence
                schedules[vid_b] = insert_a_into_b.sequence
                utilities[vid_a] = new_a
                utilities[vid_b] = new_b
                stats.swaps += 1
                return True
    return False


def _best_insertion(
    instance: URRInstance,
    model: UtilityModel,
    schedules: Dict[int, TransferSequence],
    utilities: Dict[int, float],
    rider: Rider,
    exclude: Optional[int] = None,
) -> Optional[Tuple[int, TransferSequence, float]]:
    """The (vehicle, sequence, utility) maximising the utility gain of
    inserting ``rider``; ``None`` when nowhere feasible."""
    best: Optional[Tuple[int, TransferSequence, float]] = None
    best_gain = float("-inf")
    for vid, seq in schedules.items():
        if vid == exclude:
            continue
        result = arrange_single_rider(seq, rider)
        if result is None:
            continue
        new_utility = model.schedule_utility(
            instance.vehicle(vid), result.sequence
        )
        gain = new_utility - utilities[vid]
        if gain > best_gain:
            best_gain = gain
            best = (vid, result.sequence, new_utility)
    return best
