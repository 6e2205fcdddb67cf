"""Differential pin: zero-copy insertion engine vs. the reference path.

The existing property tests exercise hand-built and hypothesis-built
schedules; this suite pins the two Algorithm 1 implementations against
each other on *fuzz-generated instances* — real scenario-shaped demand,
real solver-produced schedules — result for result.  Runs in tier-1: any
algebra regression in the analytic shifts of ``plan_insertion`` fails
here before it can mis-assign a single rider.
"""

import pytest

from repro.check import differential_check, random_instance
from repro.core.insertion import (
    arrange_single_rider,
    arrange_single_rider_reference,
)
from repro.core.solver import solve


@pytest.mark.parametrize("seed", range(8))
class TestFastEngineMatchesReference:
    def test_on_solved_schedules(self, seed):
        instance, _ = random_instance(seed)
        assignment = solve(instance, method="eg")
        sequences = [instance.initial_sequence(v) for v in instance.vehicles]
        sequences.extend(assignment.schedules.values())
        failures = differential_check(instance, sequences, seed=seed)
        assert failures == [], [str(f) for f in failures]

    def test_positions_agree_not_just_costs(self, seed):
        """Where both engines find an insertion, the materialised schedules
        are cost-identical stop lists (positions may differ only between
        exact ties)."""
        instance, _ = random_instance(seed)
        assignment = solve(instance, method="ba")
        for seq in assignment.schedules.values():
            present = seq.rider_ids()
            for rider in instance.riders:
                if rider.rider_id in present:
                    continue
                fast = arrange_single_rider(seq, rider)
                reference = arrange_single_rider_reference(seq, rider)
                assert (fast is None) == (reference is None)
                if fast is None:
                    continue
                assert fast.delta_cost == pytest.approx(
                    reference.delta_cost, abs=1e-9
                )
                assert fast.sequence.total_cost == pytest.approx(
                    reference.sequence.total_cost, abs=1e-9
                )
                assert fast.sequence.is_valid()
