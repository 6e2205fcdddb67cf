"""The independent validator: clean solutions pass, planted bugs are caught."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import (
    CORRUPTIONS,
    ViolationKind,
    random_instance,
    validate_assignment,
    validate_schedule,
)
from repro.core.greedy import run_efficient_greedy
from repro.core.scoring import SolverState
from repro.core.solver import METHODS, solve

HEURISTICS = tuple(m for m in METHODS if m != "opt")

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _plantable_case():
    """A (instance, eg-assignment) pair every corruption can be planted on."""
    for seed in range(16):
        instance, _ = random_instance(seed)
        assignment = solve(instance, method="eg")
        if assignment.num_served and all(
            inject(instance, assignment) is not None
            for inject in CORRUPTIONS.values()
        ):
            return instance, assignment
    raise RuntimeError("no plantable self-test instance in seeds 0..15")


class TestValidSolutionsPass:
    @pytest.mark.parametrize("method", HEURISTICS)
    @pytest.mark.parametrize("seed", [0, 3, 11, 29])
    def test_methods_on_fuzzed_instances(self, method, seed):
        instance, _ = random_instance(seed)
        assignment = solve(instance, method=method)
        report = validate_assignment(instance, assignment)
        assert report.ok, report.summary()
        assert report.num_schedules == instance.num_vehicles
        # the independent Eq. 1-5 re-derivation agrees with the production
        # utility model (the comparison itself is part of the audit, but
        # assert it explicitly for the objective value)
        assert report.recomputed_utility == pytest.approx(
            assignment.total_utility(), abs=1e-6
        )

    @given(seed=st.integers(0, 50_000))
    @settings(**SETTINGS)
    def test_property_every_method_validates(self, seed):
        instance, _ = random_instance(seed)
        for method in HEURISTICS:
            assignment = solve(instance, method=method)
            report = validate_assignment(instance, assignment)
            assert report.ok, f"{method}: {report.summary()}"

    def test_opt_validates_on_small_instances(self):
        for seed in (0, 1, 3):
            instance, _ = random_instance(seed)
            if instance.num_riders > 6:
                continue
            assignment = solve(instance, method="opt", opt_max_riders=6)
            report = validate_assignment(instance, assignment)
            assert report.ok, report.summary()


class TestCorruptionsCaught:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_each_corruption_produces_its_named_violation(self, name):
        instance, assignment = _plantable_case()
        case = CORRUPTIONS[name](instance, assignment)
        assert case is not None
        report = validate_assignment(
            instance, case.assignment, claimed_utility=case.claimed_utility
        )
        assert not report.ok
        assert case.expected_kind in report.kinds(), report.summary()

    def test_overfull_names_capacity(self):
        instance, assignment = _plantable_case()
        case = CORRUPTIONS["overfull"](instance, assignment)
        report = validate_assignment(instance, case.assignment)
        violations = report.of_kind(ViolationKind.CAPACITY_EXCEEDED)
        assert violations and "capacity" in violations[0].detail

    def test_tampered_event_arrays_are_caught(self):
        """A sign error in the incremental algebra that keeps the schedule
        feasible must still be flagged by the event-field audit."""
        instance, assignment = _plantable_case()
        vid, seq = next(
            (vid, seq) for vid, seq in assignment.schedules.items() if seq.stops
        )
        tampered = seq.copy()
        tampered.flexible = [f + 0.25 for f in tampered.flexible]
        report = validate_schedule(instance, vid, tampered)
        assert ViolationKind.EVENT_FIELD_MISMATCH in report.kinds()
        # while the untampered schedule is clean
        assert validate_schedule(instance, vid, seq).ok

    def test_duplicate_assignment_caught(self):
        for seed in range(16):
            instance, _ = random_instance(seed)
            assignment = solve(instance, method="eg")
            if instance.num_vehicles >= 2 and assignment.num_served:
                break
        else:
            raise RuntimeError("no multi-vehicle instance in seeds 0..15")
        busiest = max(
            assignment.schedules, key=lambda v: len(assignment.schedules[v].stops)
        )
        other = next(v for v in assignment.schedules if v != busiest)
        corrupted_schedules = dict(assignment.schedules)
        corrupted_schedules[other] = instance.initial_sequence(
            instance.vehicle(other)
        ).with_stops(list(assignment.schedules[busiest].stops))
        from repro.core.assignment import Assignment

        corrupted = Assignment(instance=instance, schedules=corrupted_schedules)
        report = validate_assignment(instance, corrupted)
        assert ViolationKind.DUPLICATE_ASSIGNMENT in report.kinds()


class TestDebugHooks:
    """The validator as a test oracle on solver and dispatcher output: no
    solver or dispatcher setting runs it, so the tests call it."""

    def test_solver_state_validate_accepts_clean_run(self):
        instance, _ = random_instance(2)
        state = SolverState(instance)
        run_efficient_greedy(state, instance.riders)
        assert state.schedules.touched
        for vid in state.schedules.touched:
            validate_schedule(
                instance, vid, state.schedules[vid]
            ).raise_if_invalid()

    def test_dispatcher_frame_passes_validator(self):
        from repro.core.dispatch import Dispatcher

        instance, _ = random_instance(5)
        fleet = list(instance.vehicles)
        dispatcher = Dispatcher(
            instance.network,
            fleet,
            method="eg",
            oracle=instance.oracle,
        )
        report = dispatcher.dispatch_frame(instance.riders)
        assert report.num_requests == instance.num_riders
        validate_assignment(
            report.assignment.instance, report.assignment
        ).raise_if_invalid()
