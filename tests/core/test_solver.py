"""Unit tests for the unified solve() front-end."""

import pytest

from repro.core.grouping import prepare_grouping
from repro.core.solver import METHODS, solve
from repro.workload.instances import InstanceConfig, build_instance


class TestSolve:
    def test_unknown_method_rejected(self, line_instance):
        with pytest.raises(ValueError, match="unknown method"):
            solve(line_instance, method="magic")

    def test_all_methods_listed(self):
        assert set(METHODS) == {"cf", "eg", "ba", "gbs+eg", "gbs+ba", "opt"}

    @pytest.mark.parametrize("method", ["cf", "eg", "ba", "opt"])
    def test_each_method_returns_valid_assignment(self, line_instance, method):
        assignment = solve(line_instance, method=method)
        assert assignment.is_valid()
        assert assignment.solver_name == method
        assert assignment.elapsed_seconds >= 0.0

    def test_gbs_builds_plan_on_demand(self, small_grid):
        # the plan is built at prepare_grouping's default k, which needs
        # more nodes than the 5-node line has
        instance = build_instance(
            small_grid, InstanceConfig(num_riders=10, num_vehicles=3, seed=1)
        )
        assignment = solve(instance, method="gbs+eg")
        assert assignment.is_valid()
        assert assignment.num_served > 0

    def test_gbs_accepts_prepared_plan(self, line_instance):
        plan = prepare_grouping(line_instance.network, k=2)
        for method in ("gbs+eg", "gbs+ba"):
            assignment = solve(line_instance, method=method, plan=plan)
            assert assignment.is_valid()

    def test_both_riders_served_on_line(self, line_instance):
        assignment = solve(line_instance, method="eg")
        assert assignment.num_served == 2

    def test_opt_at_least_heuristics(self, line_instance):
        opt = solve(line_instance, method="opt").total_utility()
        for method in ("cf", "eg", "ba"):
            assert opt >= solve(line_instance, method=method).total_utility() - 1e-9

    def test_opt_size_guard_forwarded(self, line_instance):
        with pytest.raises(ValueError, match="exponential"):
            solve(line_instance, method="opt", opt_max_riders=1)

    def test_deterministic_across_calls(self, line_instance):
        a = solve(line_instance, method="ba").total_utility()
        b = solve(line_instance, method="ba").total_utility()
        assert a == pytest.approx(b)


class TestTracingOff:
    def test_solve_does_not_count_served_without_a_tracer(
        self, line_instance, monkeypatch
    ):
        """Regression: solve() annotated its span with ``num_served`` (a
        walk over every schedule) even when tracing was disabled."""
        import io

        from repro.core.assignment import Assignment
        from repro.obs import trace

        assert not trace.enabled()
        calls = []
        original = Assignment.served_rider_ids

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(Assignment, "served_rider_ids", counting)
        solve(line_instance, method="eg")
        assert calls == []
        trace.start_trace(stream=io.StringIO())
        try:
            solve(line_instance, method="eg")
        finally:
            trace.stop_trace()
        assert calls  # the traced span still records the count
