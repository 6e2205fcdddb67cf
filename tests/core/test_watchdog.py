"""Unit tests for the anytime solver watchdog (solve_anytime + dispatcher)."""

import dataclasses

import pytest

from repro.core.dispatch import Dispatcher
from repro.core.solver import (
    BASELINE_TIER,
    solve,
    solve_anytime,
)
from repro.core.vehicles import Vehicle
from repro.perf import WATCHDOG_STATS
from repro.roadnet.generators import grid_city
from repro.workload.instances import InstanceConfig, build_instance
from tests.conftest import make_rider


@pytest.fixture(scope="module")
def city():
    return grid_city(6, 6, seed=3, removal_fraction=0.0, arterial_every=None)


@pytest.fixture
def instance(city):
    return build_instance(
        city,
        InstanceConfig(num_riders=5, num_vehicles=2, capacity=2, seed=4),
    )


@pytest.fixture(autouse=True)
def _fresh_watchdog_stats():
    WATCHDOG_STATS.reset()
    yield
    WATCHDOG_STATS.reset()


class TestSolveAnytime:
    def test_no_budget_serves_tier_zero(self, instance):
        result, report = solve_anytime(instance, method="eg")
        assert report.tier == "eg"
        assert report.tier_index == 0
        assert not report.degraded
        assert not report.budget_exceeded
        assert result.solver_name == "eg"
        assert result.is_valid()
        assert report.attempts[0].status == "accepted"

    def test_matches_plain_solve(self, instance):
        anytime, _ = solve_anytime(instance, method="eg")
        plain = solve(instance, method="eg")
        assert anytime.served_rider_ids() == plain.served_rider_ids()
        assert anytime.total_utility() == pytest.approx(plain.total_utility())

    def test_zero_budget_falls_to_baseline(self, instance):
        result, report = solve_anytime(instance, method="eg", budget=0.0)
        assert report.tier == BASELINE_TIER
        assert report.degraded
        assert report.budget_exceeded
        # every solver tier was gated out, none ran
        assert all(a.status == "skipped" for a in report.attempts[:-1])
        assert report.attempts[-1].tier == BASELINE_TIER
        # the baseline serves nobody but is a valid (empty) plan
        assert result.solver_name == BASELINE_TIER
        assert result.num_served == 0
        assert result.validity_errors() == []

    def test_crashing_tier_falls_through(self, instance, monkeypatch):
        real_solve = solve

        def flaky(inst, method="eg", **kwargs):
            if method == "eg":
                raise RuntimeError("boom")
            return real_solve(inst, method=method, **kwargs)

        monkeypatch.setattr("repro.core.solver.solve", flaky)
        result, report = solve_anytime(
            instance, method="eg", fallbacks=("cf",), budget=30.0
        )
        assert report.tier == "cf"
        assert report.tier_index == 1
        assert report.degraded
        assert report.attempts[0].status == "error"
        assert "boom" in report.attempts[0].detail
        assert result.is_valid()

    def test_rejecting_accept_falls_through(self, instance):
        result, report = solve_anytime(
            instance,
            method="eg",
            fallbacks=("cf",),
            accept=lambda a: "nope" if a.solver_name == "eg" else None,
        )
        assert report.tier == "cf"
        assert report.attempts[0].status == "rejected"
        assert report.attempts[0].detail == "nope"

    def test_duplicate_method_not_retried(self, instance):
        _, report = solve_anytime(
            instance, method="eg", fallbacks=("eg", "cf"), budget=0.0
        )
        tiers = [a.tier for a in report.attempts]
        assert tiers.count("eg") == 1

    def test_stats_recorded(self, instance):
        solve_anytime(instance, method="eg")
        solve_anytime(instance, method="eg", budget=0.0)
        snap = WATCHDOG_STATS.snapshot()
        assert snap.frames == 2
        assert snap.fallbacks == 1
        assert snap.budget_exceeded == 1
        assert snap.tier_uses == {"eg": 1, BASELINE_TIER: 1}


class TestDispatcherWatchdog:
    def _riders(self, start, id_base=0):
        return [
            make_rider(id_base + i, source=1 + i, destination=20 + i,
                       pickup_deadline=start + 30.0,
                       dropoff_deadline=start + 120.0)
            for i in range(3)
        ]

    def test_generous_budget_serves_configured_method(self, city):
        fleet = [Vehicle(0, 0, 2), Vehicle(1, 35, 2)]
        d = Dispatcher(city, fleet, method="eg", frame_length=10.0,
                       seed=5, frame_budget=30.0)
        report = d.dispatch_frame(self._riders(0.0))
        assert report.solver_tier == "eg"
        assert report.fallback_tier == 0
        assert not report.budget_exceeded
        assert report.assignment.is_valid()

    def test_budget_exhaustion_commits_baseline_tier(self, city):
        """Acceptance: an exhausted frame budget still commits a valid
        plan — the carried-in baseline — and records the tier."""
        fleet = [Vehicle(0, 0, 2), Vehicle(1, 35, 2)]
        d = Dispatcher(city, fleet, method="eg", frame_length=10.0,
                       seed=5, frame_budget=30.0)
        first = d.dispatch_frame(self._riders(0.0))
        assert first.solver_tier == "eg"
        # starve the next frame: every solver tier is gated out
        d.config = dataclasses.replace(d.config, frame_budget=0.0)
        second = d.dispatch_frame(self._riders(10.0, id_base=100))
        assert second.solver_tier == BASELINE_TIER
        assert second.fallback_tier > 0
        assert second.budget_exceeded
        assert second.num_served == 0
        # the committed plan still passes the independent validator
        from repro.check.validator import validate_assignment

        validation = validate_assignment(
            second.assignment.instance, second.assignment
        )
        assert validation.ok, validation.violations
        # the starved frame's new riders wait in the carry-over queue
        assert {r.rider_id for r in d.pending_requests} >= {100, 101, 102}
        # earlier commitments ride along in the baseline untouched
        for fv in d.fleet.values():
            for rider in fv.onboard:
                assert any(
                    s.rider.rider_id == rider.rider_id
                    for s in fv.committed_stops
                )

    def test_recovery_after_starved_frame(self, city):
        """The fallback is per-frame: restoring the budget restores the
        configured method, and starved riders are retried."""
        fleet = [Vehicle(0, 0, 2), Vehicle(1, 35, 2)]
        d = Dispatcher(city, fleet, method="eg", frame_length=10.0,
                       seed=5, frame_budget=0.0, max_retries=3)
        starved = d.dispatch_frame(self._riders(0.0))
        assert starved.solver_tier == BASELINE_TIER
        d.config = dataclasses.replace(d.config, frame_budget=30.0)
        recovered = d.dispatch_frame([])
        assert recovered.solver_tier == "eg"
        assert recovered.num_carried == 3
        assert recovered.num_served > 0

    def test_accepted_plan_is_audited_once(self, city, monkeypatch):
        """The watchdog's accept check is the frame audit: a plan it
        accepted is not audited a second time."""
        audits = []
        frame_violations = Dispatcher._frame_violations

        def counting(self, instance, assignment):
            audits.append(self._frame_index)
            return frame_violations(self, instance, assignment)

        monkeypatch.setattr(Dispatcher, "_frame_violations", counting)
        fleet = [Vehicle(0, 0, 2), Vehicle(1, 35, 2)]
        d = Dispatcher(city, fleet, method="eg", frame_length=10.0,
                       seed=5, frame_budget=30.0)
        for frame in range(3):
            report = d.dispatch_frame(
                self._riders(10.0 * frame, id_base=100 * frame)
            )
            assert report.fallback_tier == 0
        assert audits == [0, 1, 2]

    def test_no_budget_means_no_watchdog(self, city):
        fleet = [Vehicle(0, 0, 2)]
        d = Dispatcher(city, fleet, method="eg", frame_length=10.0, seed=5)
        d.dispatch_frame(self._riders(0.0))
        assert WATCHDOG_STATS.snapshot().frames == 0

    def test_watchdog_stats_flow_into_perf_report(self, city):
        fleet = [Vehicle(0, 0, 2), Vehicle(1, 35, 2)]
        d = Dispatcher(city, fleet, method="eg", frame_length=10.0,
                       seed=5, frame_budget=0.0)
        d.dispatch_frame(self._riders(0.0))
        perf = d.perf_report()
        assert perf.watchdog.frames == 1
        assert perf.watchdog.fallbacks == 1
        assert perf.as_dict()["watchdog"]["tier_uses"] == {BASELINE_TIER: 1}
