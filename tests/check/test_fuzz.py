"""The seeded fuzz runner: clean runs, sandwich checks, shrinking."""

import dataclasses
import itertools

from repro.check import (
    MODES,
    Shape,
    differential_check,
    draw_scenario,
    minimize_seed,
    random_instance,
    run_fuzz,
    run_trial,
)


class TestDeterminism:
    def test_same_seed_same_instance(self):
        a, scen_a = random_instance(17)
        b, scen_b = random_instance(17)
        assert scen_a == scen_b
        assert [(r.source, r.destination, r.pickup_deadline) for r in a.riders] == [
            (r.source, r.destination, r.pickup_deadline) for r in b.riders
        ]
        assert [(v.location, v.capacity) for v in a.vehicles] == [
            (v.location, v.capacity) for v in b.vehicles
        ]

    def test_seed_shapes_respect_config(self):
        shape = Shape(grid=5, frames=None, riders=(2, 4), vehicles=(1, 2))
        for seed in range(6):
            instance, _ = random_instance(seed, shape)
            assert instance.num_riders <= 4
            assert 1 <= instance.num_vehicles <= 2
            scenario = draw_scenario(seed, dataclasses.replace(shape, frames=(3, 3)))
            assert len(scenario.frames) == 3
            assert all(2 <= len(frame) <= 4 for frame in scenario.frames)


class TestFuzzRuns:
    def test_eight_seeds_clean(self):
        run = run_fuzz(range(8))
        assert run.seeds_run == 8
        assert run.ok, [str(f) for f in run.failures]

    def test_sandwich_recorded(self):
        report = run_trial(3)
        assert report.ok
        utilities = {
            k.split(".", 1)[1]: v for k, v in report.stats.items()
            if k.startswith("utility.")
        }
        assert utilities  # at least the heuristics ran
        for utility in utilities.values():
            assert utility <= report.stats["bound"] + 1e-6
        if "opt" in utilities:
            for utility in utilities.values():
                assert utility <= utilities["opt"] + 1e-6

    def test_budget_stops_the_run(self):
        run = run_fuzz(itertools.count(), stop_after=0.3)
        assert run.seeds_run >= 1

    def test_differential_clean_on_solved_schedules(self):
        from repro.core.solver import solve

        instance, _ = random_instance(9)
        assignment = solve(instance, method="eg")
        sequences = [instance.initial_sequence(v) for v in instance.vehicles]
        sequences.extend(assignment.schedules.values())
        assert differential_check(instance, sequences) == []


class TestDispatchFuzz:
    def test_scenario_shape_and_determinism(self):
        a = run_trial(11, "dispatch")
        b = run_trial(11, "dispatch")
        assert a.stats["frames"] >= 4  # the acceptance floor
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_six_scenarios_clean(self):
        run = run_fuzz(range(6), "dispatch")
        assert run.seeds_run == 6
        assert run.ok, [str(f) for f in run.failures]
        # frames genuinely straddle boundaries: some seed carries riders
        assert any(r.stats["carried"] > 0 for r in run.reports)

    def test_config_respected(self):
        mode = dataclasses.replace(
            MODES["dispatch"], shape=Shape(frames=(5, 5), vehicles=(2, 2))
        )
        report = run_trial(0, mode)
        assert report.stats["frames"] == 5
        assert report.vehicles == 2


class TestTieredPruneFuzz:
    """``--mode prune-tiered``: pruning on a forced tier-1 oracle's pinned
    block, with a mid-run travel-time perturbation in some seeds."""

    def test_seeds_clean_and_perturbed(self):
        run = run_fuzz(range(8), "prune-tiered")
        assert run.ok, [str(f) for f in run.failures]
        assert any("perturbed_at" in r.draws for r in run.reports)
        assert sum(r.stats["pairs_pruned"] for r in run.reports) > 0


class TestRebuildAxis:
    """``chaos-rebuild``: incremental B against the rebuild-everything A."""

    def test_divergence_is_named_after_the_rebuild_axis(self, monkeypatch):
        from repro.core.fleet import Fleet

        def unmarked(self, vid):
            # B's committed-rider map keeps the withdrawn vehicle's riders:
            # re-serving one elsewhere then reads as a duplicate
            dict.__delitem__(self, vid)
            del self._cost[vid]

        monkeypatch.setattr(Fleet, "__delitem__", unmarked)
        stages = {
            f.stage for seed in range(6)
            for f in run_trial(seed, "chaos-rebuild").failures
        }
        assert "rebuild" in stages
        # B's own checks are labelled as the incremental run, A's unlabelled
        assert all(s == "rebuild" or "@" not in s or s.endswith("@incremental")
                   for s in stages), stages


class TestEveryMode:
    def test_every_mode_revalidates_schedules(self):
        """Every mode's runs go through the independent validator."""
        from repro import perf

        for name in MODES:
            before = perf.VALIDATION_STATS.schedules
            report = run_trial(1, name)
            assert report.ok, [str(f) for f in report.failures]
            assert perf.VALIDATION_STATS.schedules > before, name


class TestMinimize:
    def test_clean_seed_returns_none(self):
        assert minimize_seed(1) is None

    def test_shrinks_against_a_predicate(self):
        """Shrinking a planted failure keeps only what reproduces it."""
        instance, _ = random_instance(4)
        assert instance.num_riders >= 2
        target = instance.riders[-1].rider_id

        def predicate(sub):
            if any(r.rider_id == target for r in sub.riders):
                return f"rider {target} present"
            return None

        repro = minimize_seed(4, predicate=predicate)
        assert repro is not None
        assert [r.rider_id for r in repro.scenario.riders] == [target]
        assert len(repro.scenario.fleet) == 1
        assert repro.original_riders == instance.num_riders
        payload = repro.as_dict()
        assert payload["seed"] == 4
        assert len(payload["minimized"]["frames"][0]) == 1

    def test_shrinks_a_dispatcher_scenario(self, monkeypatch):
        """The shrinker works on frame modes too, re-running the trial."""
        from repro.core.dispatch import Dispatcher

        original = Dispatcher.dispatch_frame

        def teleporting(self, requests, **kwargs):
            report = original(self, requests, **kwargs)
            for vid, vehicle in self.fleet.items():
                if vehicle.ready_time is not None:
                    self.fleet[vid] = dataclasses.replace(
                        vehicle, ready_time=self.clock - 1.0
                    )
            return report

        monkeypatch.setattr(Dispatcher, "dispatch_frame", teleporting)
        repro = minimize_seed(2, "dispatch")
        assert repro is not None
        assert "ready_time" in repro.detail
        assert len(repro.scenario.riders) == 1
        assert len(repro.scenario.fleet) == 1
        assert repro.original_riders > 1
