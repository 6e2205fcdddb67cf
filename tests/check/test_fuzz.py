"""The seeded fuzz harness: clean runs, sandwich checks, shrinking."""

import itertools

from repro.check import (
    DispatchFuzzConfig,
    FuzzConfig,
    differential_check,
    fuzz_dispatch_seed,
    fuzz_seed,
    minimize_seed,
    random_instance,
    run_dispatch_fuzz,
    run_fuzz,
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
        config = FuzzConfig(min_riders=2, max_riders=4, max_vehicles=2)
        for seed in range(6):
            instance, _ = random_instance(seed, config)
            assert instance.num_riders <= 4
            assert 1 <= instance.num_vehicles <= 2


class TestFuzzRuns:
    def test_eight_seeds_clean(self):
        run = run_fuzz(range(8))
        assert run.seeds_run == 8
        assert run.ok, [str(f) for f in run.failures]

    def test_sandwich_recorded(self):
        report = fuzz_seed(3)
        assert report.ok
        assert report.utilities  # at least the heuristics ran
        for utility in report.utilities.values():
            assert utility <= report.bound + 1e-6
        if "opt" in report.utilities:
            for method, utility in report.utilities.items():
                assert utility <= report.utilities["opt"] + 1e-6

    def test_budget_stops_the_run(self):
        run = run_fuzz(itertools.count(), stop_after=0.3)
        assert run.seeds_run >= 1

    def test_differential_clean_on_solved_schedules(self):
        from repro.core.solver import solve

        instance, _ = random_instance(9)
        assignment = solve(instance, method="eg")
        sequences = [instance.empty_sequence(v) for v in instance.vehicles]
        sequences.extend(assignment.schedules.values())
        assert differential_check(instance, sequences) == []


class TestDispatchFuzz:
    def test_scenario_shape_and_determinism(self):
        a = fuzz_dispatch_seed(11)
        b = fuzz_dispatch_seed(11)
        assert a.num_frames >= 4  # the acceptance floor
        assert (a.method, a.num_frames, a.total_requests, a.total_served) == (
            b.method, b.num_frames, b.total_requests, b.total_served
        )

    def test_six_scenarios_clean(self):
        run = run_dispatch_fuzz(range(6))
        assert run.seeds_run == 6
        assert run.ok, [str(f) for f in run.failures]
        # frames genuinely straddle boundaries: some seed carries riders
        assert any(r.total_carried > 0 for r in run.reports)

    def test_config_respected(self):
        config = DispatchFuzzConfig(
            min_frames=5, max_frames=5, min_vehicles=2, max_vehicles=2
        )
        report = fuzz_dispatch_seed(0, config)
        assert report.num_frames == 5
        assert report.num_vehicles == 2

    def test_planted_teleport_is_caught(self, monkeypatch):
        """A rollforward that resets ready_time must fail the invariants."""
        from repro.core.dispatch import Dispatcher

        original = Dispatcher.dispatch_frame

        def teleporting(self, requests):
            report = original(self, requests)
            for fv in self.fleet.values():
                if fv.ready_time is not None:
                    fv.ready_time = self.clock - 1.0  # pretend it's already there
            return report

        monkeypatch.setattr(Dispatcher, "dispatch_frame", teleporting)
        failing = [
            seed for seed in range(8) if not fuzz_dispatch_seed(seed).ok
        ]
        assert failing, "no scenario noticed the planted teleport"


class TestTieredPruneFuzz:
    """``--prune --tiered``: pruning on a forced tier-1 oracle's pinned
    block, with a mid-run travel-time perturbation in some seeds."""

    def test_seeds_clean_and_perturbed(self):
        from repro.check.fuzz import PruneFuzzConfig, run_prune_fuzz

        run = run_prune_fuzz(range(8), PruneFuzzConfig(tiered=True))
        assert run.ok, [str(f) for f in run.failures]
        assert any(r.perturbed_at is not None for r in run.reports)
        assert sum(r.pairs_pruned for r in run.reports) > 0

    def test_planted_stale_block_is_caught(self, monkeypatch):
        """An index that keeps its pre-perturbation centre rows must fail."""
        from repro.check.fuzz import PruneFuzzConfig, fuzz_prune_seed
        from repro.core.candidates import CandidateIndex

        tables = CandidateIndex._tables
        resync = CandidateIndex.resync

        def stale_tables(self):
            if self._block is not None:
                return self._block  # never re-derive once built
            return tables(self)

        def epoch_blind_resync(self, fleet):
            self._epoch = self.oracle.epoch  # the epoch change goes unseen
            resync(self, fleet)

        monkeypatch.setattr(CandidateIndex, "_tables", stale_tables)
        monkeypatch.setattr(CandidateIndex, "resync", epoch_blind_resync)
        config = PruneFuzzConfig(tiered=True)
        failing = [
            seed for seed in range(25) if not fuzz_prune_seed(seed, config).ok
        ]
        assert failing, "no seed noticed the stale centre rows"


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
        assert repro.instance.num_riders == 1
        assert repro.instance.riders[0].rider_id == target
        assert repro.instance.num_vehicles == 1
        assert repro.original_riders == instance.num_riders
        payload = repro.as_dict()
        assert payload["seed"] == 4
        assert len(payload["minimized"]["riders"]) == 1
