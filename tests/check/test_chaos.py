"""Tests for the chaos fuzz mode (disruptions over the dispatch fuzzer)."""

import dataclasses

import pytest

from repro.check.fuzz import (
    ChaosFuzzConfig,
    ChaosSeedReport,
    fuzz_chaos_seed,
    run_chaos_fuzz,
)


class TestChaosSeeds:
    def test_seed_batch_passes(self):
        run = run_chaos_fuzz(range(20))
        assert run.seeds_run == 20
        assert run.ok, [str(f) for f in run.failures[:5]]

    def test_deterministic_in_the_seed(self):
        first = fuzz_chaos_seed(11)
        second = fuzz_chaos_seed(11)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_disruptions_actually_fire(self):
        """Across a seed batch the schedule must exercise real events —
        a chaos fuzzer that never disrupts anything proves nothing."""
        reports = [fuzz_chaos_seed(seed) for seed in range(25)]
        assert sum(r.num_applied for r in reports) >= 10

    def test_report_shape(self):
        report = fuzz_chaos_seed(0)
        assert isinstance(report, ChaosSeedReport)
        assert report.scenario == "chaos"
        assert report.method in ChaosFuzzConfig().methods
        assert report.num_vehicles >= 2
        assert report.num_riders > 0
        # the final ledger accounts for every rider ever issued
        assert sum(report.ledger.values()) == report.num_riders

    def test_run_aggregation(self):
        run = run_chaos_fuzz(range(5))
        assert run.failing_seeds == []
        assert run.as_dict()["seeds_run"] == 5

    def test_stop_after_budget(self):
        run = run_chaos_fuzz(range(10_000), stop_after=0.0)
        assert run.seeds_run <= 1  # the in-flight trial may complete

    def test_watchdog_sometimes_on(self):
        reports = [fuzz_chaos_seed(seed) for seed in range(20)]
        flags = {r.watchdog for r in reports}
        assert flags == {True, False}


class TestChaosCli:
    def test_chaos_mode_exit_zero(self, capsys):
        from repro.check.__main__ import main

        code = main(["--chaos", "--seeds", "5", "--skip-self-test"])
        assert code == 0
        assert "chaos scenarios" in capsys.readouterr().out

    def test_sharded_chaos_dispatches_through_shards(self, capsys):
        from repro import perf
        from repro.check.__main__ import main

        before = perf.SHARD_STATS.frames_sharded
        code = main(["--chaos", "--sharded", "--seeds", "3", "--skip-self-test"])
        assert code == 0
        assert "chaos scenarios" in capsys.readouterr().out
        assert perf.SHARD_STATS.frames_sharded > before

    @pytest.mark.parametrize("mode", [[], ["--dispatch"], ["--crash"], ["--stream"]])
    def test_sharded_requires_chaos(self, mode):
        from repro.check.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(mode + ["--sharded", "--seeds", "1", "--skip-self-test"])
        assert exc.value.code == 2

    def test_chaos_replay(self, capsys):
        from repro.check.__main__ import main

        code = main(["--replay", "3", "--chaos"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed 3" in out
        assert "ledger=" in out
