"""The chaos modes: disruptions over the dispatcher scenarios."""

import dataclasses

import pytest

from repro.check import MODES, run_fuzz, run_trial


class TestChaosSeeds:
    def test_seed_batch_passes(self):
        run = run_fuzz(range(20), "chaos")
        assert run.seeds_run == 20
        assert run.ok, [str(f) for f in run.failures[:5]]

    def test_deterministic_in_the_seed(self):
        first = run_trial(11, "chaos")
        second = run_trial(11, "chaos")
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_disruptions_actually_fire(self):
        """Across a seed batch the schedule must exercise real events —
        a chaos fuzzer that never disrupts anything proves nothing."""
        reports = [run_trial(seed, "chaos") for seed in range(25)]
        assert sum(r.stats.get("applied", 0) for r in reports) >= 10

    def test_report_shape(self):
        report = run_trial(0, "chaos")
        assert report.mode == "chaos"
        assert report.draws["perturb"] == "chaos"
        assert report.method in MODES["chaos"].shape.methods
        assert report.vehicles >= 2
        assert report.riders > 0
        # the final ledger accounts for every rider ever issued
        ledger = {k: v for k, v in report.stats.items() if k.startswith("ledger.")}
        assert sum(ledger.values()) == report.riders

    def test_run_aggregation(self):
        run = run_fuzz(range(5), "chaos")
        assert run.failing_seeds == []
        assert run.as_dict()["seeds_run"] == 5

    def test_stop_after_budget(self):
        run = run_fuzz(range(10_000), "chaos", stop_after=0.0)
        assert run.seeds_run <= 1  # the in-flight trial may complete

    def test_watchdog_sometimes_on(self):
        reports = [run_trial(seed, "chaos") for seed in range(20)]
        flags = {r.draws["watchdog"] for r in reports}
        assert flags == {True, False}


class TestChaosCli:
    def test_chaos_mode_exit_zero(self, capsys):
        from repro.check.__main__ import main

        code = main(["--mode", "chaos", "--seeds", "5", "--skip-self-test"])
        assert code == 0
        assert "fuzzed 5 chaos seeds" in capsys.readouterr().out

    def test_sharded_chaos_dispatches_through_shards(self, capsys):
        from repro import perf
        from repro.check.__main__ import main

        before = perf.SHARD_STATS.frames_sharded
        code = main(["--mode", "chaos-sharded", "--seeds", "3", "--skip-self-test"])
        assert code == 0
        assert "chaos-sharded seeds" in capsys.readouterr().out
        assert perf.SHARD_STATS.frames_sharded > before

    @pytest.mark.parametrize(
        "mode", [[], ["--mode", "dispatch"], ["--mode", "crash"], ["--mode", "stream"]]
    )
    def test_sharded_requires_chaos(self, mode):
        """Sharding under chaos is its own row (``chaos-sharded``); the old
        ``--sharded`` switch is refused with a usage error, not ignored."""
        from repro.check.__main__ import main

        assert MODES["chaos-sharded"].reference == "sharded"
        with pytest.raises(SystemExit) as exc:
            main(mode + ["--sharded", "--seeds", "1", "--skip-self-test"])
        assert exc.value.code == 2

    def test_chaos_replay(self, capsys):
        from repro.check.__main__ import main

        code = main(["--replay", "3", "--mode", "chaos"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed 3 [chaos]" in out
        assert "ledger.delivered=" in out
