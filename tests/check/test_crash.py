"""The crash-injection fuzzer (`--crash`) and its CLI wiring."""

import pytest

from repro import perf
from repro.check.__main__ import main
from repro.check.crash import (
    KILL_KINDS,
    CrashFuzzConfig,
    fuzz_crash_seed,
    run_crash_fuzz,
)


class TestSeeds:
    @pytest.mark.parametrize("seed", range(6))
    def test_seed_recovers_equivalently(self, seed):
        report = fuzz_crash_seed(seed)
        assert report.ok, [str(f) for f in report.failures]
        # the kill always leaves work to resume or frames to replay
        assert report.frames_restored + report.frames_resumed > 0
        assert report.scenario == "crash"
        assert report.num_riders > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_sharded_seed_dispatches_through_shards(self, seed):
        # regression: the mode's dispatcher options were once built and
        # then dropped, so "sharded" seeds ran unsharded
        config = CrashFuzzConfig(
            shard_fraction=1.0, candidate_fraction=0.0, tiered_fraction=0.0
        )
        before = perf.SHARD_STATS.frames_sharded
        report = fuzz_crash_seed(seed, config)
        assert report.mode == "sharded"
        assert report.ok, [str(f) for f in report.failures]
        assert perf.SHARD_STATS.frames_sharded > before

    @pytest.mark.parametrize("seed", range(3))
    def test_candidate_seed_retrieves_through_the_index(self, seed):
        config = CrashFuzzConfig(
            shard_fraction=0.0, candidate_fraction=1.0, tiered_fraction=0.0
        )
        before = perf.CANDIDATE_STATS.retrievals
        report = fuzz_crash_seed(seed, config)
        assert report.mode == "candidate"
        assert report.ok, [str(f) for f in report.failures]
        assert perf.CANDIDATE_STATS.retrievals > before

    def test_kill_kind_catalogues(self):
        assert "between_frames" in KILL_KINDS
        assert "worker_kill" not in KILL_KINDS


class TestRun:
    def test_aggregates_reports(self):
        run = run_crash_fuzz(range(3))
        assert run.seeds_run == 3
        assert run.ok
        assert run.failing_seeds == []


class TestCli:
    def test_crash_mode_exit_zero(self, capsys):
        assert main(["--crash", "--seeds", "3", "--skip-self-test"]) == 0
        assert "3 crash-recovery trials" in capsys.readouterr().out

    def test_crash_replay(self, capsys):
        assert main(["--crash", "--replay", "1", "--skip-self-test"]) == 0
        out = capsys.readouterr().out
        assert "seed 1:" in out
        assert "kill=" in out
