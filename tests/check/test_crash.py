"""The crash drive (`--mode crash`) and its CLI wiring."""

import dataclasses

import pytest

from repro import perf
from repro.check import KILL_KINDS, MODES, run_fuzz, run_trial
from repro.check.__main__ import main


def _crash(config):
    return dataclasses.replace(MODES["crash"], candidate=(config,))


class TestSeeds:
    @pytest.mark.parametrize("seed", range(6))
    def test_seed_recovers_equivalently(self, seed):
        report = run_trial(seed, "crash")
        assert report.ok, [str(f) for f in report.failures]
        # the kill always leaves work to resume or frames to replay
        assert report.stats["frames_restored"] + report.stats.get("frames_resumed", 0) > 0
        assert report.mode == "crash"
        assert report.riders > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_sharded_seed_dispatches_through_shards(self, seed):
        # regression: the mode's dispatcher options were once built and
        # then dropped, so "sharded" seeds ran unsharded
        before = perf.SHARD_STATS.frames_sharded
        report = run_trial(seed, _crash("sharded"))
        assert report.draws["config"] == "sharded"
        assert report.ok, [str(f) for f in report.failures]
        assert perf.SHARD_STATS.frames_sharded > before

    @pytest.mark.parametrize("seed", range(3))
    def test_candidate_seed_retrieves_through_the_index(self, seed):
        before = perf.CANDIDATE_STATS.retrievals
        report = run_trial(seed, _crash("spatiotemporal"))
        assert report.draws["config"] == "spatiotemporal"
        assert report.ok, [str(f) for f in report.failures]
        assert perf.CANDIDATE_STATS.retrievals > before

    def test_kill_kind_catalogues(self):
        assert "between_frames" in KILL_KINDS
        assert "worker_kill" not in KILL_KINDS

    def test_lost_wal_record_is_caught(self, monkeypatch):
        """A restore that loses a durably committed frame must fail the
        cursor check, even though deterministic re-dispatch would hide it
        from every frame comparison."""
        from repro.core.durability import DurabilityLog

        load = DurabilityLog.load

        def lossy(self):
            snapshot, records = load(self)
            return snapshot, records[:-1]

        monkeypatch.setattr(DurabilityLog, "load", lossy)
        run = run_fuzz(range(25), "crash")
        lost = [f for f in run.failures if "restored cursor" in f.detail]
        assert lost, "no seed noticed the lost WAL record"
        assert all(f.stage == "crash" for f in lost)


class TestRun:
    def test_aggregates_reports(self):
        run = run_fuzz(range(3), "crash")
        assert run.seeds_run == 3
        assert run.ok
        assert run.failing_seeds == []


class TestCli:
    def test_crash_mode_exit_zero(self, capsys):
        assert main(["--mode", "crash", "--seeds", "3", "--skip-self-test"]) == 0
        assert "fuzzed 3 crash seeds" in capsys.readouterr().out

    def test_crash_replay(self, capsys):
        assert main(["--mode", "crash", "--replay", "1", "--skip-self-test"]) == 0
        out = capsys.readouterr().out
        assert "seed 1 [crash]:" in out
        assert "kill=" in out
