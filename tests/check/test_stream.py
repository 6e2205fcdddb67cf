"""The streaming drive (`--mode stream`) and its CLI wiring."""

import dataclasses

import pytest

from repro import perf
from repro.check import MODES, draw_scenario, run_fuzz, run_trial
from repro.check.__main__ import main


def _stream(config="plain", p_perturb=0.0):
    return dataclasses.replace(
        MODES["stream"], candidate=(config,), p_perturb=p_perturb
    )


class TestSeeds:
    @pytest.mark.parametrize("seed", range(6))
    def test_seed_is_equivalent(self, seed):
        report = run_trial(seed, "stream")
        assert report.ok, [str(f) for f in report.failures]
        assert report.mode == "stream"
        assert report.draws["config"] in MODES["stream"].candidate
        # empty frames are drawn on purpose (an interval trigger must fire
        # on windows with no arrivals); the report counts what was drawn
        assert report.riders == len(draw_scenario(seed, MODES["stream"].shape).riders)

    def test_chaos_seeds_replay_disruptions(self):
        events = 0
        for seed in range(6):
            report = run_trial(seed, _stream(p_perturb=1.0))
            assert report.ok, [str(f) for f in report.failures]
            assert report.draws["perturb"] == "chaos"
            # chaos seeds stop after the lockstep
            assert "count_batches" not in report.stats
            events += report.stats.get("events", 0)
        assert events > 0

    def test_tiered_seed_is_equivalent(self):
        report = run_trial(3, _stream("tier1"))
        assert report.ok, [str(f) for f in report.failures]
        assert report.draws["config"] == "tier1"

    def test_sharded_seed_is_equivalent(self):
        report = run_trial(2, _stream("sharded"))
        assert report.ok, [str(f) for f in report.failures]
        assert report.draws["config"] == "sharded"

    @pytest.mark.parametrize("seed", range(3))
    def test_sharded_seed_dispatches_through_shards(self, seed):
        # regression: the sharded options were once built and then never
        # passed to the dispatcher, so "sharded" seeds ran unsharded
        before = perf.SHARD_STATS.frames_sharded
        report = run_trial(seed, _stream("sharded"))
        assert report.ok, [str(f) for f in report.failures]
        assert perf.SHARD_STATS.frames_sharded > before

    def test_count_trigger_leg_runs_on_non_chaos_seeds(self):
        report = run_trial(1, _stream())
        assert report.ok, [str(f) for f in report.failures]
        assert report.stats["count_batches"] > 0


class TestDetection:
    def test_divergence_names_the_stream_axis(self, monkeypatch):
        """A planted stream divergence is reported under the stream stage,
        not under another axis's name."""
        from repro.service import StreamingEngine

        process = StreamingEngine.process
        dropped = []

        def lossy(self, arrivals, until=None, drain=False):
            arrivals = list(arrivals)
            if arrivals and not dropped:
                dropped.append(arrivals.pop(0))
            return process(self, arrivals, until=until, drain=drain)

        monkeypatch.setattr(StreamingEngine, "process", lossy)
        report = run_trial(0, dataclasses.replace(_stream(), shape=dataclasses.replace(
            MODES["stream"].shape, riders=(2, 5)
        )))
        assert not report.ok
        assert "stream" in {f.stage for f in report.failures}
        assert all("stream" in f.stage for f in report.failures)


class TestRun:
    def test_aggregates_reports(self):
        run = run_fuzz(range(3), "stream")
        assert run.seeds_run == 3
        assert run.ok
        assert run.failing_seeds == []


class TestCli:
    def test_stream_mode_exit_zero(self, capsys):
        assert main(["--mode", "stream", "--seeds", "3", "--skip-self-test"]) == 0
        assert "fuzzed 3 stream seeds" in capsys.readouterr().out

    def test_stream_replay(self, capsys):
        assert main(["--mode", "stream", "--replay", "1", "--skip-self-test"]) == 0
        out = capsys.readouterr().out
        assert "seed 1 [stream]:" in out
        assert "config=" in out
        assert "count_batches=" in out
