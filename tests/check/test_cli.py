"""`python -m repro.check` in-process: exit codes, self-test, artifacts."""

import dataclasses
import json

import pytest

from repro.check.__main__ import _parse_budget, main
from repro.check.fuzz import FuzzFailure, FuzzRunReport, SeedReport


class TestBudgetParsing:
    def test_units(self):
        assert _parse_budget("60s") == 60.0
        assert _parse_budget("2m") == 120.0
        assert _parse_budget("45") == 45.0


class TestCleanRun:
    def test_exit_zero_and_self_test(self, capsys):
        assert main(["--seeds", "3", "-v"]) == 0
        out = capsys.readouterr().out
        assert "self-test 'overfull': caught (capacity_exceeded)" in out
        assert "self-test 'deadline': caught (deadline_missed)" in out
        assert "self-test 'utility': caught (utility_mismatch)" in out
        assert "fuzzed 3 instance seeds" in out
        assert "0 failing" in out

    def test_replay_exit_zero(self, capsys):
        assert main(["--replay", "2"]) == 0
        out = capsys.readouterr().out
        assert "seed 2 [instance]:" in out
        assert "bound=" in out

    def test_replay_minimize_on_clean_seed(self, capsys):
        assert main(["--replay", "2", "--minimize"]) == 0
        assert "nothing to minimize" in capsys.readouterr().out

    def test_dispatch_mode(self, capsys):
        assert main(["--mode", "dispatch", "--seeds", "3", "--skip-self-test"]) == 0
        assert "fuzzed 3 dispatch seeds" in capsys.readouterr().out

    def test_dispatch_replay(self, capsys):
        assert main(["--mode", "dispatch", "--replay", "2"]) == 0
        out = capsys.readouterr().out
        assert "seed 2 [dispatch]:" in out
        assert "frames=" in out


class TestFailingRun:
    def test_artifact_written_and_exit_one(self, tmp_path, monkeypatch, capsys):
        failing = FuzzRunReport(
            reports=[
                SeedReport(
                    seed=7, mode="instance", riders=3, vehicles=1,
                    failures=[
                        FuzzFailure(
                            seed=7, stage="validate", method="eg",
                            detail="[capacity_exceeded] planted",
                        )
                    ],
                )
            ]
        )
        monkeypatch.setattr(
            "repro.check.__main__.run_fuzz",
            lambda *args, **kwargs: failing,
        )
        out_path = tmp_path / "failures.json"
        code = main(
            ["--seeds", "1", "--skip-self-test", "--out", str(out_path)]
        )
        assert code == 1
        payload = json.loads(out_path.read_text())
        assert payload["failing_seeds"] == [7]
        assert payload["mode"] == "instance"
        assert payload["failures"][0]["stage"] == "validate"
        assert "seed 7" in capsys.readouterr().out


class TestArgumentErrors:
    """Bad input is an argparse error (exit 2), never a traceback or a
    silently-empty pass."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--budget", "abc"],
            ["--seeds", "0"],
            ["--seeds", "-3"],
            ["--mode", "bogus"],
            # the old per-mode booleans are gone: combining two of them
            # once silently picked one, and --tiered was ignored by most
            ["--chaos", "--prune"],
            ["--mode", "stream", "--tiered"],
            ["--minimize"],
        ],
    )
    def test_rejected_with_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--skip-self-test"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_minimize_shrinks_a_frame_mode(self, monkeypatch, capsys):
        """--minimize works for every mode, not only the single-instance one."""
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
        assert main(["--mode", "dispatch", "--replay", "2", "--minimize"]) == 1
        out = capsys.readouterr().out
        assert "minimized to 1 riders / 1 vehicles" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["mode"] == "dispatch"
