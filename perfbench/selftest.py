#!/usr/bin/env python3
"""Smoke-scale self-test of the dispatch benchmark.

Runs every workload end to end on a tiny city, untraced and traced, each
in a fresh process exactly as the benchmark is invoked, and checks:

- the result line has the contract's keys and passes the correctness gate;
- every metric named in ``BENCHMARK.json`` is present with its unit, and
  every metric there has a direction;
- the traced run reports every per-layer metric, and the layers each
  workload is built to exercise did work (pruning on ``rush_hour``,
  shards, disruptions and durability on ``ops_chaos`` only);
- the deterministic outputs repeat exactly across two runs of one seed.

Usage (from the repository root)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETERMINISTIC = ("unserved_frac", "utility_per_request", "pickup_wait_p95_min")


def run(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
            "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, spec: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: correctness gate failed"
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    for metric in spec:
        assert metric["better"] in ("higher", "lower"), metric
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{label}: missing {metric['name']}"
        assert got["unit"] == metric["unit"], f"{label}: unit of {metric['name']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {metric['name']}"
    assert len(result["metrics"]) == len(spec), f"{label}: unexpected metrics"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {}
    for workload in (w["name"] for w in bench["workloads"]):
        plain = run(workload, trace=0)
        check_metrics(plain, bench["end_to_end"], f"{workload} untraced")
        again = run(workload, trace=0)
        for name in DETERMINISTIC:
            assert plain["metrics"][name] == again["metrics"][name], (
                f"{workload}: {name} differs between runs of one seed"
            )
        traced = run(workload, trace=1)
        check_metrics(traced, bench["per_layer"], f"{workload} traced")
        layers[workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"ok {workload}")

    rush, dense, chaos = layers["rush_hour"], layers["dense_core"], layers["ops_chaos"]
    assert rush["candidates.pairs_considered"] > 0 and rush["candidates.pruned_frac"] > 0
    assert rush["oracle.ch_queries"] > 0 and dense["oracle.ch_queries"] == 0
    for name in ("shards.partition_s", "disruptions.repair_s", "durability.s"):
        assert chaos[name] > 0, name
        assert rush[name] == 0 and dense[name] == 0, name
    assert chaos["durability.commits"] > 0 and chaos["durability.bytes"] > 0
    assert chaos["oracle.rebuilds"] > 0
    for values in layers.values():
        assert values["insertion.plans"] > 0 and values["solver.s"] > 0
        assert values["trace.unattributed_frac"] <= 0.05
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
