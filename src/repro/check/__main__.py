"""``python -m repro.check`` — the correctness backstop, as a command.

Modes
-----
- default: fuzz ``--seeds N`` seeded instances (or keep fuzzing under a
  wall-clock ``--budget``), validating every method's output, the
  dominance sandwich and the insertion-engine differential; the three
  corruption classes are self-tested on every run so a silently-dead
  validator cannot report a clean bill of health.
- ``--dispatch``: fuzz seeded **multi-frame dispatcher scenarios**
  instead of single instances — every frame's assignment is
  independently validated (carried-over commitments and mid-route
  vehicles included) and the cross-frame invariants are asserted at
  every boundary.
- ``--chaos``: fuzz dispatcher scenarios with seeded **mid-horizon
  disruptions** (breakdowns, cancellations, no-shows, travel-time
  perturbations, road closures) injected between frames, asserting
  rider-ledger conservation, no-vanishing-commitments, and full fleet
  re-validation after every event.
- ``--tiered`` (with ``--dispatch`` or ``--chaos``): run the
  **tiered-oracle differential** — the same seeded scenario driven
  through a tier-1 (CH + ALT) :class:`DistanceOracle` must match the
  untiered run frame-for-frame and bit-for-bit on every sampled cost,
  including across disruption-driven invalidation epochs.  With
  ``--prune`` it moves the pruned run onto a forced tier-1 oracle (its
  centre rows in the pinned block) and perturbs travel times mid-run in
  some seeds.
- ``--prune``: differential-fuzz **candidate retrieval** — each seed's
  dispatcher scenario runs once with the full all-pairs scan and once
  through the spatio-temporal candidate index
  (:mod:`repro.core.candidates`, audit armed), asserting identical
  assignments frame-for-frame and zero unsound prunes.
- ``--dispatch-shards``: differential-fuzz **sharded dispatch** — each
  seed's scenario runs unsharded and sharded (:mod:`repro.core.shards`),
  asserting exact equality with the unsharded run on conflict-free
  frames, per-frame never-worse-than-carried-in on the rest, and no
  aggregate service loss across the seed set.
- ``--sharded`` (with ``--chaos``): route the chaos scenarios through
  sharded dispatch.
- ``--crash``: **crash-injection fuzzing** — each seed runs a
  dispatcher scenario twice: uninterrupted, and with durability enabled
  plus a seeded kill (at a named WAL/snapshot crash point or between
  frames); the killed run is
  restored from its checkpoint directory, resumed, and must match the
  uninterrupted run frame-for-frame with a conserved rider ledger and
  identical final fleet state.
- ``--stream``: **streaming differential fuzzing** — each seed's
  dispatcher scenario runs once through the batch ``dispatch_frame``
  loop and once as a timed arrival stream through the micro-batching
  :class:`repro.service.StreamingEngine` with the interval trigger
  pinned to the frame length; the two live dispatchers must match
  stop-for-stop at every frame boundary (sharded/tiered/chaos seeds
  included), and a count-trigger replay of the same stream must hold
  every per-frame and ledger invariant.
- ``--replay SEED``: re-run one seed verbosely (what CI prints for a
  failing artifact); combine with ``--dispatch``, ``--chaos``,
  ``--prune``, ``--dispatch-shards``, ``--crash`` or ``--stream`` to
  replay the corresponding scenario kind.
- ``--replay SEED --minimize``: shrink the failing seed to a minimal
  rider/vehicle subset and print the repro as JSON.

Exit status is 0 only when every check passed.  Failing seeds are written
as a JSON artifact (``--out``) for CI to upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.core.solver import solve
from repro.perf import VALIDATION_STATS
from repro.check.corruptions import CORRUPTIONS
from repro.check.fuzz import (
    ChaosFuzzConfig,
    DispatchFuzzConfig,
    FuzzConfig,
    FuzzRunReport,
    PruneFuzzConfig,
    ShardFuzzConfig,
    fuzz_chaos_seed,
    fuzz_dispatch_seed,
    fuzz_prune_seed,
    fuzz_seed,
    fuzz_shard_seed,
    minimize_seed,
    random_instance,
    run_chaos_fuzz,
    run_dispatch_fuzz,
    run_fuzz,
    run_prune_fuzz,
    run_shard_fuzz,
)
from repro.check.crash import CrashFuzzConfig, fuzz_crash_seed, run_crash_fuzz
from repro.check.stream import (
    StreamFuzzConfig,
    fuzz_stream_seed,
    run_stream_fuzz,
)
from repro.check.validator import validate_assignment
from repro.obs import start_trace, stop_trace


def _parse_budget(text: str) -> float:
    """'90', '90s' or '2m' -> seconds."""
    text = text.strip().lower()
    if text.endswith("m"):
        return float(text[:-1]) * 60.0
    if text.endswith("s"):
        return float(text[:-1])
    return float(text)


def _self_test(verbose: bool) -> List[str]:
    """Plant each corruption class and confirm the validator catches it.

    Returns a list of problem descriptions (empty when the oracle is
    alive and precise).
    """
    problems: List[str] = []
    # find a seed whose instance is rich enough to plant every corruption
    instance = assignment = None
    for candidate in range(16):
        instance, _ = random_instance(candidate)
        assignment = solve(instance, method="eg")
        if assignment.num_served and all(
            inject(instance, assignment) is not None
            for inject in CORRUPTIONS.values()
        ):
            break
    else:
        return ["no seed in 0..15 yields a plantable self-test instance"]
    for name, inject in CORRUPTIONS.items():
        case = inject(instance, assignment)
        if case is None:
            problems.append(f"corruption {name!r} could not be planted")
            continue
        report = validate_assignment(
            instance, case.assignment, claimed_utility=case.claimed_utility
        )
        if case.expected_kind in report.kinds():
            if verbose:
                print(
                    f"  self-test {name!r}: caught "
                    f"({case.expected_kind.value})"
                )
        else:
            problems.append(
                f"corruption {name!r} NOT caught: expected "
                f"{case.expected_kind.value}, report kinds = "
                f"{sorted(k.value for k in report.kinds())}"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Validate URR solvers on seeded fuzz instances.",
    )
    parser.add_argument(
        "--seeds", type=int, default=25,
        help="number of consecutive seeds to fuzz (default 25)",
    )
    parser.add_argument(
        "--seed-start", type=int, default=0,
        help="first seed (default 0)",
    )
    parser.add_argument(
        "--budget", type=str, default=None,
        help="wall-clock budget, e.g. '60s' or '5m'; keeps drawing seeds "
             "past --seeds until the budget is spent",
    )
    parser.add_argument(
        "--dispatch", action="store_true",
        help="fuzz multi-frame dispatcher scenarios instead of "
             "single instances",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="fuzz dispatcher scenarios with mid-horizon disruptions "
             "(breakdowns, cancellations, perturbations, closures)",
    )
    parser.add_argument(
        "--prune", action="store_true",
        help="differential-fuzz candidate retrieval: pruned dispatch "
             "runs must match the full all-pairs scan frame-for-frame",
    )
    parser.add_argument(
        "--dispatch-shards", action="store_true",
        help="differential-fuzz sharded dispatch: sharded runs must "
             "match unsharded dispatch on conflict-free frames",
    )
    parser.add_argument(
        "--crash", action="store_true",
        help="crash-injection fuzzing: kill durable dispatcher runs at "
             "seeded WAL/snapshot boundaries, restore from the "
             "checkpoint directory, and assert frame-for-frame "
             "equivalence with an uninterrupted run",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="streaming differential fuzzing: a micro-batch engine with "
             "the interval trigger pinned to the frame length must "
             "reproduce batch dispatcher runs frame-for-frame (incl. "
             "sharded/tiered/chaos seeds), and count-trigger runs must "
             "hold every frame and ledger invariant",
    )
    parser.add_argument(
        "--tiered", action="store_true",
        help="with --dispatch or --chaos: run the tiered-oracle "
             "differential — a tier-1 (CH + ALT) DistanceOracle must "
             "match the untiered run frame-for-frame and bit-for-bit on "
             "every sampled cost, including across disruption epochs; "
             "with --prune: prune on a forced tier-1 oracle, with a "
             "mid-run travel-time perturbation in some seeds",
    )
    parser.add_argument(
        "--sharded", action="store_true",
        help="with --chaos: route chaos scenarios through sharded dispatch",
    )
    parser.add_argument(
        "--replay", type=int, default=None, metavar="SEED",
        help="re-run one seed verbosely instead of fuzzing",
    )
    parser.add_argument(
        "--minimize", action="store_true",
        help="with --replay: shrink the failure to a minimal repro",
    )
    parser.add_argument(
        "--skip-self-test", action="store_true",
        help="skip the planted-corruption self-test",
    )
    parser.add_argument(
        "--out", type=str, default="check-failures.json",
        help="where to write the failing-seed artifact (JSON)",
    )
    parser.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="record a JSONL trace of the run (inspect with "
             "'python -m repro.obs summary PATH')",
    )
    parser.add_argument(
        "--trace-detail", action="store_true",
        help="with --trace: also record fine-grained per-insertion events",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.sharded and not args.chaos:
        parser.error("--sharded is only valid with --chaos")
    verbose = args.verbose

    if args.trace:
        start_trace(
            args.trace,
            meta={"tool": "repro.check", "argv": list(argv or sys.argv[1:])},
            detail=args.trace_detail,
        )
    try:
        return _run(args, verbose)
    finally:
        if args.trace:
            stop_trace()
            print(f"trace written to {args.trace}")


def _run(args: argparse.Namespace, verbose: bool) -> int:

    shard_config = ShardFuzzConfig()
    chaos_config = ChaosFuzzConfig(sharded=args.sharded, tiered=args.tiered)
    dispatch_config = DispatchFuzzConfig(tiered=args.tiered)
    prune_config = PruneFuzzConfig(tiered=args.tiered)
    crash_config = CrashFuzzConfig()
    stream_config = StreamFuzzConfig()

    # ------------------------------------------------------------------
    if args.replay is not None and args.stream:
        streport = fuzz_stream_seed(args.replay, stream_config)
        print(
            f"seed {streport.seed}: method={streport.method} "
            f"mode={streport.mode} frames={streport.num_frames} "
            f"vehicles={streport.num_vehicles} "
            f"frame_length={streport.frame_length:.2f} "
            f"max_retries={streport.max_retries} "
            f"max_batch={streport.max_batch}"
        )
        print(
            f"  riders={streport.num_riders} "
            f"served={streport.total_served} "
            f"events={streport.num_events} "
            f"count_batches={streport.count_batches}"
        )
        for failure in streport.failures:
            print(f"  FAIL {failure}")
        return 0 if streport.ok else 1

    if args.replay is not None and args.crash:
        xreport = fuzz_crash_seed(args.replay, crash_config)
        print(
            f"seed {xreport.seed}: method={xreport.method} "
            f"mode={xreport.mode} kill={xreport.kill_kind}@frame "
            f"{xreport.kill_frame} frames={xreport.num_frames} "
            f"checkpoint_every={xreport.checkpoint_every}"
        )
        print(
            f"  riders={xreport.num_riders} "
            f"frames_restored={xreport.frames_restored} "
            f"frames_resumed={xreport.frames_resumed}"
        )
        for failure in xreport.failures:
            print(f"  FAIL {failure}")
        return 0 if xreport.ok else 1

    if args.replay is not None and args.chaos:
        creport = fuzz_chaos_seed(args.replay, chaos_config)
        print(
            f"seed {creport.seed}: method={creport.method} "
            f"frames={creport.num_frames} vehicles={creport.num_vehicles} "
            f"frame_length={creport.frame_length:.2f} "
            f"max_retries={creport.max_retries} "
            f"watchdog={'on' if creport.watchdog else 'off'}"
        )
        print(
            f"  requests={creport.total_requests} "
            f"served={creport.total_served} "
            f"events={creport.num_events} applied={creport.num_applied}"
        )
        print(f"  ledger={creport.ledger}")
        for failure in creport.failures:
            print(f"  FAIL {failure}")
        return 0 if creport.ok else 1

    if args.replay is not None and args.dispatch_shards:
        sreport = fuzz_shard_seed(args.replay, shard_config)
        print(
            f"seed {sreport.seed}: method={sreport.method} "
            f"frames={sreport.num_frames} vehicles={sreport.num_vehicles} "
            f"frame_length={sreport.frame_length:.2f} "
            f"max_retries={sreport.max_retries} "
            f"shards={sreport.shard_count}"
        )
        print(
            f"  requests={sreport.total_requests} "
            f"served={sreport.total_served} "
            f"baseline_served={sreport.baseline_served} "
            f"strict_frames={sreport.strict_frames} "
            f"conflict_frames={sreport.conflict_frames}"
        )
        for failure in sreport.failures:
            print(f"  FAIL {failure}")
        return 0 if sreport.ok else 1

    if args.replay is not None and args.prune:
        preport = fuzz_prune_seed(args.replay, prune_config)
        print(
            f"seed {preport.seed}: method={preport.method} "
            f"mode={preport.mode} frames={preport.num_frames} "
            f"vehicles={preport.num_vehicles} "
            f"frame_length={preport.frame_length:.2f} "
            f"max_retries={preport.max_retries} "
            f"perturbed_at={preport.perturbed_at}"
        )
        print(
            f"  requests={preport.total_requests} "
            f"served={preport.total_served} "
            f"pairs={preport.pairs_considered} "
            f"pruned={preport.pairs_pruned}"
        )
        for failure in preport.failures:
            print(f"  FAIL {failure}")
        return 0 if preport.ok else 1

    if args.replay is not None and args.dispatch:
        dreport = fuzz_dispatch_seed(args.replay, dispatch_config)
        print(
            f"seed {dreport.seed}: method={dreport.method} "
            f"frames={dreport.num_frames} vehicles={dreport.num_vehicles} "
            f"frame_length={dreport.frame_length:.2f} "
            f"max_retries={dreport.max_retries}"
        )
        print(
            f"  requests={dreport.total_requests} "
            f"served={dreport.total_served} "
            f"carried={dreport.total_carried}"
        )
        for failure in dreport.failures:
            print(f"  FAIL {failure}")
        return 0 if dreport.ok else 1

    if args.replay is not None:
        report = fuzz_seed(args.replay)
        print(
            f"seed {report.seed}: scenario={report.scenario} "
            f"riders={report.num_riders} vehicles={report.num_vehicles} "
            f"alpha={report.alpha:g} beta={report.beta:g}"
        )
        for method, utility in sorted(report.utilities.items()):
            print(f"  {method:8s} utility={utility:.6f}")
        print(f"  bound    utility<={report.bound:.6f}")
        for failure in report.failures:
            print(f"  FAIL {failure}")
        if args.minimize:
            repro = minimize_seed(args.replay)
            if repro is None:
                print("  seed does not fail; nothing to minimize")
            else:
                print(
                    f"  minimized to {repro.instance.num_riders} riders / "
                    f"{repro.instance.num_vehicles} vehicles "
                    f"(from {repro.original_riders}/{repro.original_vehicles}):"
                )
                print(json.dumps(repro.as_dict(), indent=2))
        return 0 if report.ok else 1

    # ------------------------------------------------------------------
    # the self-test plants corruptions into single-instance assignments;
    # it exercises the same validator the dispatcher mode leans on
    problems = [] if args.skip_self_test else _self_test(verbose)
    for problem in problems:
        print(f"SELF-TEST FAILURE: {problem}")

    budget = _parse_budget(args.budget) if args.budget else None
    if budget is not None:
        # with a budget, draw seeds until time runs out
        def seed_stream():
            seed = args.seed_start
            while True:
                yield seed
                seed += 1
        seeds = seed_stream()
    else:
        seeds = range(args.seed_start, args.seed_start + args.seeds)

    start = time.perf_counter()

    def progress(seed_report):
        if verbose or not seed_report.ok:
            status = "ok" if seed_report.ok else "FAIL"
            print(
                f"seed {seed_report.seed}: {status} "
                f"({seed_report.scenario}, {seed_report.num_riders}r/"
                f"{seed_report.num_vehicles}v, "
                f"{len(seed_report.failures)} failure(s))"
            )

    if args.stream:
        run: FuzzRunReport = run_stream_fuzz(
            seeds, stream_config, stop_after=budget, on_seed=progress
        )
    elif args.crash:
        run = run_crash_fuzz(
            seeds, crash_config, stop_after=budget, on_seed=progress
        )
    elif args.chaos:
        run = run_chaos_fuzz(
            seeds, chaos_config, stop_after=budget, on_seed=progress
        )
    elif args.prune:
        run = run_prune_fuzz(
            seeds, prune_config, stop_after=budget, on_seed=progress
        )
    elif args.dispatch_shards:
        run = run_shard_fuzz(
            seeds, shard_config, stop_after=budget, on_seed=progress
        )
    elif args.dispatch:
        run = run_dispatch_fuzz(
            seeds, dispatch_config, stop_after=budget, on_seed=progress
        )
    else:
        run = run_fuzz(seeds, stop_after=budget, on_seed=progress)
    elapsed = time.perf_counter() - start

    if args.stream:
        what = "stream differentials"
    elif args.crash:
        what = "crash-recovery trials"
    elif args.chaos:
        what = "chaos scenarios"
    elif args.prune:
        what = (
            "tiered prune differentials" if args.tiered
            else "prune differentials"
        )
    elif args.dispatch_shards:
        what = "shard differentials"
    elif args.dispatch:
        what = (
            "tiered-oracle differentials" if args.tiered
            else "dispatcher scenarios"
        )
    else:
        what = "seeds"
    print(
        f"fuzzed {run.seeds_run} {what} in {elapsed:.1f}s: "
        f"{len(run.failing_seeds)} failing, "
        f"{VALIDATION_STATS.schedules} schedules / "
        f"{VALIDATION_STATS.stops} stops re-validated"
    )
    ok = run.ok and not problems
    if not run.ok:
        artifact = run.as_dict()
        artifact["self_test_problems"] = problems
        with open(args.out, "w") as fh:
            json.dump(artifact, fh, indent=2)
        print(f"failing seeds {run.failing_seeds} written to {args.out}")
        for failure in run.failures[:10]:
            print(f"  {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
