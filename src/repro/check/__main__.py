"""``python -m repro.check`` — the correctness backstop, as a command.

``--mode NAME`` picks one row of :data:`repro.check.fuzz.MODES`
(default ``instance``, the single-instance solver fuzz); every mode
fuzzes ``--seeds N`` consecutive seeds, or keeps drawing seeds until a
wall-clock ``--budget`` is spent.  The corruption classes of
:mod:`repro.check.corruptions` are self-tested on every run (unless
``--skip-self-test``), so a silently-dead validator cannot report a
clean bill of health.

``--replay SEED`` re-runs one seed verbosely (what CI prints for a
failing artifact); ``--replay SEED --minimize`` then shrinks the failing
scenario to a minimal rider/vehicle subset and prints it as JSON.

Exit status is 0 only when every check passed; argument errors exit 2.
Failing seeds are written as a JSON artifact (``--out``) for CI to
upload.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from typing import List, Optional

from repro.core.solver import solve
from repro.perf import VALIDATION_STATS
from repro.check.corruptions import CORRUPTIONS
from repro.check.fuzz import MODES, SeedReport, minimize_seed, run_fuzz, run_trial
from repro.check.scenario import random_instance
from repro.check.validator import validate_assignment
from repro.obs import start_trace, stop_trace


def _parse_budget(text: str) -> float:
    """'90', '90s' or '2m' -> seconds."""
    text = text.strip().lower()
    scale = {"m": 60.0, "s": 1.0}.get(text[-1:])
    try:
        return float(text[:-1] if scale else text) * (scale or 1.0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid budget {text!r}: expected e.g. '90', '90s' or '2m'"
        ) from None


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _self_test(verbose: bool) -> List[str]:
    """Plant each corruption class and confirm the validator catches it.

    Returns a list of problem descriptions (empty when the oracle is
    alive and precise).
    """
    problems: List[str] = []
    # find a seed whose instance is rich enough to plant every corruption
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
        report = validate_assignment(
            instance, case.assignment, claimed_utility=case.claimed_utility
        )
        if case.expected_kind in report.kinds():
            if verbose:
                print(f"  self-test {name!r}: caught ({case.expected_kind.value})")
        else:
            problems.append(
                f"corruption {name!r} NOT caught: expected "
                f"{case.expected_kind.value}, report kinds = "
                f"{sorted(k.value for k in report.kinds())}"
            )
    return problems


def _print_report(report: SeedReport) -> None:
    """The one replay printer: axis draws, counters, failures."""
    draws = " ".join(f"{k}={v}" for k, v in report.draws.items())
    print(f"seed {report.seed} [{report.mode}]: method={report.method or '-'} "
          f"riders={report.riders} vehicles={report.vehicles} {draws}".rstrip())
    stats = " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in sorted(report.stats.items())
    )
    print(f"  {stats}")
    for failure in report.failures:
        print(f"  FAIL {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Validate URR solvers and the dispatcher on seeded "
                    "lockstep fuzz scenarios.",
    )
    parser.add_argument(
        "--mode", choices=list(MODES), default="instance",
        help="fuzz mode (default: instance, the single-instance solver fuzz)",
    )
    parser.add_argument(
        "--seeds", type=_positive, default=25,
        help="number of consecutive seeds to fuzz (default 25)",
    )
    parser.add_argument("--seed-start", type=int, default=0, help="first seed (default 0)")
    parser.add_argument(
        "--budget", type=_parse_budget, default=None,
        help="wall-clock budget, e.g. '60s' or '5m'; keeps drawing seeds "
             "past --seeds until the budget is spent",
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
    if args.minimize and args.replay is None:
        parser.error("--minimize is only valid with --replay")

    if args.trace:
        start_trace(
            args.trace,
            meta={"tool": "repro.check", "argv": list(argv or sys.argv[1:])},
            detail=args.trace_detail,
        )
    try:
        return _run(args)
    finally:
        if args.trace:
            stop_trace()
            print(f"trace written to {args.trace}")


def _run(args: argparse.Namespace) -> int:
    if args.replay is not None:
        report = run_trial(args.replay, args.mode)
        _print_report(report)
        if args.minimize:
            repro = minimize_seed(args.replay, args.mode)
            if repro is None:
                print("  seed does not fail; nothing to minimize")
            else:
                print(
                    f"  minimized to {len(repro.scenario.riders)} riders / "
                    f"{len(repro.scenario.fleet)} vehicles (from "
                    f"{repro.original_riders}/{repro.original_vehicles}):"
                )
                print(json.dumps(repro.as_dict(), indent=2))
        return 0 if report.ok else 1

    problems = [] if args.skip_self_test else _self_test(args.verbose)
    for problem in problems:
        print(f"SELF-TEST FAILURE: {problem}")

    if args.budget is not None:
        seeds = itertools.count(args.seed_start)
    else:
        seeds = range(args.seed_start, args.seed_start + args.seeds)

    def progress(report: SeedReport) -> None:
        if args.verbose or not report.ok:
            status = "ok" if report.ok else "FAIL"
            print(f"seed {report.seed}: {status} ({report.riders}r/"
                  f"{report.vehicles}v, {len(report.failures)} failure(s))")

    start = time.perf_counter()
    run = run_fuzz(seeds, args.mode, stop_after=args.budget, on_seed=progress)
    print(
        f"fuzzed {run.seeds_run} {args.mode} seeds in "
        f"{time.perf_counter() - start:.1f}s: {len(run.failing_seeds)} failing, "
        f"{VALIDATION_STATS.schedules} schedules / "
        f"{VALIDATION_STATS.stops} stops re-validated"
    )
    if not run.ok:
        artifact = run.as_dict()
        artifact["mode"] = args.mode
        artifact["self_test_problems"] = problems
        with open(args.out, "w") as fh:
            json.dump(artifact, fh, indent=2)
        print(f"failing seeds {run.failing_seeds} written to {args.out}")
        for failure in run.failures[:10]:
            print(f"  {failure}")
    return 0 if run.ok and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
