"""``python -m repro.obs`` — inspect and compare recorded traces.

Subcommands
-----------
``summary <trace.jsonl>``
    Schema-validate the trace and print the per-frame breakdown, the
    top spans by total time and the serving-tier histogram.  Exits
    non-zero on any schema violation (the CI trace-smoke gate).
``diff <a.jsonl> <b.jsonl> [--threshold PCT]``
    Compare two traces span-by-span.  With ``--threshold`` the exit
    status is 2 when any span's total time grew by more than PCT
    percent — a one-command perf-regression gate.

Traces are recorded with ``python -m repro.check --mode dispatch --trace
out.jsonl`` (any fuzz mode), by the benchmarks' ``--trace`` flag, or
programmatically via :func:`repro.obs.start_trace`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs.summary import diff, load_trace, summarize


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarise and diff repro.obs JSONL traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser(
        "summary", help="validate a trace and print its breakdown"
    )
    p_summary.add_argument("trace", help="trace file (JSONL)")
    p_summary.add_argument(
        "--top", type=int, default=10,
        help="number of span rows in the top-spans table (default 10)",
    )

    p_diff = sub.add_parser("diff", help="compare two traces span-by-span")
    p_diff.add_argument("old", help="baseline trace (JSONL)")
    p_diff.add_argument("new", help="candidate trace (JSONL)")
    p_diff.add_argument(
        "--threshold", type=float, default=None, metavar="PCT",
        help="exit 2 when any span's total time grew by more than PCT%%",
    )

    args = parser.parse_args(argv)

    try:
        return _run(args)
    except BrokenPipeError:
        # output piped into head/less that exited early: not an error
        sys.stderr.close()
        return 0


def _run(args: argparse.Namespace) -> int:
    if args.command == "summary":
        trace = load_trace(args.trace)
        if trace.problems:
            for problem in trace.problems[:20]:
                print(f"SCHEMA VIOLATION: {problem}", file=sys.stderr)
            if len(trace.problems) > 20:
                print(
                    f"... and {len(trace.problems) - 20} more",
                    file=sys.stderr,
                )
            return 1
        print(summarize(trace, top=args.top))
        return 0

    # diff
    old = load_trace(args.old)
    new = load_trace(args.new)
    problems = [f"{t.path}: {p}" for t in (old, new) for p in t.problems]
    if problems:
        for problem in problems[:20]:
            print(f"SCHEMA VIOLATION: {problem}", file=sys.stderr)
        return 1
    threshold = None if args.threshold is None else args.threshold / 100.0
    report, regressed = diff(old, new, threshold=threshold)
    print(report)
    return 2 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
