"""repro.check — independent solution validation + differential fuzzing.

The solvers' hot paths are incremental and analytic (PR 1's zero-copy
insertion engine); this package is their deliberately-slow, deliberately-
redundant counterweight:

- :func:`validate_assignment` / :func:`validate_schedule` re-derive every
  constraint (capacity, pickup/drop-off deadlines, stop order) and every
  Eq. 1–5 utility from first principles with fresh oracle calls, sharing
  no code with ``repro.core.schedule`` or ``repro.core.utility``;
- :mod:`repro.check.fuzz` generates seeded randomized instances, runs all
  solver methods, validates each result, sandwiches heuristics between
  OPT and the analytic upper bound, and pins the fast insertion engine
  against its reference implementation; :func:`fuzz_dispatch_seed` does
  the same for whole multi-frame dispatcher runs, validating every frame
  (carried-over commitments included) and the cross-frame invariants;
  :func:`fuzz_chaos_seed` layers seeded mid-horizon disruptions on top,
  asserting rider-ledger conservation and fleet-state integrity
  (:func:`validate_fleet_state`) after every event;
  :func:`fuzz_prune_seed` differential-checks the spatio-temporal
  candidate index (:mod:`repro.core.candidates`) against the full
  all-pairs scan, frame-for-frame;
- :mod:`repro.check.stream` differential-fuzzes the streaming
  micro-batch engine (:mod:`repro.service`): with the interval trigger
  pinned to the frame length it must reproduce batch dispatcher runs
  frame-for-frame, and count-trigger replays must hold every frame and
  ledger invariant;
- :mod:`repro.check.crash` kills durable dispatcher runs at seeded
  WAL/snapshot boundaries, restores them from the checkpoint
  directory (:mod:`repro.core.durability`), and asserts frame-for-frame
  equivalence with an uninterrupted run plus ledger conservation;
- :mod:`repro.check.corruptions` plants known bug classes to prove the
  validator still catches them;
- :mod:`repro.check.utilities` keeps the eager per-pair ``mu_v`` builders
  that the dispatcher's array-backed table replaced, as the reference
  the table is tested against;
- ``python -m repro.check`` drives it all from the command line (see
  ``--help``; CI runs it nightly).

Opt-in debug hooks: ``SolverState(instance, validate=True)`` validates
every committed schedule, ``Dispatcher(..., validate_frames=True)``
validates every dispatched frame.
"""

from repro.check.corruptions import CORRUPTIONS, CorruptedCase
from repro.check.crash import (
    CrashFuzzConfig,
    CrashSeedReport,
    fuzz_crash_seed,
    run_crash_fuzz,
)
from repro.check.stream import (
    StreamFuzzConfig,
    StreamSeedReport,
    fuzz_stream_seed,
    run_stream_fuzz,
)
from repro.check.fuzz import (
    ChaosFuzzConfig,
    ChaosSeedReport,
    DispatchFuzzConfig,
    DispatchSeedReport,
    FuzzConfig,
    FuzzFailure,
    FuzzRunReport,
    MinimizedRepro,
    PruneFuzzConfig,
    PruneSeedReport,
    SeedReport,
    differential_check,
    fuzz_chaos_seed,
    fuzz_dispatch_seed,
    fuzz_prune_seed,
    fuzz_seed,
    minimize_seed,
    random_instance,
    run_chaos_fuzz,
    run_dispatch_fuzz,
    run_fuzz,
    run_prune_fuzz,
)
from repro.check.validator import (
    ValidationError,
    ValidationReport,
    Violation,
    ViolationKind,
    validate_assignment,
    validate_fleet_state,
    validate_schedule,
)

__all__ = [
    "CORRUPTIONS",
    "ChaosFuzzConfig",
    "ChaosSeedReport",
    "CorruptedCase",
    "CrashFuzzConfig",
    "CrashSeedReport",
    "DispatchFuzzConfig",
    "DispatchSeedReport",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzRunReport",
    "MinimizedRepro",
    "PruneFuzzConfig",
    "PruneSeedReport",
    "SeedReport",
    "StreamFuzzConfig",
    "StreamSeedReport",
    "ValidationError",
    "ValidationReport",
    "Violation",
    "ViolationKind",
    "differential_check",
    "fuzz_chaos_seed",
    "fuzz_crash_seed",
    "fuzz_dispatch_seed",
    "fuzz_prune_seed",
    "fuzz_seed",
    "fuzz_stream_seed",
    "minimize_seed",
    "random_instance",
    "run_chaos_fuzz",
    "run_crash_fuzz",
    "run_dispatch_fuzz",
    "run_fuzz",
    "run_prune_fuzz",
    "run_stream_fuzz",
    "validate_assignment",
    "validate_fleet_state",
    "validate_schedule",
]
