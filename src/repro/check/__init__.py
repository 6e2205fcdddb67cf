"""repro.check — independent solution validation + differential fuzzing.

The solvers' hot paths are incremental and analytic (PR 1's zero-copy
insertion engine); this package is their deliberately-slow, deliberately-
redundant counterweight:

- :func:`validate_assignment` / :func:`validate_schedule` re-derive every
  constraint (capacity, pickup/drop-off deadlines, stop order) and every
  Eq. 1–5 utility from first principles with fresh oracle calls, sharing
  no code with ``repro.core.schedule`` or ``repro.core.utility``;
- :mod:`repro.check.scenario` draws one seeded scenario per seed — city,
  method, weights, frame length, retries, fleet, every frame's riders —
  as plain data that every fuzz mode shares;
- :mod:`repro.check.fuzz` is the one lockstep runner over it:
  :func:`run_trial` drives a reference dispatcher and an optional
  candidate (tier-1 oracle, candidate index or sharded dispatch) through
  the scenario, optionally under seeded disruptions, with the candidate
  consuming frames through ``dispatch_frame``, the streaming engine
  (:mod:`repro.check.stream`) or kill → restore → resume
  (:mod:`repro.check.crash`).  Every run is validated frame by frame
  (:func:`validate_assignment`, the cross-frame invariants, rider-ledger
  conservation, :func:`validate_fleet_state` after disruptions) and every
  pair is compared stop for stop.  Each fuzz mode is one row of
  :data:`MODES`; the ``instance`` row is the single-instance solver
  fuzz (dominance sandwich plus the insertion-engine differential), and
  :func:`minimize_seed` shrinks a failing seed of any mode;
- :mod:`repro.check.corruptions` plants known bug classes to prove the
  validator still catches them;
- :mod:`repro.check.utilities` keeps the eager per-pair ``mu_v`` builders
  that the dispatcher's array-backed table replaced, as the reference
  the table is tested against;
- :mod:`repro.check.rebuild` keeps the rebuild-everything frame state
  (every vehicle re-read and audited every frame) as the
  reference for the dispatcher's incremental one (the ``rebuild`` fuzz
  config token);
- ``python -m repro.check --mode NAME`` drives it all from the command
  line (see ``--help``; CI runs every mode).

The validator is a test oracle, not a runtime mode: no solver or
dispatcher setting calls it.  Tests and the fuzz harness validate an
assignment by calling :func:`validate_assignment` on it themselves; the
dispatcher's own audit of every frame is
``Dispatcher._enforce_validity``.
"""

from repro.check.corruptions import CORRUPTIONS, CorruptedCase
from repro.check.crash import KILL_KINDS
from repro.check.fuzz import (
    MODES,
    FuzzFailure,
    FuzzRunReport,
    MinimizedRepro,
    Mode,
    SeedReport,
    differential_check,
    minimize_seed,
    run_fuzz,
    run_trial,
)
from repro.check.scenario import Scenario, Shape, draw_scenario, random_instance
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
    "CorruptedCase",
    "FuzzFailure",
    "FuzzRunReport",
    "KILL_KINDS",
    "MODES",
    "MinimizedRepro",
    "Mode",
    "Scenario",
    "SeedReport",
    "Shape",
    "ValidationError",
    "ValidationReport",
    "Violation",
    "ViolationKind",
    "differential_check",
    "draw_scenario",
    "minimize_seed",
    "random_instance",
    "run_fuzz",
    "run_trial",
    "validate_assignment",
    "validate_fleet_state",
    "validate_schedule",
]
