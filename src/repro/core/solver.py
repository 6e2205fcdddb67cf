"""Unified solver front-end.

``solve(instance, method)`` dispatches to the paper's approaches and returns
a timed :class:`~repro.core.assignment.Assignment`:

=============  ====================================================
method         approach
=============  ====================================================
``"cf"``       Cost-First greedy baseline (Section 7.1.3)
``"eg"``       Efficient Greedy (Algorithm 3)
``"ba"``       Bilateral Arrangement (Algorithm 2)
``"gbs+eg"``   Grouping-Based Scheduling with EG groups (Algorithm 5)
``"gbs+ba"``   Grouping-Based Scheduling with BA groups
``"opt"``      exact enumeration (small instances only)
=============  ====================================================

``solve_anytime`` wraps ``solve`` in a wall-clock watchdog with a fallback
tier chain (configured method → insertion greedy → cost-first greedy →
carried-in baseline), so online callers always commit *some* valid plan
within their frame budget (see :mod:`repro.core.dispatch`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.assignment import Assignment
from repro.core.bilateral import run_bilateral
from repro.core.cost_first import run_cost_first
from repro.core.exact import solve_optimal
from repro.core.greedy import run_efficient_greedy
from repro.core.grouping import GroupingPlan, prepare_grouping, run_grouping
from repro.core.instance import URRInstance
from repro.core.scoring import SolverState
from repro.obs import trace as _trace
from repro.perf import WATCHDOG_STATS

METHODS = ("cf", "eg", "ba", "gbs+eg", "gbs+ba", "opt")

#: Default anytime fallback chain: the fast insertion greedy first, the
#: even cheaper cost-first greedy as the last *solver* tier.
FALLBACK_METHODS = ("eg", "cf")

#: Serving-tier name of the non-solver last resort: the carried-in
#: residual plans (every commitment honoured, no new riders inserted).
BASELINE_TIER = "baseline"


def solve(
    instance: URRInstance,
    method: str = "eg",
    plan: Optional[GroupingPlan] = None,
    opt_max_riders: int = 10,
) -> Assignment:
    """Solve a URR instance with the chosen approach.

    Parameters
    ----------
    instance:
        The problem instance.
    method:
        One of :data:`METHODS`.
    plan:
        Precomputed :class:`GroupingPlan` for the GBS methods (built on
        demand with :func:`~repro.core.grouping.prepare_grouping`'s
        default ``k`` when omitted; pass one to amortise preprocessing
        across instances on the same network, as the paper does).
    opt_max_riders:
        Safety bound forwarded to :func:`~repro.core.exact.solve_optimal`.

    Returns
    -------
    Assignment
        With ``solver_name`` and ``elapsed_seconds`` filled in.  The
        GBS preprocessing time is *not* counted (the paper treats area
        construction as offline road-network preprocessing).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")

    if method == "opt":
        with _trace.span("solver.solve", method="opt"):
            start = time.perf_counter()
            assignment = solve_optimal(instance, max_riders=opt_max_riders)
            assignment.elapsed_seconds = time.perf_counter() - start
        assignment.solver_name = "opt"
        return assignment

    if method.startswith("gbs") and plan is None:
        with _trace.span("solver.prepare_grouping"):
            plan = prepare_grouping(instance.network)

    with _trace.span(
        "solver.solve", method=method, riders=instance.num_riders
    ) as solve_span:
        state = SolverState(instance)
        start = time.perf_counter()
        if method == "cf":
            run_cost_first(state, instance.riders)
        elif method == "eg":
            run_efficient_greedy(state, instance.riders)
        elif method == "ba":
            run_bilateral(state, instance.riders)
        elif method == "gbs+eg":
            assert plan is not None
            run_grouping(state, instance.riders, plan, base="eg")
        elif method == "gbs+ba":
            assert plan is not None
            run_grouping(state, instance.riders, plan, base="ba")

        assignment = Assignment(
            instance=instance,
            schedules=state.schedules,
            solver_name=method,
        )
        assignment.elapsed_seconds = time.perf_counter() - start
        if _trace.enabled():  # num_served walks every schedule
            solve_span.annotate(served=assignment.num_served)
    return assignment


# ----------------------------------------------------------------------
# anytime watchdog
# ----------------------------------------------------------------------
@dataclass
class TierAttempt:
    """What happened to one tier of an anytime solve."""

    tier: str
    status: str  # "accepted" | "rejected" | "error" | "skipped"
    detail: str = ""
    elapsed: float = 0.0


@dataclass
class AnytimeReport:
    """How an anytime solve was served (see :func:`solve_anytime`)."""

    tier: str
    tier_index: int
    budget: Optional[float]
    elapsed: float
    budget_exceeded: bool
    attempts: List[TierAttempt] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when a fallback tier (not the configured method) served."""
        return self.tier_index > 0


def solve_anytime(
    instance: URRInstance,
    method: str = "eg",
    fallbacks: Sequence[str] = FALLBACK_METHODS,
    budget: Optional[float] = None,
    plan: Optional[GroupingPlan] = None,
    accept: Optional[Callable[[Assignment], Optional[str]]] = None,
    **solve_kwargs,
) -> Tuple[Assignment, AnytimeReport]:
    """Solve with a wall-clock budget and an anytime fallback chain.

    Tiers are tried in order — the configured ``method`` first, then each
    distinct entry of ``fallbacks`` — and the first tier whose result the
    ``accept`` callback clears (default: ``Assignment.validity_errors()``
    is empty) wins.  The ``budget`` (seconds) gates tier *entry*: once it
    is spent no further solver tier starts, but a tier already running is
    allowed to finish and its result is still committed (the overrun is
    only recorded as ``budget_exceeded``).  A tier that raises or whose
    plan is rejected falls through to the next.

    When every solver tier is skipped, errored or rejected, the last
    resort is :meth:`Assignment.empty`: the vehicles' carried-in residual
    plans (commitments honoured, no new riders).  The baseline is
    returned *without* an accept check: it is the caller's known-good
    floor, and the caller's own audit is the right place to detect
    carried-state corruption.

    Returns the winning assignment plus an :class:`AnytimeReport` with
    the serving tier and per-tier attempt log.  Every call is counted in
    :data:`repro.perf.WATCHDOG_STATS`.
    """
    tiers = [method] + [t for t in fallbacks if t != method]
    start = time.perf_counter()
    deadline = None if budget is None else start + budget
    attempts: List[TierAttempt] = []
    result: Optional[Assignment] = None
    tier_name = BASELINE_TIER
    tier_index = len(tiers)

    for i, tier in enumerate(tiers):
        if deadline is not None and time.perf_counter() >= deadline:
            attempts.append(
                TierAttempt(tier=tier, status="skipped",
                            detail="frame budget exhausted")
            )
            _trace.instant("solver.tier_skipped", tier=tier)
            continue
        t0 = time.perf_counter()
        with _trace.span("solver.tier", tier=tier, index=i) as tier_span:
            try:
                candidate = solve(
                    instance, method=tier,
                    plan=plan if tier.startswith("gbs") else None,
                    **solve_kwargs,
                )
            except Exception as exc:  # a crashing tier must not kill the frame
                attempts.append(
                    TierAttempt(
                        tier=tier, status="error",
                        detail=f"{type(exc).__name__}: {exc}",
                        elapsed=time.perf_counter() - t0,
                    )
                )
                tier_span.annotate(status="error")
                continue
            if accept is not None:
                reason = accept(candidate)
            else:
                errors = candidate.validity_errors()
                reason = errors[0] if errors else None
            if reason is not None:
                attempts.append(
                    TierAttempt(tier=tier, status="rejected", detail=reason,
                                elapsed=time.perf_counter() - t0)
                )
                tier_span.annotate(status="rejected")
                continue
            attempts.append(
                TierAttempt(tier=tier, status="accepted",
                            elapsed=time.perf_counter() - t0)
            )
            tier_span.annotate(status="accepted")
        result, tier_name, tier_index = candidate, tier, i
        break

    if result is None:
        result = Assignment.empty(instance, solver_name=BASELINE_TIER)
        attempts.append(
            TierAttempt(tier=BASELINE_TIER, status="accepted",
                        detail="carried-in residual plans")
        )
        _trace.instant("solver.tier_baseline", tier=BASELINE_TIER)

    elapsed = time.perf_counter() - start
    exceeded = budget is not None and elapsed > budget
    stats = WATCHDOG_STATS
    stats.frames += 1
    stats.tier_uses[tier_name] = stats.tier_uses.get(tier_name, 0) + 1
    if tier_index > 0:
        stats.fallbacks += 1
    if exceeded:
        stats.budget_exceeded += 1
    return result, AnytimeReport(
        tier=tier_name,
        tier_index=tier_index,
        budget=budget,
        elapsed=elapsed,
        budget_exceeded=exceeded,
        attempts=attempts,
    )
