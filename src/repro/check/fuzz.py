"""Seeded differential-fuzz harness for the URR solvers.

One seed drives one end-to-end trial:

1. **generate** — a randomized small instance from one of the canned
   :mod:`repro.workload.scenarios` regimes on a perturbed grid city
   (riders, vehicles, deadlines, ``alpha``/``beta`` and pairwise
   similarities all seed-derived);
2. **solve** — every method in :data:`repro.core.solver.METHODS` (OPT only
   while the rider count keeps enumeration tractable);
3. **validate** — each result through the independent
   :func:`repro.check.validate_assignment` oracle;
4. **cross-check** — dominance sandwich ``heuristic <= OPT <=
   utility_upper_bound`` (and every method below the bound even when OPT
   is skipped);
5. **differential** — the zero-copy insertion engine against
   :func:`repro.core.insertion.arrange_single_rider_reference`,
   rider-by-rider, on the empty and the solved schedules.

A second harness targets the **rolling-horizon dispatcher**
(:func:`fuzz_dispatch_seed`): one seed drives a whole multi-frame run —
fleet, frame length, solver method, retry budget and every frame's
requests are seed-derived; every frame's assignment goes through the
independent validator (which re-checks carried-over commitments and
mid-route vehicle state), and the dispatcher's cross-frame invariants
(ready times ahead of the clock, carry-over queue discipline, conserved
rider accounting) are asserted at every boundary.

A third harness (:func:`fuzz_chaos_seed`) layers **typed mid-horizon
disruptions** (:mod:`repro.core.disruptions`) over the dispatcher
scenarios: vehicle breakdowns, rider cancellations and no-shows,
travel-time perturbations and road closures are injected between frames
from a seeded schedule, asserting at every boundary that the rider
ledger conserves every rider ever issued, that no committed rider
vanishes except through an explicit disruption outcome, and that every
repaired fleet state passes the independent validator.

A fourth harness (:func:`fuzz_prune_seed`) differential-checks
**candidate retrieval** (:mod:`repro.core.candidates`): the same seeded
multi-frame scenario runs once with the full all-pairs scan and once
through the spatio-temporal candidate index (audit armed), asserting the
two runs agree frame-for-frame — served riders, schedules stop by stop,
carry-over queues and rider ledgers — and that no pruned pair survives
an exact reachability re-check.

The dispatch and chaos harnesses also run in a **tiered** mode
(``DispatchFuzzConfig.tiered`` / ``ChaosFuzzConfig.tiered``,
``python -m repro.check --dispatch --tiered`` / ``--chaos --tiered``):
the same seeded scenario is driven through a tier-1
(CH + ALT) :class:`~repro.roadnet.oracle.DistanceOracle` and must match
the untiered run frame-for-frame, with a direct bitwise cost sweep on
top — tiered and untiered oracles must return ``==`` floats for every
sampled pair, including across chaos-driven invalidation epochs.

Everything is deterministic in the seed, so any failure is replayable
(``python -m repro.check --replay SEED`` /
``--replay SEED --dispatch`` / ``--replay SEED --chaos`` /
``--replay SEED --prune``) and shrinkable
(:func:`minimize_seed` greedily drops riders/vehicles while the failure
persists) into a minimal repro.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.bounds import utility_upper_bound
from repro.core.dispatch import DispatchError, Dispatcher, RiderStatus
from repro.core.disruptions import (
    RiderCancellation,
    RiderNoShow,
    RoadClosure,
    TravelTimePerturbation,
    VehicleBreakdown,
)
from repro.core.grouping import GroupingPlan, prepare_grouping
from repro.core.requests import Rider
from repro.core.vehicles import Vehicle
from repro.core.insertion import (
    arrange_single_rider,
    arrange_single_rider_reference,
)
from repro.core.instance import URRInstance
from repro.core.scoring import SolverState
from repro.core.solver import METHODS, solve
from repro.obs import trace as _trace
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.workload.instances import InstanceConfig, build_instance
from repro.workload.scenarios import SCENARIOS
from repro.check.validator import (
    ValidationReport,
    validate_assignment,
    validate_fleet_state,
)

_EPS = 1e-6

#: (alpha, beta) profiles the fuzzer cycles through — the corner cases of
#: Eq. 1 (each term alone) plus the paper's balanced default.
_WEIGHT_PROFILES: Tuple[Tuple[float, float], ...] = (
    (0.33, 0.33),
    (1.0, 0.0),
    (0.0, 1.0),
    (0.0, 0.0),
    (0.5, 0.25),
)


@dataclass
class FuzzConfig:
    """Shape of the randomized instances and of the checks."""

    grid_rows: int = 5
    grid_cols: int = 5
    num_networks: int = 4          # distinct cached road networks
    min_riders: int = 3
    max_riders: int = 8
    min_vehicles: int = 1
    max_vehicles: int = 3
    max_capacity: int = 3
    opt_max_riders: int = 6        # OPT is exponential; keep it tractable
    methods: Tuple[str, ...] = METHODS
    differential: bool = True
    audit_event_fields: bool = True
    similarity_pairs: int = 8      # random Eq. 3 overrides per instance


@dataclass(frozen=True)
class FuzzFailure:
    """One check that failed for one seed."""

    seed: int
    stage: str       # "validate" | "cross_check" | "differential"
    method: str
    detail: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "stage": self.stage,
            "method": self.method,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return f"seed {self.seed} [{self.stage}/{self.method}] {self.detail}"


@dataclass
class SeedReport:
    """Everything one fuzz trial produced."""

    seed: int
    scenario: str
    num_riders: int
    num_vehicles: int
    alpha: float
    beta: float
    utilities: Dict[str, float] = field(default_factory=dict)
    bound: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# instance generation (deterministic in the seed)
# ----------------------------------------------------------------------
_NETWORK_CACHE: Dict[Tuple[int, int, int], Tuple[RoadNetwork, DistanceOracle]] = {}
_PLAN_CACHE: Dict[int, GroupingPlan] = {}


def _network_for(config: FuzzConfig, seed: int) -> Tuple[RoadNetwork, DistanceOracle]:
    net_seed = seed % max(config.num_networks, 1)
    key = (config.grid_rows, config.grid_cols, net_seed)
    cached = _NETWORK_CACHE.get(key)
    if cached is None:
        network = grid_city(
            config.grid_rows,
            config.grid_cols,
            seed=net_seed,
            removal_fraction=0.0,
            arterial_every=None,
        )
        cached = (network, DistanceOracle(network))
        _NETWORK_CACHE[key] = cached
    return cached


def _plan_for(network: RoadNetwork) -> GroupingPlan:
    key = id(network)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = prepare_grouping(network, k=8)
        _PLAN_CACHE[key] = plan
    return plan


def random_instance(
    seed: int, config: Optional[FuzzConfig] = None
) -> Tuple[URRInstance, str]:
    """The seed's randomized instance and the scenario name that shaped it."""
    config = config or FuzzConfig()
    rng = np.random.default_rng(seed)
    network, oracle = _network_for(config, seed)
    scenario_names = sorted(SCENARIOS)
    scenario = scenario_names[int(rng.integers(len(scenario_names)))]
    simulator = SCENARIOS[scenario](network, seed=seed, oracle=oracle)

    alpha, beta = _WEIGHT_PROFILES[int(rng.integers(len(_WEIGHT_PROFILES)))]
    lo = float(rng.uniform(4.0, 10.0))
    instance_config = InstanceConfig(
        num_riders=int(rng.integers(config.min_riders, config.max_riders + 1)),
        num_vehicles=int(rng.integers(config.min_vehicles, config.max_vehicles + 1)),
        pickup_deadline_range=(lo, lo + float(rng.uniform(2.0, 10.0))),
        capacity=int(rng.integers(1, config.max_capacity + 1)),
        alpha=alpha,
        beta=beta,
        flexible_factor=float(rng.uniform(1.2, 2.5)),
        seed=seed,
    )
    instance = build_instance(
        network, instance_config, oracle=oracle, simulator=simulator
    )
    # random Eq. 3 similarities so the rider-related term is exercised even
    # without a social network attached
    ids = [r.rider_id for r in instance.riders]
    for _ in range(min(config.similarity_pairs, len(ids) * (len(ids) - 1) // 2)):
        a, b = rng.choice(ids, size=2, replace=False)
        a, b = int(min(a, b)), int(max(a, b))
        instance.similarity_overrides[(a, b)] = float(rng.uniform(0.0, 1.0))
    return instance, scenario


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
def _validate_stage(
    seed: int,
    method: str,
    instance: URRInstance,
    assignment: Assignment,
    config: FuzzConfig,
    failures: List[FuzzFailure],
) -> ValidationReport:
    report = validate_assignment(
        instance, assignment, audit_event_fields=config.audit_event_fields
    )
    for violation in report.violations:
        failures.append(
            FuzzFailure(seed=seed, stage="validate", method=method,
                        detail=str(violation))
        )
    return report


def differential_check(
    instance: URRInstance,
    sequences: Iterable,
    seed: int = -1,
) -> List[FuzzFailure]:
    """Pin the fast insertion engine against the reference, rider by rider.

    For every (schedule, rider-not-already-in-it) combination both engines
    must agree on feasibility and on the minimum incremental cost, and the
    fast path's materialised sequence must itself be valid.
    """
    failures: List[FuzzFailure] = []
    for seq in sequences:
        present = seq.rider_ids()
        for rider in instance.riders:
            if rider.rider_id in present:
                continue
            fast = arrange_single_rider(seq, rider)
            reference = arrange_single_rider_reference(seq, rider)
            if (fast is None) != (reference is None):
                failures.append(
                    FuzzFailure(
                        seed=seed, stage="differential", method="engine",
                        detail=(
                            f"feasibility disagrees for rider "
                            f"{rider.rider_id} on {seq!r}: fast={fast!r}, "
                            f"reference={reference!r}"
                        ),
                    )
                )
                continue
            if fast is None or reference is None:
                continue
            if abs(fast.delta_cost - reference.delta_cost) > _EPS:
                failures.append(
                    FuzzFailure(
                        seed=seed, stage="differential", method="engine",
                        detail=(
                            f"delta cost disagrees for rider {rider.rider_id} "
                            f"on {seq!r}: fast={fast.delta_cost!r}, "
                            f"reference={reference.delta_cost!r}"
                        ),
                    )
                )
                continue
            errors = fast.sequence.validity_errors()
            if errors:
                failures.append(
                    FuzzFailure(
                        seed=seed, stage="differential", method="engine",
                        detail=(
                            f"fast-path sequence invalid for rider "
                            f"{rider.rider_id}: {errors[:2]}"
                        ),
                    )
                )
    return failures


def fuzz_seed(seed: int, config: Optional[FuzzConfig] = None) -> SeedReport:
    """Run the full generate/solve/validate/cross-check/differential trial."""
    config = config or FuzzConfig()
    instance, scenario = random_instance(seed, config)
    report = SeedReport(
        seed=seed,
        scenario=scenario,
        num_riders=instance.num_riders,
        num_vehicles=instance.num_vehicles,
        alpha=instance.alpha,
        beta=instance.beta,
    )
    failures = report.failures

    bound = utility_upper_bound(instance)
    report.bound = bound.total
    plan = _plan_for(instance.network)

    assignments: Dict[str, Assignment] = {}
    for method in config.methods:
        if method == "opt" and instance.num_riders > config.opt_max_riders:
            continue
        assignment = solve(
            instance, method=method, plan=plan,
            opt_max_riders=config.opt_max_riders,
        )
        assignments[method] = assignment
        _validate_stage(seed, method, instance, assignment, config, failures)
        report.utilities[method] = assignment.total_utility()

    # dominance sandwich: heuristic <= OPT <= upper bound
    for method, utility in report.utilities.items():
        if utility > bound.total + _EPS:
            failures.append(
                FuzzFailure(
                    seed=seed, stage="cross_check", method=method,
                    detail=(
                        f"utility {utility:.9f} exceeds the analytic upper "
                        f"bound {bound.total:.9f}"
                    ),
                )
            )
    opt_utility = report.utilities.get("opt")
    if opt_utility is not None:
        for method, utility in report.utilities.items():
            if method != "opt" and utility > opt_utility + _EPS:
                failures.append(
                    FuzzFailure(
                        seed=seed, stage="cross_check", method=method,
                        detail=(
                            f"heuristic utility {utility:.9f} exceeds OPT "
                            f"{opt_utility:.9f}"
                        ),
                    )
                )

    if config.differential:
        sequences = [instance.empty_sequence(v) for v in instance.vehicles]
        for method in ("eg", "ba"):
            if method in assignments:
                sequences.extend(assignments[method].schedules.values())
        failures.extend(differential_check(instance, sequences, seed=seed))
    return report


# ----------------------------------------------------------------------
# multi-frame dispatcher fuzzing
# ----------------------------------------------------------------------
@dataclass
class DispatchFuzzConfig:
    """Shape of the randomized multi-frame dispatcher scenarios.

    With ``tiered`` set, each seed becomes a differential trial instead:
    the same pre-drawn multi-frame scenario runs through two dispatchers —
    one on the untiered (APSP) oracle, one on a tier-1 (CH + ALT) oracle
    forced via ``DistanceOracle(tier=1)`` — and the runs must agree
    frame-for-frame, with a direct bitwise cost sweep on top (tiered and
    untiered oracles must return ``==`` floats for every sampled pair).
    """

    grid_rows: int = 6
    grid_cols: int = 6
    num_networks: int = 4
    min_frames: int = 4            # every scenario spans >= 4 frames
    max_frames: int = 6
    min_riders_per_frame: int = 2
    max_riders_per_frame: int = 5
    min_vehicles: int = 1
    max_vehicles: int = 3
    max_capacity: int = 3
    methods: Tuple[str, ...] = ("eg", "ba", "cf", "gbs+eg")
    audit_event_fields: bool = True
    tiered: bool = False


@dataclass
class DispatchSeedReport:
    """Everything one dispatcher fuzz trial produced."""

    seed: int
    method: str = ""
    num_frames: int = 0
    num_vehicles: int = 0
    frame_length: float = 0.0
    max_retries: int = 1
    total_requests: int = 0
    total_served: int = 0
    total_carried: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    # keep the FuzzRunReport aggregation happy
    scenario: str = "dispatch"
    num_riders: int = 0


def _dispatch_requests(
    network: RoadNetwork,
    oracle: DistanceOracle,
    rng: np.random.Generator,
    count: int,
    clock: float,
    frame_length: float,
    id_start: int,
    pickup_slack: Tuple[float, float] = (0.5, 3.5),
) -> List[Rider]:
    """``count`` seeded requests revealed at ``clock``.

    Deadlines live on the absolute dispatcher clock; the default pickup
    slack spans one to several frames so riders are regularly carried
    over, and the drop-off detour factor keeps shared rides feasible.
    The shard fuzzer narrows ``pickup_slack`` on its tight-locality
    seeds so only nearby vehicles qualify and conflict-free frames
    actually occur.
    """
    riders: List[Rider] = []
    n = network.num_nodes
    for i in range(count):
        source = int(rng.integers(n))
        destination = int(rng.integers(n))
        while destination == source:
            destination = int(rng.integers(n))
        shortest = oracle.cost(source, destination)
        pickup = clock + float(rng.uniform(*pickup_slack)) * frame_length
        riders.append(
            Rider(
                rider_id=id_start + i,
                source=source,
                destination=destination,
                pickup_deadline=pickup,
                dropoff_deadline=pickup
                + float(rng.uniform(1.2, 2.5)) * shortest,
            )
        )
    return riders


def _check_frame_invariants(
    dispatcher: Dispatcher,
    frame_report,
    frame: int,
    pending_before: int,
    max_retries: int,
    fail: Callable[[str, str], None],
    audit_event_fields: bool = True,
) -> None:
    """Independent validation + cross-frame invariants for one frame.

    Shared by the dispatch and chaos fuzzers: the frame's assignment goes
    through the independent validator, then the dispatcher's cross-frame
    invariants (ready times, capacity, drop-off commitments, carry-over
    queue discipline, conserved rider accounting) are asserted.
    """
    instance = frame_report.assignment.instance
    validation = validate_assignment(
        instance,
        frame_report.assignment,
        audit_event_fields=audit_event_fields,
    )
    for violation in validation.violations:
        fail("dispatch_validate", f"frame {frame}: {violation}")

    # cross-frame invariants
    for vid, fv in dispatcher.fleet.items():
        if fv.ready_time is not None and fv.ready_time <= dispatcher.clock:
            fail(
                "dispatch",
                f"frame {frame}: vehicle {vid} ready_time "
                f"{fv.ready_time:.6f} not ahead of clock "
                f"{dispatcher.clock:.6f}",
            )
        if len(fv.onboard) > fv.capacity:
            fail(
                "dispatch",
                f"frame {frame}: vehicle {vid} carries "
                f"{len(fv.onboard)} riders (capacity {fv.capacity})",
            )
        committed_drops = {
            s.rider.rider_id
            for s in fv.committed_stops
            if s.kind.value == "dropoff"
        }
        for r in fv.onboard:
            if r.rider_id not in committed_drops:
                fail(
                    "dispatch",
                    f"frame {frame}: onboard rider {r.rider_id} on "
                    f"vehicle {vid} has no committed drop-off",
                )
    for entry in dispatcher._carryover:
        if entry.rider.pickup_deadline <= dispatcher.clock:
            fail(
                "dispatch",
                f"frame {frame}: dead rider {entry.rider.rider_id} in "
                f"the carry-over queue (deadline "
                f"{entry.rider.pickup_deadline:.6f} <= clock "
                f"{dispatcher.clock:.6f})",
            )
        if entry.attempts >= max_retries:
            fail(
                "dispatch",
                f"frame {frame}: rider {entry.rider.rider_id} carried "
                f"with spent retry budget ({entry.attempts})",
            )

    # conservation: everything offered is served, expired, or carried
    offered = frame_report.num_requests + frame_report.num_carried
    accounted = (
        frame_report.num_served
        + frame_report.num_expired
        + len(dispatcher.pending_requests)
    )
    if offered != accounted:
        fail(
            "dispatch",
            f"frame {frame}: rider accounting leaks: offered {offered} "
            f"!= served {frame_report.num_served} + expired "
            f"{frame_report.num_expired} + carried "
            f"{len(dispatcher.pending_requests)}",
        )
    if frame_report.num_carried != pending_before:
        fail(
            "dispatch",
            f"frame {frame}: num_carried {frame_report.num_carried} != "
            f"queue size before the frame {pending_before}",
        )


def fuzz_dispatch_seed(
    seed: int, config: Optional[DispatchFuzzConfig] = None
) -> DispatchSeedReport:
    """Run one seeded multi-frame dispatcher scenario through the oracle.

    Every frame's assignment is independently validated (including
    carried-over commitments and mid-route vehicle state), and the
    dispatcher's cross-frame invariants are asserted at every boundary:

    - a vehicle's ``ready_time`` is always strictly ahead of the clock
      (never planned from a location before it arrives there);
    - onboard rider counts never exceed capacity and every onboard rider
      has a pending committed drop-off;
    - the carry-over queue only holds riders with live pickup deadlines
      and unspent retry budgets;
    - per-frame accounting conserves riders
      (``served + expired + carried forward = offered``).

    With ``config.tiered`` the seed instead runs the tiered-oracle
    differential (see :func:`_fuzz_dispatch_tiered_impl`).
    """
    tiered = config is not None and config.tiered
    kind = "dispatch-tiered" if tiered else "dispatch"
    with _trace.span("fuzz.seed", kind=kind, seed=seed) as seed_span:
        if tiered:
            report = _fuzz_dispatch_tiered_impl(seed, config)
        else:
            report = _fuzz_dispatch_seed_impl(seed, config)
        seed_span.annotate(ok=report.ok, failures=len(report.failures))
    return report


def _fuzz_dispatch_seed_impl(
    seed: int, config: Optional[DispatchFuzzConfig]
) -> DispatchSeedReport:
    config = config or DispatchFuzzConfig()
    rng = np.random.default_rng(seed)
    net_config = FuzzConfig(
        grid_rows=config.grid_rows,
        grid_cols=config.grid_cols,
        num_networks=config.num_networks,
    )
    network, oracle = _network_for(net_config, seed)

    method = config.methods[int(rng.integers(len(config.methods)))]
    alpha, beta = _WEIGHT_PROFILES[int(rng.integers(len(_WEIGHT_PROFILES)))]
    num_frames = int(
        rng.integers(config.min_frames, config.max_frames + 1)
    )
    num_vehicles = int(
        rng.integers(config.min_vehicles, config.max_vehicles + 1)
    )
    frame_length = float(rng.uniform(3.0, 8.0))
    max_retries = int(rng.integers(1, 5))
    fleet = [
        Vehicle(
            vehicle_id=j,
            location=int(rng.integers(network.num_nodes)),
            capacity=int(rng.integers(1, config.max_capacity + 1)),
        )
        for j in range(num_vehicles)
    ]
    plan = _plan_for(network) if method.startswith("gbs") else None
    dispatcher = Dispatcher(
        network,
        fleet,
        method=method,
        frame_length=frame_length,
        plan=plan,
        alpha=alpha,
        beta=beta,
        oracle=oracle,
        seed=seed,
        max_retries=max_retries,
    )
    report = DispatchSeedReport(
        seed=seed,
        method=method,
        num_frames=num_frames,
        num_vehicles=num_vehicles,
        frame_length=frame_length,
        max_retries=max_retries,
    )
    failures = report.failures

    def fail(stage: str, detail: str) -> None:
        failures.append(
            FuzzFailure(seed=seed, stage=stage, method=method, detail=detail)
        )

    rider_id = 0
    for frame in range(num_frames):
        count = int(
            rng.integers(
                config.min_riders_per_frame, config.max_riders_per_frame + 1
            )
        )
        requests = _dispatch_requests(
            network, oracle, rng, count, dispatcher.clock, frame_length,
            rider_id,
        )
        rider_id += len(requests)
        pending_before = len(dispatcher.pending_requests)
        try:
            frame_report = dispatcher.dispatch_frame(requests)
        except DispatchError as exc:
            fail(
                "dispatch",
                f"frame {frame}: DispatchError on vehicle "
                f"{exc.vehicle_id}: {exc.violations[:2]}",
            )
            break

        _check_frame_invariants(
            dispatcher, frame_report, frame, pending_before, max_retries,
            fail, audit_event_fields=config.audit_event_fields,
        )
        report.total_carried += frame_report.num_carried

    report.total_requests = dispatcher.total_requests
    report.total_served = dispatcher.total_served
    report.num_riders = rider_id
    if dispatcher.total_served > dispatcher.total_requests:
        fail(
            "dispatch",
            f"served {dispatcher.total_served} riders out of "
            f"{dispatcher.total_requests} submitted",
        )
    return report


def _tiered_cost_sweep(
    network: RoadNetwork,
    tiered: DistanceOracle,
    untiered: DistanceOracle,
    sweep_rng: np.random.Generator,
    count: int,
    fail: Callable[[str, str], None],
    where: str,
) -> None:
    """Direct bitwise differential on sampled node pairs.

    Tier-1 bit-identity is a hard contract (the CH unpacks and re-sums
    original edges from the source), so tiered and untiered oracles must
    return ``==`` floats — not approx — for every pair; only matching
    infinities are allowed to differ as objects.
    """
    nodes = sorted(network.nodes())
    for _ in range(count):
        u = int(nodes[int(sweep_rng.integers(len(nodes)))])
        v = int(nodes[int(sweep_rng.integers(len(nodes)))])
        a = tiered.cost(u, v)
        b = untiered.cost(u, v)
        if a != b and not (math.isinf(a) and math.isinf(b)):
            fail(
                "tiered_cost",
                f"{where}: cost({u}, {v}) diverges bitwise: "
                f"tiered={a!r} untiered={b!r}",
            )
            return


def _fuzz_dispatch_tiered_impl(
    seed: int, config: DispatchFuzzConfig
) -> DispatchSeedReport:
    """One tiered-oracle differential trial.

    The same pre-drawn multi-frame scenario runs through two dispatchers
    over the same network and fleet — one on the shared untiered oracle,
    one on a fresh ``DistanceOracle(tier=1)`` — and every frame boundary
    must agree exactly (served riders, schedules stop by stop, carry-over
    queues, rider ledgers; the comparator is shared with the prune
    fuzzer).  A direct bitwise cost sweep from a private rng follows, so
    the oracle contract is checked even on pairs the scenario never
    touched.
    """
    rng = np.random.default_rng(seed)
    net_config = FuzzConfig(
        grid_rows=config.grid_rows,
        grid_cols=config.grid_cols,
        num_networks=config.num_networks,
    )
    network, oracle = _network_for(net_config, seed)

    method = config.methods[int(rng.integers(len(config.methods)))]
    alpha, beta = _WEIGHT_PROFILES[int(rng.integers(len(_WEIGHT_PROFILES)))]
    num_frames = int(rng.integers(config.min_frames, config.max_frames + 1))
    num_vehicles = int(
        rng.integers(config.min_vehicles, config.max_vehicles + 1)
    )
    frame_length = float(rng.uniform(3.0, 8.0))
    max_retries = int(rng.integers(1, 5))
    fleet = [
        Vehicle(
            vehicle_id=j,
            location=int(rng.integers(network.num_nodes)),
            capacity=int(rng.integers(1, config.max_capacity + 1)),
        )
        for j in range(num_vehicles)
    ]
    # the whole request stream is drawn up front so both dispatchers see
    # byte-identical frames (the rng is shared state)
    frames: List[List[Rider]] = []
    rider_id = 0
    clock = 0.0
    for _ in range(num_frames):
        count = int(
            rng.integers(
                config.min_riders_per_frame, config.max_riders_per_frame + 1
            )
        )
        requests = _dispatch_requests(
            network, oracle, rng, count, clock, frame_length, rider_id
        )
        rider_id += len(requests)
        clock += frame_length
        frames.append(requests)

    plan = _plan_for(network) if method.startswith("gbs") else None
    tiered_oracle = DistanceOracle(network, tier=1)

    def make_dispatcher(dispatch_oracle: DistanceOracle) -> Dispatcher:
        return Dispatcher(
            network,
            fleet,
            method=method,
            frame_length=frame_length,
            plan=plan,
            alpha=alpha,
            beta=beta,
            oracle=dispatch_oracle,
            seed=seed,
            max_retries=max_retries,
        )

    untiered_d = make_dispatcher(oracle)
    tiered_d = make_dispatcher(tiered_oracle)
    report = DispatchSeedReport(
        seed=seed,
        method=method,
        num_frames=num_frames,
        num_vehicles=num_vehicles,
        frame_length=frame_length,
        max_retries=max_retries,
        num_riders=rider_id,
    )
    failures = report.failures

    def fail(stage: str, detail: str) -> None:
        failures.append(
            FuzzFailure(seed=seed, stage=stage, method=method, detail=detail)
        )

    for frame, requests in enumerate(frames):
        try:
            untiered_report = untiered_d.dispatch_frame(list(requests))
        except DispatchError as exc:
            fail(
                "tiered",
                f"frame {frame}: untiered run raised DispatchError on "
                f"vehicle {exc.vehicle_id}: {exc.violations[:2]}",
            )
            break
        try:
            tiered_report = tiered_d.dispatch_frame(list(requests))
        except DispatchError as exc:
            fail(
                "tiered",
                f"frame {frame}: tier-1 run raised DispatchError on "
                f"vehicle {exc.vehicle_id}: {exc.violations[:2]}",
            )
            break
        _compare_prune_frames(
            frame, "tiered", untiered_d, tiered_d, untiered_report,
            tiered_report, fail,
        )
        if failures:
            break

    # the sweep draws from a private rng so it cannot disturb the
    # scenario stream shared with the untiered config
    sweep_rng = np.random.default_rng(seed ^ 0x7EED)
    _tiered_cost_sweep(
        network, tiered_oracle, oracle, sweep_rng, 200, fail, "post-run sweep"
    )
    if tiered_oracle.effective_tier != 1:
        fail(
            "tiered",
            f"tier-1 oracle silently degraded to tier "
            f"{tiered_oracle.effective_tier} (sweep not testing the CH)",
        )
    report.total_requests = untiered_d.total_requests
    report.total_served = untiered_d.total_served
    return report


def run_dispatch_fuzz(
    seeds: Iterable[int],
    config: Optional[DispatchFuzzConfig] = None,
    stop_after: Optional[float] = None,
    on_seed: Optional[Callable[[DispatchSeedReport], None]] = None,
) -> "FuzzRunReport":
    """Fuzz multi-frame dispatcher scenarios over a sequence of seeds."""
    import time

    config = config or DispatchFuzzConfig()
    run = FuzzRunReport()
    start = time.perf_counter()
    for seed in seeds:
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
        report = fuzz_dispatch_seed(seed, config)
        run.reports.append(report)
        if on_seed is not None:
            on_seed(report)
    return run


# ----------------------------------------------------------------------
# prune fuzzing: candidate retrieval differentials against the full scan
# ----------------------------------------------------------------------
@dataclass
class PruneFuzzConfig:
    """Shape of the randomized candidate-prune differential scenarios.

    Each seed runs one multi-frame dispatch scenario *twice* — once with
    the full all-pairs scan and once through the candidate index — and
    asserts the runs are frame-for-frame identical.  The grid is larger
    than the dispatch fuzzer's so the spatial bound has something to
    prune, and both dispatchers share the network and oracle so any
    divergence is attributable to retrieval alone.

    With ``tiered`` set, the pruned run instead gets its own copy of the
    network on a forced tier-1 oracle (``DistanceOracle(tier=1)``), so
    the centre rows it prunes with live in the oracle's pinned block
    rather than the APSP table; the full scan keeps an untiered oracle
    on a second copy.  In half of the seeds (GBS excluded: its grouping
    plan is precomputed) a mid-run
    :class:`TravelTimePerturbation` hits both copies at one frame
    boundary, so the index must ``resync`` onto the new epoch's block.
    """

    grid_rows: int = 8
    grid_cols: int = 8
    num_networks: int = 3
    min_frames: int = 3
    max_frames: int = 5
    min_riders_per_frame: int = 3
    max_riders_per_frame: int = 8
    min_vehicles: int = 3
    max_vehicles: int = 10
    max_capacity: int = 3
    methods: Tuple[str, ...] = ("eg", "ba", "cf", "gbs+eg")
    modes: Tuple[str, ...] = ("spatial", "spatiotemporal")
    tiered: bool = False


@dataclass
class PruneSeedReport:
    """Everything one candidate-prune differential trial produced."""

    seed: int
    method: str = ""
    mode: str = ""
    num_frames: int = 0
    num_vehicles: int = 0
    frame_length: float = 0.0
    max_retries: int = 1
    total_requests: int = 0
    total_served: int = 0
    pairs_considered: int = 0
    pairs_pruned: int = 0
    #: frame before which a travel-time perturbation hit both runs
    perturbed_at: Optional[int] = None
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    # keep the FuzzRunReport aggregation happy
    scenario: str = "prune"
    num_riders: int = 0


def fuzz_prune_seed(
    seed: int, config: Optional[PruneFuzzConfig] = None
) -> PruneSeedReport:
    """Differential-check candidate retrieval against the full scan.

    One seed drives the same multi-frame dispatch scenario through two
    dispatchers over the same network, oracle, fleet and request stream —
    one in ``candidate_mode="full"``, one in a pruning mode (the seed
    picks ``"spatial"`` or ``"spatiotemporal"``) with the audit hook
    armed.  At every frame boundary the two runs must agree exactly:

    - served rider ids, frame utility, and expiry counts;
    - every vehicle's committed schedule, stop by stop, with arrival
      times within tolerance;
    - the carry-over queue (riders and spent retry budgets);
    - the rider-status ledger;

    and the audit counter ``pruned_in_error`` must stay zero (no pruned
    pair survives an exact reachability re-check).  Candidate pruning is
    proven sound (:mod:`repro.core.candidates`), so any divergence is a
    bug in the index's incremental maintenance, not an accepted
    approximation.
    """
    with _trace.span("fuzz.seed", kind="prune", seed=seed) as seed_span:
        report = _fuzz_prune_seed_impl(seed, config)
        seed_span.annotate(ok=report.ok, failures=len(report.failures))
    return report


def _fuzz_prune_seed_impl(
    seed: int, config: Optional[PruneFuzzConfig]
) -> PruneSeedReport:
    from repro.core.candidates import build_candidate_index
    from repro.perf import CANDIDATE_STATS

    config = config or PruneFuzzConfig()
    rng = np.random.default_rng(seed)
    net_config = FuzzConfig(
        grid_rows=config.grid_rows,
        grid_cols=config.grid_cols,
        num_networks=config.num_networks,
    )
    network, oracle = _network_for(net_config, seed)

    method = config.methods[int(rng.integers(len(config.methods)))]
    mode = config.modes[int(rng.integers(len(config.modes)))]
    alpha, beta = _WEIGHT_PROFILES[int(rng.integers(len(_WEIGHT_PROFILES)))]
    num_frames = int(rng.integers(config.min_frames, config.max_frames + 1))
    num_vehicles = int(
        rng.integers(config.min_vehicles, config.max_vehicles + 1)
    )
    frame_length = float(rng.uniform(3.0, 8.0))
    max_retries = int(rng.integers(1, 5))
    fleet = [
        Vehicle(
            vehicle_id=j,
            location=int(rng.integers(network.num_nodes)),
            capacity=int(rng.integers(1, config.max_capacity + 1)),
        )
        for j in range(num_vehicles)
    ]
    # the whole request stream is drawn up front so both dispatchers see
    # byte-identical frames (the rng is shared state)
    frames: List[List[Rider]] = []
    rider_id = 0
    clock = 0.0
    for _ in range(num_frames):
        count = int(
            rng.integers(
                config.min_riders_per_frame, config.max_riders_per_frame + 1
            )
        )
        requests = _dispatch_requests(
            network, oracle, rng, count, clock, frame_length, rider_id
        )
        rider_id += len(requests)
        clock += frame_length
        frames.append(requests)

    plan = _plan_for(network) if method.startswith("gbs") else None

    # tiered extras come from a private rng so the scenario stream stays
    # aligned with the untiered config
    perturb_at: Optional[int] = None
    perturbation = None
    if config.tiered:
        extra = np.random.default_rng((seed << 1) ^ 0x7E1D)
        gbs = method.startswith("gbs")
        if extra.random() < 0.5 and not gbs and num_frames > 1:
            perturb_at = int(extra.integers(1, num_frames))
            # a broad, mostly-shortening change: stale centre rows would
            # then overestimate lower bounds and cut feasible pairs
            edges = _edge_list(network)
            count = int(extra.integers(1, len(edges) // 3 + 2))
            perturbation = TravelTimePerturbation(
                factors=tuple(
                    (*edges[int(extra.integers(len(edges)))],
                     float(extra.uniform(0.1, 1.5)))
                    for _ in range(count)
                )
            )

    def make_dispatcher(candidate_mode: str) -> Dispatcher:
        run_network, run_oracle = network, oracle
        if config.tiered:
            run_network = network.copy()
            run_oracle = DistanceOracle(
                run_network, tier=1 if candidate_mode != "full" else None
            )
        kwargs = {}
        if candidate_mode != "full":
            kwargs["candidate_index"] = build_candidate_index(
                run_network, oracle=run_oracle, mode=candidate_mode, audit=True
            )
        return Dispatcher(
            run_network,
            fleet,
            method=method,
            frame_length=frame_length,
            plan=plan,
            alpha=alpha,
            beta=beta,
            oracle=run_oracle,
            seed=seed,
            max_retries=max_retries,
            candidate_mode=candidate_mode,
            **kwargs,
        )

    full = make_dispatcher("full")
    pruned = make_dispatcher(mode)
    report = PruneSeedReport(
        seed=seed,
        method=method,
        mode=mode,
        num_frames=num_frames,
        num_vehicles=num_vehicles,
        frame_length=frame_length,
        max_retries=max_retries,
        num_riders=rider_id,
        perturbed_at=perturb_at,
    )
    failures = report.failures

    def fail(stage: str, detail: str) -> None:
        failures.append(
            FuzzFailure(seed=seed, stage=stage, method=method, detail=detail)
        )

    stats_before = CANDIDATE_STATS.snapshot()
    for frame, requests in enumerate(frames):
        if frame == perturb_at:
            full.inject([perturbation])
            pruned.inject([perturbation])
        try:
            full_report = full.dispatch_frame(list(requests))
        except DispatchError as exc:
            fail(
                "prune",
                f"frame {frame}: full scan raised DispatchError on "
                f"vehicle {exc.vehicle_id}: {exc.violations[:2]}",
            )
            break
        try:
            pruned_report = pruned.dispatch_frame(list(requests))
        except DispatchError as exc:
            fail(
                "prune",
                f"frame {frame}: {mode} mode raised DispatchError on "
                f"vehicle {exc.vehicle_id}: {exc.violations[:2]}",
            )
            break
        _compare_prune_frames(
            frame, mode, full, pruned, full_report, pruned_report, fail
        )
        if failures:
            break

    stats = CANDIDATE_STATS.snapshot().delta(stats_before)
    report.pairs_considered = stats.pairs_considered
    report.pairs_pruned = stats.pairs_pruned
    if stats.pruned_in_error:
        fail(
            "prune_audit",
            f"{stats.pruned_in_error} pruned pair(s) survive the exact "
            f"reachability re-check (unsound lower bound)",
        )
    report.total_requests = full.total_requests
    report.total_served = full.total_served
    return report


def _compare_prune_frames(
    frame: int,
    mode: str,
    full: Dispatcher,
    pruned: Dispatcher,
    full_report,
    pruned_report,
    fail: Callable[[str, str], None],
) -> None:
    """Assert one frame boundary is identical across the two runs."""
    full_served = sorted(full_report.assignment.served_rider_ids())
    pruned_served = sorted(pruned_report.assignment.served_rider_ids())
    if full_served != pruned_served:
        fail(
            "prune",
            f"frame {frame}: served riders diverge: full={full_served} "
            f"{mode}={pruned_served}",
        )
        return
    if abs(full_report.utility - pruned_report.utility) > _EPS:
        fail(
            "prune",
            f"frame {frame}: utility diverges: "
            f"full={full_report.utility:.9f} "
            f"{mode}={pruned_report.utility:.9f}",
        )
    if full_report.num_expired != pruned_report.num_expired:
        fail(
            "prune",
            f"frame {frame}: expiry counts diverge: "
            f"full={full_report.num_expired} "
            f"{mode}={pruned_report.num_expired}",
        )
    full_schedules = full_report.assignment.schedules
    pruned_schedules = pruned_report.assignment.schedules
    if set(full_schedules) != set(pruned_schedules):
        fail(
            "prune",
            f"frame {frame}: scheduled vehicle sets diverge: "
            f"full={sorted(full_schedules)} {mode}={sorted(pruned_schedules)}",
        )
        return
    for vid in sorted(full_schedules):
        seq_full = full_schedules[vid]
        seq_pruned = pruned_schedules[vid]
        stops_full = [
            (s.rider.rider_id, s.kind.value, s.location)
            for s in seq_full.stops
        ]
        stops_pruned = [
            (s.rider.rider_id, s.kind.value, s.location)
            for s in seq_pruned.stops
        ]
        if stops_full != stops_pruned:
            fail(
                "prune",
                f"frame {frame}: vehicle {vid} schedules diverge: "
                f"full={stops_full} {mode}={stops_pruned}",
            )
            return
        for idx, (a_full, a_pruned) in enumerate(
            zip(seq_full.arrive, seq_pruned.arrive)
        ):
            if abs(a_full - a_pruned) > _EPS:
                fail(
                    "prune",
                    f"frame {frame}: vehicle {vid} arrival {idx} "
                    f"diverges: full={a_full:.9f} {mode}={a_pruned:.9f}",
                )
                return
    full_queue = [
        (e.rider.rider_id, e.attempts) for e in full._carryover
    ]
    pruned_queue = [
        (e.rider.rider_id, e.attempts) for e in pruned._carryover
    ]
    if full_queue != pruned_queue:
        fail(
            "prune",
            f"frame {frame}: carry-over queues diverge: "
            f"full={full_queue} {mode}={pruned_queue}",
        )
    if full.ledger != pruned.ledger:
        diff = {
            rid: (full.ledger.get(rid), pruned.ledger.get(rid))
            for rid in set(full.ledger) | set(pruned.ledger)
            if full.ledger.get(rid) != pruned.ledger.get(rid)
        }
        fail(
            "prune",
            f"frame {frame}: rider ledgers diverge: {diff}",
        )


def run_prune_fuzz(
    seeds: Iterable[int],
    config: Optional[PruneFuzzConfig] = None,
    stop_after: Optional[float] = None,
    on_seed: Optional[Callable[[PruneSeedReport], None]] = None,
) -> "FuzzRunReport":
    """Fuzz candidate-prune differential scenarios over a seed sequence."""
    import time

    config = config or PruneFuzzConfig()
    run = FuzzRunReport()
    start = time.perf_counter()
    for seed in seeds:
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
        report = fuzz_prune_seed(seed, config)
        run.reports.append(report)
        if on_seed is not None:
            on_seed(report)
    return run


# ----------------------------------------------------------------------
# shard fuzzing: sharded dispatch differentials against the global solve
# ----------------------------------------------------------------------
@dataclass
class ShardFuzzConfig:
    """Shape of the randomized shard-equivalence differential scenarios.

    Each seed runs one multi-frame dispatch scenario twice over the
    same network, oracle, fleet and request stream — unsharded and
    sharded — and asserts the equivalence contract of
    :mod:`repro.core.shards`:

    - while no frame has had a *boundary conflict* (some batch rider
      with a coarse-reachable vehicle outside its own shard), sharded
      frames equal unsharded frames exactly for the deterministic
      methods (eg / cf / gbs+eg — BA's rng rider order does not
      decompose across shards);
    - on conflict frames every sharded frame is never worse than its
      carried-in baseline: incremental frame utility stays
      non-negative, and the frame passes full assignment validation
      (``validate_frames``), so merge and reconciliation can only add
      service on top of the residual plans, never corrupt them.

    Individual conflict-laden seeds may end a rider or two ahead *or*
    behind the unsharded run — the partition legitimately allocates
    vehicles differently, and the divergence compounds across carried
    state.  What must not happen is systematic degradation, so
    :func:`run_shard_fuzz` additionally asserts the *aggregate* riders
    served across the whole seed set is no worse than the unsharded
    aggregate (reported under the synthetic seed ``-1``).
    """

    grid_rows: int = 8
    grid_cols: int = 8
    num_networks: int = 3
    min_frames: int = 3
    max_frames: int = 5
    min_riders_per_frame: int = 3
    max_riders_per_frame: int = 8
    min_vehicles: int = 4
    max_vehicles: int = 10
    max_capacity: int = 3
    methods: Tuple[str, ...] = ("eg", "ba", "cf", "gbs+eg")
    #: strict unsharded-equality applies to these only (BA's rng rider
    #: order is a global draw and cannot decompose across shards)
    strict_methods: Tuple[str, ...] = ("eg", "cf", "gbs+eg")
    shard_count: int = 4
    #: fraction of seeds drawn with tight pickup deadlines (few
    #: reachable vehicles per rider), the regime where conflict-free
    #: frames — and thus the strict unsharded-equality branch — occur
    p_tight: float = 0.5
    tight_pickup_slack: Tuple[float, float] = (0.05, 0.45)


@dataclass
class ShardSeedReport:
    """Everything one shard-equivalence differential trial produced."""

    seed: int
    method: str = ""
    num_frames: int = 0
    num_vehicles: int = 0
    frame_length: float = 0.0
    max_retries: int = 1
    shard_count: int = 0
    strict_frames: int = 0
    conflict_frames: int = 0
    total_requests: int = 0
    total_served: int = 0
    baseline_served: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    # keep the FuzzRunReport aggregation happy
    scenario: str = "shards"
    num_riders: int = 0


def _frame_has_boundary_conflict(
    dispatcher: Dispatcher, requests: List[Rider]
) -> bool:
    """Would this frame's batch see any out-of-shard vehicle?

    Evaluated against the dispatcher's *pre-frame* state (carried-in
    schedules, current fleet positions) with the engine's own coarse
    reachability test, so it is exactly the predicate under which
    per-shard solves are guaranteed to compose to the global solve.
    """
    plan = dispatcher._shard_plan
    assert plan is not None, "conflict predicate needs a sharded dispatcher"
    batch = list(requests) + dispatcher.pending_requests
    instance = dispatcher._build_instance(batch)
    state = SolverState(instance)
    for rider in batch:
        home = plan.shard_of(rider.source)
        for vehicle in state.reachable_vehicles(rider, instance.vehicles):
            if plan.shard_of(vehicle.location) != home:
                return True
    return False


def fuzz_shard_seed(
    seed: int, config: Optional[ShardFuzzConfig] = None
) -> ShardSeedReport:
    """Differential-check sharded dispatch against the global solve.

    See :class:`ShardFuzzConfig` for the contract one trial asserts.  Frame comparisons reuse the candidate-prune comparator
    (:func:`_compare_prune_frames`): served ids, utility, expiry counts,
    per-vehicle schedules stop-by-stop with arrival tolerances, the
    carry-over queue and the rider ledger.  The unsharded comparison is
    dropped from the first boundary-conflict frame onward (divergence
    legitimately cascades through carried state).
    """
    with _trace.span("fuzz.seed", kind="shards", seed=seed) as seed_span:
        report = _fuzz_shard_seed_impl(seed, config)
        seed_span.annotate(ok=report.ok, failures=len(report.failures))
    return report


def _fuzz_shard_seed_impl(
    seed: int, config: Optional[ShardFuzzConfig]
) -> ShardSeedReport:
    config = config or ShardFuzzConfig()
    rng = np.random.default_rng(seed)
    net_config = FuzzConfig(
        grid_rows=config.grid_rows,
        grid_cols=config.grid_cols,
        num_networks=config.num_networks,
    )
    network, oracle = _network_for(net_config, seed)

    method = config.methods[int(rng.integers(len(config.methods)))]
    alpha, beta = _WEIGHT_PROFILES[int(rng.integers(len(_WEIGHT_PROFILES)))]
    num_frames = int(rng.integers(config.min_frames, config.max_frames + 1))
    num_vehicles = int(
        rng.integers(config.min_vehicles, config.max_vehicles + 1)
    )
    frame_length = float(rng.uniform(3.0, 8.0))
    max_retries = int(rng.integers(1, 5))
    tight = bool(rng.random() < config.p_tight)
    pickup_slack = config.tight_pickup_slack if tight else (0.5, 3.5)
    fleet = [
        Vehicle(
            vehicle_id=j,
            location=int(rng.integers(network.num_nodes)),
            capacity=int(rng.integers(1, config.max_capacity + 1)),
        )
        for j in range(num_vehicles)
    ]
    # the whole request stream is drawn up front so both dispatchers
    # see byte-identical frames (the rng is shared state)
    frames: List[List[Rider]] = []
    rider_id = 0
    clock = 0.0
    for _ in range(num_frames):
        count = int(
            rng.integers(
                config.min_riders_per_frame, config.max_riders_per_frame + 1
            )
        )
        requests = _dispatch_requests(
            network, oracle, rng, count, clock, frame_length, rider_id,
            pickup_slack=pickup_slack,
        )
        rider_id += len(requests)
        clock += frame_length
        frames.append(requests)

    plan = _plan_for(network) if method.startswith("gbs") else None

    def make_dispatcher(sharded: bool) -> Dispatcher:
        kwargs = {}
        if sharded:
            kwargs["shard_workers"] = 1
            kwargs["shard_count"] = config.shard_count
            # the merge/reconciliation machinery is what's under test:
            # independently validate every sharded frame it commits
            kwargs["validate_frames"] = True
        return Dispatcher(
            network,
            fleet,
            method=method,
            frame_length=frame_length,
            plan=plan,
            alpha=alpha,
            beta=beta,
            oracle=oracle,
            seed=seed,
            max_retries=max_retries,
            **kwargs,
        )

    baseline = make_dispatcher(False)
    sharded = make_dispatcher(True)
    report = ShardSeedReport(
        seed=seed,
        method=method,
        num_frames=num_frames,
        num_vehicles=num_vehicles,
        frame_length=frame_length,
        max_retries=max_retries,
        shard_count=config.shard_count,
        num_riders=rider_id,
    )
    failures = report.failures

    def fail(stage: str, detail: str) -> None:
        failures.append(
            FuzzFailure(seed=seed, stage=stage, method=method, detail=detail)
        )

    strict = method in config.strict_methods
    with baseline, sharded:
        for frame, requests in enumerate(frames):
            if _frame_has_boundary_conflict(sharded, requests):
                # carried state downstream of a conflict frame may
                # legitimately differ from the unsharded run's, so the
                # strict comparison is off for the rest of the scenario
                report.conflict_frames += 1
                strict = False
            elif strict:
                report.strict_frames += 1
            try:
                base_report = baseline.dispatch_frame(list(requests))
            except DispatchError as exc:
                fail(
                    "shards",
                    f"frame {frame}: unsharded run raised DispatchError on "
                    f"vehicle {exc.vehicle_id}: {exc.violations[:2]}",
                )
                break
            try:
                sharded_report = sharded.dispatch_frame(list(requests))
            except Exception as exc:
                fail(
                    "shards",
                    f"frame {frame}: sharded run raised "
                    f"{type(exc).__name__}: {exc}",
                )
                break
            # conflict or not, a sharded frame may only *add* service on
            # top of the carried-in residual plans
            if sharded_report.utility < -_EPS:
                fail(
                    "shard_frame",
                    f"frame {frame}: sharded frame utility "
                    f"{sharded_report.utility:.9f} fell below the "
                    f"carried-in baseline",
                )
                break
            if strict:
                _compare_prune_frames(
                    frame, "sharded", baseline, sharded,
                    base_report, sharded_report, fail,
                )
            if failures:
                break
    report.total_requests = sharded.total_requests
    report.total_served = sharded.total_served
    report.baseline_served = baseline.total_served
    return report


def run_shard_fuzz(
    seeds: Iterable[int],
    config: Optional[ShardFuzzConfig] = None,
    stop_after: Optional[float] = None,
    on_seed: Optional[Callable[[ShardSeedReport], None]] = None,
) -> "FuzzRunReport":
    """Fuzz shard-equivalence differential scenarios over a seed sequence.

    Besides the per-seed assertions, the whole run must not degrade
    service systematically: the riders served by the sharded runs,
    summed across every seed, must be at least the unsharded aggregate.
    A shortfall is reported as a ``shard_service`` failure under the
    synthetic seed ``-1``.
    """
    import time

    config = config or ShardFuzzConfig()
    run = FuzzRunReport()
    start = time.perf_counter()
    for seed in seeds:
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
        report = fuzz_shard_seed(seed, config)
        run.reports.append(report)
        if on_seed is not None:
            on_seed(report)
    total_sharded = sum(r.total_served for r in run.reports)
    total_baseline = sum(r.baseline_served for r in run.reports)
    if total_sharded < total_baseline:
        aggregate = ShardSeedReport(seed=-1)
        aggregate.failures.append(
            FuzzFailure(
                seed=-1,
                stage="shard_service",
                method="aggregate",
                detail=(
                    f"sharded runs served {total_sharded} riders across "
                    f"{run.seeds_run} seed(s) < unsharded {total_baseline} "
                    f"— boundary reconciliation is losing service"
                ),
            )
        )
        run.reports.append(aggregate)
    return run


# ----------------------------------------------------------------------
# chaos fuzzing: disruptions layered over the dispatch fuzzer
# ----------------------------------------------------------------------
@dataclass
class ChaosFuzzConfig:
    """Shape of the randomized disruption (chaos) scenarios.

    The dispatch shape mirrors :class:`DispatchFuzzConfig` with two
    deliberate deviations: fleets start at two vehicles (so a breakdown
    can actually apply — the engine refuses to break the last vehicle)
    and the GBS methods are excluded (their grouping plan is precomputed
    per network, and chaos mutates the network mid-run).

    ``p_*`` are the per-boundary probabilities of drawing each event
    kind; ``watchdog_budget`` is deliberately generous so the configured
    method always wins tier 0 and committed schedules stay deterministic
    in the seed (wall-clock noise must never change a chaos trial).
    """

    grid_rows: int = 6
    grid_cols: int = 6
    num_networks: int = 4
    min_frames: int = 4
    max_frames: int = 6
    min_riders_per_frame: int = 2
    max_riders_per_frame: int = 5
    min_vehicles: int = 2
    max_vehicles: int = 4
    max_capacity: int = 3
    methods: Tuple[str, ...] = ("eg", "ba", "cf")
    audit_event_fields: bool = True
    p_breakdown: float = 0.25
    p_cancel: float = 0.45
    p_perturb: float = 0.35
    p_closure: float = 0.2
    p_watchdog: float = 0.5
    watchdog_budget: float = 30.0
    #: route frames through sharded dispatch (the watchdog is disabled
    #: when set — frame budgets do not compose with sharded solves)
    sharded: bool = False
    shard_count: int = 4
    #: force the dispatcher onto a tier-1 (CH + ALT) oracle and shadow it
    #: with an untiered oracle on the same mutating network: after every
    #: frame and every disruption boundary a bitwise cost sweep asserts
    #: the two agree exactly, proving CH invalidation/rebuild keeps the
    #: bit-identity contract across disruption epochs
    tiered: bool = False


@dataclass
class ChaosSeedReport:
    """Everything one chaos fuzz trial produced."""

    seed: int
    method: str = ""
    num_frames: int = 0
    num_vehicles: int = 0
    frame_length: float = 0.0
    max_retries: int = 1
    watchdog: bool = False
    num_events: int = 0
    num_applied: int = 0
    total_requests: int = 0
    total_served: int = 0
    ledger: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    # keep the FuzzRunReport aggregation happy
    scenario: str = "chaos"
    num_riders: int = 0


def _edge_list(network: RoadNetwork) -> List[Tuple[int, int]]:
    """Directed edges in deterministic (insertion) order."""
    return [(u, v) for u, v, _cost in network.edges()]


def _chaos_events(
    dispatcher: Dispatcher,
    network: RoadNetwork,
    rng: np.random.Generator,
    config: ChaosFuzzConfig,
) -> List:
    """Seeded disruption schedule for one frame boundary.

    Every gate variable is drawn unconditionally so the rng stream stays
    aligned regardless of which events fire; the targets themselves are
    drawn from sorted views of the dispatcher's state, so the whole
    schedule is deterministic in the seed.
    """
    gates = [rng.random() for _ in range(4)]
    events: List = []

    if gates[0] < config.p_breakdown and len(dispatcher.fleet) > 1:
        vids = sorted(dispatcher.fleet)
        events.append(
            VehicleBreakdown(vehicle_id=int(vids[int(rng.integers(len(vids)))]))
        )

    if gates[1] < config.p_cancel:
        candidates = sorted(
            {e.rider.rider_id for e in dispatcher._carryover}
            | {
                rid
                for fv in dispatcher.fleet.values()
                for rid in fv.committed_rider_ids()
            }
        )
        if candidates:
            rid = int(candidates[int(rng.integers(len(candidates)))])
            cls = RiderNoShow if rng.random() < 0.3 else RiderCancellation
            events.append(cls(rider_id=rid))

    if gates[2] < config.p_perturb:
        edges = _edge_list(network)
        if edges:
            count = int(rng.integers(1, min(3, len(edges)) + 1))
            factors = tuple(
                (u, v, float(rng.uniform(0.5, 3.0)))
                for u, v in (
                    edges[int(rng.integers(len(edges)))] for _ in range(count)
                )
            )
            events.append(TravelTimePerturbation(factors=factors))

    if gates[3] < config.p_closure:
        edges = _edge_list(network)
        if edges:
            u, v = edges[int(rng.integers(len(edges)))]
            events.append(RoadClosure(edges=((u, v),)))

    return events


def _check_ledger(
    dispatcher: Dispatcher,
    issued: set,
    fail: Callable[[str, str], None],
    where: str,
) -> None:
    """The conservation invariant: the ledger accounts for every rider.

    - ledger keys are exactly the rider ids ever issued;
    - ``PENDING`` is exactly the carry-over queue;
    - ``COMMITTED`` is exactly the riders present in some vehicle's
      onboard tuple or committed chain.

    Together with the terminal statuses this proves
    ``pending + committed + delivered + expired + cancelled = issued``
    with no rider counted twice or lost.
    """
    ledger = dispatcher.ledger
    if set(ledger) != issued:
        fail(
            "chaos_ledger",
            f"{where}: ledger keys diverge from issued ids "
            f"(extra={sorted(set(ledger) - issued)[:5]}, "
            f"missing={sorted(issued - set(ledger))[:5]})",
        )
    queue_ids = {e.rider.rider_id for e in dispatcher._carryover}
    pending = dispatcher.riders_with_status(RiderStatus.PENDING)
    if pending != queue_ids:
        fail(
            "chaos_ledger",
            f"{where}: PENDING {sorted(pending)} != carry-over queue "
            f"{sorted(queue_ids)}",
        )
    fleet_ids: set = set()
    for fv in dispatcher.fleet.values():
        fleet_ids.update(r.rider_id for r in fv.onboard)
        fleet_ids.update(s.rider.rider_id for s in fv.committed_stops)
    committed = dispatcher.riders_with_status(RiderStatus.COMMITTED)
    if committed != fleet_ids:
        fail(
            "chaos_ledger",
            f"{where}: COMMITTED {sorted(committed)} != fleet plans "
            f"{sorted(fleet_ids)}",
        )


def fuzz_chaos_seed(
    seed: int, config: Optional[ChaosFuzzConfig] = None
) -> ChaosSeedReport:
    """Run one seeded multi-frame scenario with mid-horizon disruptions.

    Layered over :func:`fuzz_dispatch_seed`'s per-frame checks, after
    every frame *and* every disruption boundary the trial asserts:

    - the :class:`~repro.core.dispatch.RiderStatus` ledger conserves
      every rider ever issued (see :func:`_check_ledger`);
    - no committed rider leaves ``COMMITTED`` except to ``DELIVERED``
      (rollforward) or through an explicit disruption outcome that names
      them in :attr:`DisruptionOutcome.affected_rider_ids`;
    - after disruptions, the whole fleet state passes the independent
      :func:`repro.check.validate_fleet_state` audit (structure,
      capacity, and deadline feasibility of every repaired chain) and
      still round-trips through :class:`~repro.core.vehicles.Vehicle`'s
      own carried-state validation.

    Chaos mutates the road network (perturbations, closures), so each
    trial runs on a private copy of the cached network with a fresh
    :class:`DistanceOracle` — seeds stay independent and replayable.
    """
    with _trace.span("fuzz.seed", kind="chaos", seed=seed) as seed_span:
        report = _fuzz_chaos_seed_impl(seed, config)
        seed_span.annotate(ok=report.ok, failures=len(report.failures))
    return report


def _fuzz_chaos_seed_impl(
    seed: int, config: Optional[ChaosFuzzConfig]
) -> ChaosSeedReport:
    config = config or ChaosFuzzConfig()
    rng = np.random.default_rng(seed)
    net_config = FuzzConfig(
        grid_rows=config.grid_rows,
        grid_cols=config.grid_cols,
        num_networks=config.num_networks,
    )
    base_network, _base_oracle = _network_for(net_config, seed)
    network = base_network.copy()
    if config.tiered:
        oracle = DistanceOracle(network, tier=1)
        # shadow untiered oracle on the same mutating network; swept from
        # a private rng so the scenario stream stays aligned with the
        # untiered config
        shadow: Optional[DistanceOracle] = DistanceOracle(network)
        sweep_rng = np.random.default_rng((seed << 1) ^ 0x5EED)
    else:
        oracle = DistanceOracle(network)
        shadow = None
        sweep_rng = None

    method = config.methods[int(rng.integers(len(config.methods)))]
    alpha, beta = _WEIGHT_PROFILES[int(rng.integers(len(_WEIGHT_PROFILES)))]
    num_frames = int(rng.integers(config.min_frames, config.max_frames + 1))
    num_vehicles = int(
        rng.integers(config.min_vehicles, config.max_vehicles + 1)
    )
    frame_length = float(rng.uniform(3.0, 8.0))
    max_retries = int(rng.integers(1, 5))
    # the gate variable is drawn unconditionally to keep the rng stream
    # aligned across configs; sharded dispatch forces the watchdog off
    watchdog = bool(rng.random() < config.p_watchdog)
    if config.sharded:
        watchdog = False
    fleet = [
        Vehicle(
            vehicle_id=j,
            location=int(rng.integers(network.num_nodes)),
            capacity=int(rng.integers(1, config.max_capacity + 1)),
        )
        for j in range(num_vehicles)
    ]
    shard_kwargs = {}
    if config.sharded:
        shard_kwargs = {"shard_workers": 1, "shard_count": config.shard_count}
    dispatcher = Dispatcher(
        network,
        fleet,
        method=method,
        frame_length=frame_length,
        alpha=alpha,
        beta=beta,
        oracle=oracle,
        seed=seed,
        max_retries=max_retries,
        frame_budget=config.watchdog_budget if watchdog else None,
        **shard_kwargs,
    )
    report = ChaosSeedReport(
        seed=seed,
        method=method,
        num_frames=num_frames,
        num_vehicles=num_vehicles,
        frame_length=frame_length,
        max_retries=max_retries,
        watchdog=watchdog,
    )
    failures = report.failures

    def fail(stage: str, detail: str) -> None:
        failures.append(
            FuzzFailure(seed=seed, stage=stage, method=method, detail=detail)
        )

    shadow_epoch = oracle.epoch

    def sweep(where: str) -> None:
        """Bitwise tiered-vs-untiered sweep, re-syncing the shadow's
        caches whenever chaos moved the dispatcher oracle's epoch."""
        nonlocal shadow_epoch
        if shadow is None:
            return
        if oracle.epoch != shadow_epoch:
            shadow.invalidate()
            shadow_epoch = oracle.epoch
        _tiered_cost_sweep(network, oracle, shadow, sweep_rng, 40, fail, where)

    with dispatcher:
        issued: set = set()
        rider_id = 0
        for frame in range(num_frames):
            count = int(
                rng.integers(
                    config.min_riders_per_frame, config.max_riders_per_frame + 1
                )
            )
            requests = _dispatch_requests(
                network, oracle, rng, count, dispatcher.clock, frame_length,
                rider_id,
            )
            rider_id += len(requests)
            issued.update(r.rider_id for r in requests)
            pending_before = len(dispatcher.pending_requests)
            committed_before = dispatcher.riders_with_status(RiderStatus.COMMITTED)
            try:
                frame_report = dispatcher.dispatch_frame(requests)
            except DispatchError as exc:
                fail(
                    "chaos_dispatch",
                    f"frame {frame}: DispatchError on vehicle "
                    f"{exc.vehicle_id}: {exc.violations[:2]}",
                )
                break

            _check_frame_invariants(
                dispatcher, frame_report, frame, pending_before, max_retries,
                fail, audit_event_fields=config.audit_event_fields,
            )
            # within a frame a committed rider may only be delivered
            for rid in committed_before:
                status = dispatcher.ledger[rid]
                if status not in (RiderStatus.COMMITTED, RiderStatus.DELIVERED):
                    fail(
                        "chaos_vanish",
                        f"frame {frame}: committed rider {rid} became "
                        f"{status.value} without a disruption",
                    )
            if watchdog and not frame_report.solver_tier:
                fail(
                    "chaos_watchdog",
                    f"frame {frame}: no solver tier recorded under a "
                    f"frame budget",
                )
            _check_ledger(dispatcher, issued, fail, f"frame {frame}")
            sweep(f"frame {frame}")

            # disruption boundary (skipped after the final frame: nothing
            # downstream would exercise the repaired state)
            if frame == num_frames - 1:
                break
            events = _chaos_events(dispatcher, network, rng, config)
            if not events:
                continue
            committed_before = dispatcher.riders_with_status(RiderStatus.COMMITTED)
            try:
                outcomes = dispatcher.inject(events)
            except Exception as exc:
                fail(
                    "chaos_inject",
                    f"frame {frame}: {type(exc).__name__}: {exc}",
                )
                break
            report.num_events += len(events)
            report.num_applied += sum(1 for o in outcomes if o.applied)

            allowed: set = set()
            for outcome in outcomes:
                allowed.update(outcome.affected_rider_ids)
            for rid in committed_before:
                status = dispatcher.ledger[rid]
                if status is not RiderStatus.COMMITTED and rid not in allowed:
                    fail(
                        "chaos_vanish",
                        f"frame {frame}: committed rider {rid} became "
                        f"{status.value} outside any disruption outcome",
                    )
            _check_ledger(dispatcher, issued, fail, f"frame {frame} post-inject")
            state = validate_fleet_state(
                dispatcher.fleet.values(), dispatcher.clock,
                oracle=dispatcher.oracle,
            )
            for violation in state.violations:
                fail("chaos_fleet", f"frame {frame}: {violation}")
            for fv in dispatcher.fleet.values():
                try:
                    fv.as_vehicle()
                except ValueError as exc:
                    fail(
                        "chaos_fleet",
                        f"frame {frame}: vehicle {fv.vehicle_id}: {exc}",
                    )
            sweep(f"frame {frame} post-inject")

    report.total_requests = dispatcher.total_requests
    report.total_served = dispatcher.total_served
    report.num_riders = rider_id
    report.ledger = dispatcher.ledger_counts()
    if sum(report.ledger.values()) != len(issued):
        fail(
            "chaos_ledger",
            f"final: ledger total {sum(report.ledger.values())} != "
            f"{len(issued)} riders issued",
        )
    return report


def run_chaos_fuzz(
    seeds: Iterable[int],
    config: Optional[ChaosFuzzConfig] = None,
    stop_after: Optional[float] = None,
    on_seed: Optional[Callable[[ChaosSeedReport], None]] = None,
) -> "FuzzRunReport":
    """Fuzz disruption-laden dispatcher scenarios over a seed sequence."""
    import time

    config = config or ChaosFuzzConfig()
    run = FuzzRunReport()
    start = time.perf_counter()
    for seed in seeds:
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
        report = fuzz_chaos_seed(seed, config)
        run.reports.append(report)
        if on_seed is not None:
            on_seed(report)
    return run


@dataclass
class FuzzRunReport:
    """Aggregate of many fuzz trials."""

    reports: List[SeedReport] = field(default_factory=list)

    @property
    def seeds_run(self) -> int:
        return len(self.reports)

    @property
    def failures(self) -> List[FuzzFailure]:
        return [f for r in self.reports for f in r.failures]

    @property
    def failing_seeds(self) -> List[int]:
        return sorted({r.seed for r in self.reports if not r.ok})

    @property
    def ok(self) -> bool:
        return not any(not r.ok for r in self.reports)

    def as_dict(self) -> Dict[str, object]:
        return {
            "seeds_run": self.seeds_run,
            "failing_seeds": self.failing_seeds,
            "failures": [f.as_dict() for f in self.failures],
        }


def run_fuzz(
    seeds: Iterable[int],
    config: Optional[FuzzConfig] = None,
    stop_after: Optional[float] = None,
    on_seed: Optional[Callable[[SeedReport], None]] = None,
) -> FuzzRunReport:
    """Fuzz a sequence of seeds, optionally stopping on a time budget.

    ``stop_after`` is a wall-clock budget in seconds measured from the
    first trial; the current trial always completes.
    """
    import time

    config = config or FuzzConfig()
    run = FuzzRunReport()
    start = time.perf_counter()
    for seed in seeds:
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
        report = fuzz_seed(seed, config)
        run.reports.append(report)
        if on_seed is not None:
            on_seed(report)
    return run


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
FailurePredicate = Callable[[URRInstance], Optional[str]]


def _default_predicate(config: FuzzConfig) -> FailurePredicate:
    """First failure detail on a (sub-)instance, or ``None`` when clean."""

    def predicate(instance: URRInstance) -> Optional[str]:
        plan = _plan_for(instance.network)
        bound = utility_upper_bound(instance)
        utilities: Dict[str, float] = {}
        for method in config.methods:
            if method == "opt" and instance.num_riders > config.opt_max_riders:
                continue
            if method == "opt" and not instance.riders:
                continue
            assignment = solve(
                instance, method=method, plan=plan,
                opt_max_riders=config.opt_max_riders,
            )
            report = validate_assignment(
                instance, assignment,
                audit_event_fields=config.audit_event_fields,
            )
            if not report.ok:
                return f"{method}: {report.violations[0]}"
            utilities[method] = assignment.total_utility()
        for method, utility in utilities.items():
            if utility > bound.total + _EPS:
                return f"{method}: utility {utility:.9f} > bound {bound.total:.9f}"
        opt_utility = utilities.get("opt")
        if opt_utility is not None:
            for method, utility in utilities.items():
                if method != "opt" and utility > opt_utility + _EPS:
                    return f"{method}: utility {utility:.9f} > OPT {opt_utility:.9f}"
        if config.differential:
            sequences = [instance.empty_sequence(v) for v in instance.vehicles]
            diff = differential_check(instance, sequences)
            if diff:
                return diff[0].detail
        return None

    return predicate


def _subset_instance(
    instance: URRInstance, riders: List, vehicles: List
) -> URRInstance:
    return URRInstance(
        network=instance.network,
        riders=list(riders),
        vehicles=list(vehicles),
        alpha=instance.alpha,
        beta=instance.beta,
        vehicle_utilities=instance.vehicle_utilities,
        social=instance.social,
        similarity_overrides=instance.similarity_overrides,
        start_time=instance.start_time,
        seed=instance.seed,
        oracle=instance.oracle,
    )


@dataclass
class MinimizedRepro:
    """Result of shrinking a failing seed."""

    seed: int
    detail: str
    instance: URRInstance
    original_riders: int
    original_vehicles: int

    def as_dict(self) -> Dict[str, object]:
        inst = self.instance
        return {
            "seed": self.seed,
            "detail": self.detail,
            "original": {
                "riders": self.original_riders,
                "vehicles": self.original_vehicles,
            },
            "minimized": {
                "alpha": inst.alpha,
                "beta": inst.beta,
                "start_time": inst.start_time,
                "riders": [
                    {
                        "rider_id": r.rider_id,
                        "source": r.source,
                        "destination": r.destination,
                        "pickup_deadline": r.pickup_deadline,
                        "dropoff_deadline": r.dropoff_deadline,
                    }
                    for r in inst.riders
                ],
                "vehicles": [
                    {
                        "vehicle_id": v.vehicle_id,
                        "location": v.location,
                        "capacity": v.capacity,
                    }
                    for v in inst.vehicles
                ],
            },
        }


def minimize_seed(
    seed: int,
    config: Optional[FuzzConfig] = None,
    predicate: Optional[FailurePredicate] = None,
) -> Optional[MinimizedRepro]:
    """Shrink a failing seed to a minimal failing sub-instance.

    Greedy delta-debugging: repeatedly drop one rider (then one vehicle)
    and keep the reduction whenever the failure predicate still fires.
    Returns ``None`` when the seed does not fail to begin with.  A custom
    ``predicate`` (instance -> failure detail or ``None``) lets callers
    shrink against a specific bug rather than the full check battery.
    """
    config = config or FuzzConfig()
    predicate = predicate or _default_predicate(config)
    instance, _ = random_instance(seed, config)
    detail = predicate(instance)
    if detail is None:
        return None
    original_riders = instance.num_riders
    original_vehicles = instance.num_vehicles

    riders = list(instance.riders)
    vehicles = list(instance.vehicles)
    shrunk = True
    while shrunk:
        shrunk = False
        for i in range(len(riders) - 1, -1, -1):
            if len(riders) <= 1 and len(vehicles) <= 1:
                break
            candidate_riders = riders[:i] + riders[i + 1:]
            candidate = _subset_instance(instance, candidate_riders, vehicles)
            new_detail = predicate(candidate)
            if new_detail is not None:
                riders = candidate_riders
                detail = new_detail
                shrunk = True
        for i in range(len(vehicles) - 1, -1, -1):
            if len(vehicles) <= 1:
                break
            candidate_vehicles = vehicles[:i] + vehicles[i + 1:]
            candidate = _subset_instance(instance, riders, candidate_vehicles)
            new_detail = predicate(candidate)
            if new_detail is not None:
                vehicles = candidate_vehicles
                detail = new_detail
                shrunk = True

    return MinimizedRepro(
        seed=seed,
        detail=detail,
        instance=_subset_instance(instance, riders, vehicles),
        original_riders=original_riders,
        original_vehicles=original_vehicles,
    )
