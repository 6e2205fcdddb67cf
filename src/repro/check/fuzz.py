"""One lockstep differential fuzz runner for the URR solvers and dispatcher.

Every fuzz mode is a row of :data:`MODES` over one seeded
:class:`~repro.check.scenario.Scenario` (:func:`draw_scenario`).
:func:`run_trial` drives a reference dispatcher **A** and an optional
candidate dispatcher **B** through that scenario in lockstep.  Three axes
select what B is and how it runs:

- **config** — B's dispatcher: a forced tier-1 (CH + landmarks) oracle, the
  candidate index (token ``index``, audit armed; its bounds follow the
  oracle's tier), or
  sharded dispatch.  A runs the row's reference config, which may add
  the ``rebuild`` token: A then re-reads and audits every
  vehicle before every frame (:mod:`repro.check.rebuild`), so B's
  incremental frame state is compared with a full rebuild;
- **perturbation** — seeded chaos events (breakdowns, cancellations,
  no-shows, travel-time perturbations, closures) drawn from A's state at
  every frame boundary and injected into both runs, or one broad
  travel-time perturbation at a seeded frame;
- **drive** — how B consumes the frames: ``dispatch_frame``
  (``"frames"``), the streaming micro-batch engine (``"stream"``,
  :mod:`repro.check.stream`), or kill → :meth:`Dispatcher.restore` →
  resume (``"crash"``, :mod:`repro.check.crash`).  On those two drives
  A runs B's drawn config (plus the row's ``rebuild`` token, if any), so
  the drive — and the rebuild, if any — is the only difference.

Every run gets the shared per-frame checks — the independent validator,
the cross-frame invariants and rider-ledger conservation — and every A/B
pair goes through one frame comparator whose failures name the axis that
diverged.  Mode-specific checks hang off the matching axis: the bitwise
cost sweep whenever A and B sit on different oracle tiers, the prune
audit whenever a candidate index runs, the conflict relaxation (plus an
aggregate-service check across the run) when only B is sharded, and the
running-total/ledger/fleet equality of the crash drive.

The ``"solve"`` drive is the single-instance fuzz: every method in
:data:`repro.core.solver.METHODS` on one static instance, validated,
sandwiched between OPT and the analytic upper bound, with the zero-copy
insertion engine pinned against its reference implementation.

Everything is deterministic in the seed, so any failure is replayable
(``python -m repro.check --mode NAME --replay SEED``) and shrinkable:
:func:`minimize_seed` drops riders and vehicles from the drawn scenario
while the failure persists, for every mode.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.bounds import utility_upper_bound
from repro.core.candidates import build_candidate_index
from repro.core.dispatch import Dispatcher, RiderStatus
from repro.core.disruptions import (
    RiderCancellation,
    RiderNoShow,
    RoadClosure,
    TravelTimePerturbation,
    VehicleBreakdown,
)
from repro.core.instance import URRInstance
from repro.core.insertion import (
    arrange_single_rider,
    arrange_single_rider_reference,
)
from repro.core.scoring import SolverState
from repro.core.solver import solve
from repro.obs import trace as _trace
from repro.perf import CANDIDATE_STATS
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import dijkstra
from repro.check.crash import CrashDrive
from repro.check.rebuild import use_full_rebuild
from repro.check.scenario import INSTANCE, Scenario, Shape, draw_scenario, plan_for
from repro.check.stream import StreamDrive
from repro.check.validator import validate_assignment, validate_fleet_state

_EPS = 1e-6
_OPT_MAX_RIDERS = 6          # OPT is exponential; keep it tractable
_SHARD_COUNT = 4
#: deliberately generous, so the configured method always wins tier 0
#: and wall-clock noise never changes a trial
_WATCHDOG_BUDGET = 30.0
_SWEEP_PAIRS = 40            # bitwise cost pairs per boundary
#: per-boundary probabilities of each chaos event kind
_P_BREAKDOWN, _P_CANCEL, _P_PERTURB, _P_CLOSURE = 0.25, 0.45, 0.35, 0.2
#: BA's random rider order is one global draw and cannot decompose
#: across shards, so only these methods must match unsharded dispatch
_STRICT_SHARD_METHODS = ("eg", "cf", "gbs+eg")
#: the statuses ``service_rate`` counts as served
_SERVED = (RiderStatus.COMMITTED, RiderStatus.DELIVERED)


# ----------------------------------------------------------------------
# the modes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Mode:
    """One row of the fuzz table: a scenario shape plus the three axes.

    Dispatcher configs are ``+``-joined tokens: ``plain``, ``tier1``,
    ``index`` (the candidate index), ``sharded`` and ``rebuild``
    (the rebuild-everything reference of :mod:`repro.check.rebuild`).
    """

    name: str
    shape: Shape
    drive: str = "frames"           # "solve" | "frames" | "stream" | "crash"
    reference: str = "plain"        # A's config on the frames drive
    candidate: Tuple[str, ...] = ()  # B's configs, one drawn per seed
    perturb: str = ""               # "" | "chaos" | "once"
    p_perturb: float = 1.0          # share of seeds the perturbation hits


_CHAOS = Shape(vehicles=(2, 4), methods=("eg", "ba", "cf"))
_WIDE = Shape(grid=8, num_networks=3, frames=(3, 5), riders=(3, 8), vehicles=(3, 10))

#: Every fuzz mode, in CI order.
MODES: Dict[str, Mode] = {m.name: m for m in (
    Mode("instance", INSTANCE, drive="solve"),
    Mode("dispatch", Shape()),
    Mode("dispatch-tiered", Shape(), candidate=("tier1",)),
    Mode("chaos", _CHAOS, perturb="chaos"),
    Mode("chaos-sharded", _CHAOS, reference="sharded", perturb="chaos"),
    Mode("chaos-tiered", _CHAOS, candidate=("tier1",), perturb="chaos"),
    Mode("prune", _WIDE, candidate=("index",)),
    Mode("prune-tiered", _WIDE, candidate=("index+tier1",),
         perturb="once", p_perturb=0.5),
    Mode("chaos-rebuild", _CHAOS, reference="rebuild", candidate=("plain",),
         perturb="chaos"),
    Mode("prune-rebuild", _WIDE, reference="index+rebuild",
         candidate=("index",)),
    Mode("dispatch-shards", dataclasses.replace(_WIDE, p_tight=0.5),
         candidate=("sharded",)),
    Mode("crash", Shape(), drive="crash",
         candidate=("plain", "sharded", "index", "tier1")),
    Mode("crash-rebuild", Shape(), drive="crash", reference="rebuild",
         candidate=("plain", "index", "tier1")),
    Mode("crash-chaos", _CHAOS, drive="crash", candidate=("plain", "tier1"),
         perturb="chaos"),
    Mode("stream", Shape(riders=(0, 5)), drive="stream",
         candidate=("plain", "sharded", "tier1"), perturb="chaos", p_perturb=0.25),
)}


def _mode(mode: Union[str, Mode]) -> Mode:
    return MODES[mode] if isinstance(mode, str) else mode


def _relaxed(mode: Mode) -> bool:
    """Only B is sharded: frames may legitimately differ after a conflict."""
    return mode.drive == "frames" and "sharded" not in mode.reference and any(
        "sharded" in c for c in mode.candidate
    )


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzFailure:
    """One check that failed for one seed."""

    seed: int
    stage: str       # the check, or the axis whose comparison diverged
    method: str
    detail: str

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def __str__(self) -> str:
        return f"seed {self.seed} [{self.stage}/{self.method}] {self.detail}"


@dataclass
class SeedReport:
    """Everything one trial produced: its axis draws, counters, failures."""

    seed: int
    mode: str
    method: str = ""
    riders: int = 0
    vehicles: int = 0
    draws: Dict[str, object] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class FuzzRunReport:
    """Aggregate of many trials."""

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
        return all(r.ok for r in self.reports)

    def as_dict(self) -> Dict[str, object]:
        return {
            "seeds_run": self.seeds_run,
            "failing_seeds": self.failing_seeds,
            "failures": [f.as_dict() for f in self.failures],
        }


# ----------------------------------------------------------------------
# one trial
# ----------------------------------------------------------------------
class Trial:
    """One seed of one mode: the scenario, the axis draws and the checks."""

    def __init__(self, mode: Mode, scenario: Scenario) -> None:
        self.mode = mode
        self.rng = np.random.default_rng((scenario.seed << 1) ^ 0xA5E5)
        self.report = SeedReport(
            seed=scenario.seed, mode=mode.name, method=scenario.method,
            riders=len(scenario.riders), vehicles=len(scenario.fleet),
        )
        draws = self.report.draws
        self.config = mode.reference
        if mode.candidate:
            self.config = mode.candidate[int(self.rng.integers(len(mode.candidate)))]
            draws["config"] = self.config
        self.perturb = ""
        if mode.perturb and self.rng.random() < mode.p_perturb:
            self.perturb = draws["perturb"] = mode.perturb
            if scenario.method.startswith("gbs"):
                # the grouping plan is precomputed for the unperturbed city
                scenario = dataclasses.replace(scenario, method="eg", plan=None)
                self.report.method = "eg"
        self.scenario = scenario
        if self.perturb == "chaos":
            draws["watchdog"] = bool(self.rng.random() < 0.5)
        self.perturb_at: Optional[int] = None
        if self.perturb == "once" and len(scenario.frames) > 1:
            self.perturb_at = draws["perturbed_at"] = int(
                self.rng.integers(1, len(scenario.frames))
            )
        # A runs B's config unless the frames drive compares configs;
        # the row's rebuild token rides along on every drive
        rebuild = "rebuild" in mode.reference.split("+")
        self.reference = mode.reference
        if mode.drive != "frames":
            self.reference = self.config + "+rebuild" if rebuild else self.config
        #: the failure stage of an A/B divergence (the axis that differs)
        #: and B's name in the diverging values
        self.label = self.name = (
            mode.drive if mode.drive in ("stream", "crash") else self.config
        )
        if rebuild and "rebuild" not in self.config:
            self.name = "incremental"
            self.label = "rebuild" if mode.drive == "frames" else f"{mode.drive}+rebuild"
        #: each run's carry-over queue order at its last ledger check
        self.queues: Dict[str, List[int]] = {}
        #: rider ids issued up to and including each frame
        self.issued: List[set] = []
        for riders in scenario.frames:
            self.issued.append(set(self.issued[-1] if self.issued else ()))
            self.issued[-1].update(r.rider_id for r in riders)

    # -- bookkeeping ------------------------------------------------------
    @property
    def failed(self) -> bool:
        return bool(self.report.failures)

    def fail(self, stage: str, detail: str, method: Optional[str] = None) -> None:
        self.report.failures.append(FuzzFailure(
            seed=self.scenario.seed, stage=stage,
            method=self.report.method if method is None else method,
            detail=detail,
        ))

    def raised(self, stage: str, where: str, exc: Exception) -> None:
        """Record an exception, with the frame that raised it, as a failure."""
        tb = traceback.extract_tb(exc.__traceback__)[-1]
        self.fail(stage, f"{where}: {type(exc).__name__}: {exc} "
                         f"({os.path.basename(tb.filename)}:{tb.lineno})")

    def count(self, key: str, amount: float = 1) -> None:
        self.report.stats[key] = self.report.stats.get(key, 0) + amount

    # -- dispatchers ------------------------------------------------------
    def open(self, config: str, **extra) -> Dispatcher:
        """A dispatcher over the scenario in the given config."""
        scn, tokens = self.scenario, config.split("+")
        network, oracle = scn.network, scn.oracle
        tier = 1 if "tier1" in tokens else None
        if self.perturb:
            # perturbations mutate the road network: each run gets a copy
            network = network.copy()
            oracle = DistanceOracle(network, tier=tier)
        elif tier:
            oracle = DistanceOracle(network, tier=1)
        kwargs: dict = {}
        if "index" in tokens:
            kwargs["candidate_mode"] = "spatiotemporal"
            kwargs["candidate_index"] = build_candidate_index(
                network, oracle=oracle, audit=True
            )
        if "sharded" in tokens:
            kwargs.update(shard_workers=1, shard_count=_SHARD_COUNT)
        elif self.report.draws.get("watchdog"):
            kwargs["frame_budget"] = _WATCHDOG_BUDGET
        kwargs.update(extra)
        dispatcher = Dispatcher(
            network, list(scn.fleet), method=scn.method,
            frame_length=scn.frame_length, plan=scn.plan, alpha=scn.alpha,
            beta=scn.beta, oracle=oracle, seed=scn.seed,
            max_retries=scn.max_retries, **kwargs,
        )
        if "rebuild" in tokens:
            use_full_rebuild(dispatcher)
        return dispatcher

    # -- shared per-run checks ----------------------------------------------
    @staticmethod
    def before(d: Dispatcher) -> Tuple[int, set]:
        return len(d.pending_requests), d.riders_with_status(RiderStatus.COMMITTED)

    def check_frame(
        self, d: Dispatcher, report, frame: int, before: Tuple[int, set],
        issued: set, who: str = "",
    ) -> None:
        """The validator, the cross-frame invariants and the ledger."""
        suffix = f"@{who}" if who else ""

        def fail(check: str, detail: str) -> None:
            self.fail(check + suffix, f"frame {frame}: {detail}")

        assignment = report.assignment
        for violation in validate_assignment(assignment.instance, assignment).violations:
            fail("validate", str(violation))
        clock = d.clock
        for vid, fv in d.fleet.items():
            if fv.ready_time is not None and fv.ready_time <= clock:
                fail("invariant", f"vehicle {vid} ready_time {fv.ready_time:.6f} "
                                  f"not ahead of clock {clock:.6f}")
        for entry in d.riders.queue():
            if entry.rider.pickup_deadline <= clock:
                fail("invariant", f"dead rider {entry.rider.rider_id} in the "
                                  f"carry-over queue")
            if entry.attempts >= d.config.max_retries:
                fail("invariant", f"rider {entry.rider.rider_id} carried with "
                                  f"spent retry budget ({entry.attempts})")
        # conservation: everything offered is served, expired, or carried
        offered = report.num_requests + report.num_carried
        accounted = report.num_served + report.num_expired + len(d.pending_requests)
        if offered != accounted:
            fail("invariant", f"rider accounting leaks: offered {offered} != "
                              f"served + expired + carried {accounted}")
        if report.num_carried != before[0]:
            fail("invariant", f"num_carried {report.num_carried} != queue size "
                              f"before the frame {before[0]}")
        # within a frame a committed rider may only be delivered
        for rid in sorted(before[1]):
            status = d.ledger[rid]
            if status not in (RiderStatus.COMMITTED, RiderStatus.DELIVERED):
                fail("vanish", f"committed rider {rid} became {status.value} "
                               f"without a disruption")
        if d.config.frame_budget is not None and not report.solver_tier:
            fail("watchdog", "no solver tier recorded under a frame budget")
        # the committed-rider map, derived from scratch over the vehicles
        # not marked changed (a drain re-registers those): a writer that
        # skips the mark leaves the map stale
        pending = d.fleet._changed
        derived: Dict[int, set] = {}
        for vid, fv in d.fleet.items():
            for rid in fv.committed_rider_ids() if vid not in pending else ():
                derived.setdefault(rid, set()).add(vid)
        kept = {rid: set(vids) - pending for rid, vids in d.fleet.committed.owners.items()}
        kept = {rid: vids for rid, vids in kept.items() if vids}
        if kept != derived:
            fail("committed", f"committed-rider map {kept} != the fleet's {derived}")
        self.check_ledger(d, issued, f"frame {frame}", suffix)

    def check_ledger(self, d: Dispatcher, issued: set, where: str, suffix: str = "") -> None:
        """``pending + committed + delivered + expired + cancelled = issued``.

        Ledger keys are exactly the issued ids, ``PENDING`` is exactly the
        carry-over queue, ``COMMITTED`` exactly the riders onboard or in
        some vehicle's committed chain, and the pinned mu_v rows exactly
        the ``PENDING`` and ``COMMITTED`` riders.  The queue is in queue
        order: the riders still queued since the last check keep their
        order, ahead of every newcomer.
        """
        def fail(detail: str) -> None:
            self.fail("ledger" + suffix, f"{where}: {detail}")

        if set(d.ledger) != issued:
            fail(f"ledger keys diverge from issued ids (extra="
                 f"{sorted(set(d.ledger) - issued)[:5]}, missing="
                 f"{sorted(issued - set(d.ledger))[:5]})")
        scanned = {status.value: 0 for status in RiderStatus}
        for status in d.ledger.values():
            scanned[status.value] += 1
        if d.ledger_counts() != scanned:
            fail(f"status counts {d.ledger_counts()} != ledger {scanned}")
        served = sum(1 for rid, s in d.ledger.items() if s in _SERVED
                     and rid not in d.riders.preloaded)
        if d.riders.served != served:
            fail(f"served total {d.riders.served} != ledger {served}")
        order = [r.rider_id for r in d.pending_requests]
        if [e.rider.rider_id for e in d.riders.queue()] != order:
            fail("pending_requests is not in queue order")
        queued = set(order)
        previous = [rid for rid in self.queues.get(suffix, ()) if rid in queued]
        if order[:len(previous)] != previous:
            fail(f"queue order changed: {previous} still queued, now {order}")
        self.queues[suffix] = order
        pending = d.riders_with_status(RiderStatus.PENDING)
        listed = {rid for rid, s in d.ledger.items() if s is RiderStatus.PENDING}
        if pending != listed or pending != queued:
            fail(f"PENDING {sorted(listed)} != carry-over queue {order}")
        planned = set()
        for fv in d.fleet.values():
            planned.update(r.rider_id for r in fv.onboard)
            planned.update(s.rider.rider_id for s in fv.committed_stops)
        committed = d.riders_with_status(RiderStatus.COMMITTED)
        if committed != planned:
            fail(f"COMMITTED {sorted(committed)} != fleet plans {sorted(planned)}")
        pinned = set(d.riders.pinned_rows())
        if pinned != pending | committed:
            fail(f"pinned rows {sorted(pinned)} != PENDING + COMMITTED "
                 f"{sorted(pending | committed)}")

    def inject(self, runs: List[Tuple[Dispatcher, str]], events: List, frame: int) -> None:
        """Inject the same events into every run and audit each repair."""
        applied = []
        for i, (d, who) in enumerate(runs):
            suffix = f"@{who}" if who else ""
            before = d.riders_with_status(RiderStatus.COMMITTED)
            try:
                outcomes = d.inject(copy.deepcopy(events) if i else events)
            except Exception as exc:  # noqa: BLE001 — any inject failure is a bug
                self.raised("inject" + suffix, f"frame {frame}", exc)
                return
            applied.append([o.applied for o in outcomes])
            allowed = set().union(*(o.affected_rider_ids for o in outcomes))
            for rid in sorted(before):
                status = d.ledger[rid]
                if status is not RiderStatus.COMMITTED and rid not in allowed:
                    self.fail("vanish" + suffix, f"frame {frame}: committed rider "
                              f"{rid} became {status.value} outside any outcome")
            self.check_ledger(d, self.issued[frame], f"frame {frame} post-inject", suffix)
            state = validate_fleet_state(d.fleet.values(), d.clock, oracle=d.oracle)
            for violation in state.violations:
                self.fail("fleet" + suffix, f"frame {frame}: {violation}")
        self.count("events", len(events))
        self.count("applied", sum(applied[0]))
        if len(applied) == 2 and applied[0] != applied[1]:
            self.fail(self.label, f"frame {frame}: disruption outcomes diverge: "
                                  f"reference={applied[0]} {self.name}={applied[1]}")

    def sweep(self, a: Dispatcher, b: Optional[Dispatcher], where: str) -> None:
        """Bitwise cost sweep when A and B sit on different oracle tiers.

        Tier-1 bit-identity is a hard contract (the CH unpacks and re-sums
        original edges from the source), so both must return ``==`` floats;
        only matching infinities may differ as objects.  Random pairs
        rarely hit B's pair cache, so an evenly strided sample of the
        cached pairs themselves (a pair left over from an earlier metric
        included) is compared too.  Every landmark row of a tier-1 B (the
        reachability gate's bound) must equal :func:`dijkstra` from its
        landmark: a row left over from an earlier metric is caught here.
        """
        if b is None or a.oracle.tier == b.oracle.tier:
            return
        rows = b.oracle.landmarks()
        if rows is not None:
            columns = b.oracle.columns(b.network.nodes())
            for landmark, row in zip(b.oracle._landmark_nodes, rows):
                truth = dijkstra(b.network, landmark)
                for node, y in zip(b.network.nodes(), row[columns].tolist()):
                    x = truth.get(node, math.inf)
                    if x != y:
                        self.fail("tiered_cost", f"{where}: landmark {landmark}'s "
                                                 f"row diverges at node {node}: "
                                                 f"reference={x!r} {self.name}={y!r}")
                        return
        nodes = sorted(a.network.nodes())
        pairs = []
        for _ in range(_SWEEP_PAIRS):
            u = int(nodes[int(self.rng.integers(len(nodes)))])
            v = int(nodes[int(self.rng.integers(len(nodes)))])
            pairs.append((u, v, b.oracle.cost(u, v)))
        cached = list(b.oracle._pair_cache.items())
        pairs.extend(
            (u, v, y) for (u, v), y in cached[::max(1, len(cached) // _SWEEP_PAIRS)]
        )
        for u, v, y in pairs:
            x = a.oracle.cost(u, v)
            if x != y and not (math.isinf(x) and math.isinf(y)):
                self.fail("tiered_cost", f"{where}: cost({u}, {v}) diverges "
                                         f"bitwise: reference={x!r} {self.name}={y!r}")
                return


def _stops(stops) -> List[tuple]:
    return [(s.rider.rider_id, s.kind.value, s.location) for s in stops]


def _divergence(a: Dispatcher, b: Dispatcher, ra, rb, label: str) -> Optional[str]:
    """The first difference between two frame boundaries, or ``None``.

    ``rb`` is ``None`` when B has no live report for the frame (a
    commit-time crash left it only in B's checkpoint); then only the
    dispatcher state is compared.
    """
    if rb is not None:
        served = sorted(ra.assignment.served_rider_ids()), sorted(rb.assignment.served_rider_ids())
        if served[0] != served[1]:
            return f"served riders diverge: reference={served[0]} {label}={served[1]}"
        if abs(ra.utility - rb.utility) > _EPS:
            return f"utility diverges: reference={ra.utility:.9f} {label}={rb.utility:.9f}"
        if ra.num_expired != rb.num_expired:
            return f"expiry counts diverge: reference={ra.num_expired} {label}={rb.num_expired}"
        sa, sb = ra.assignment.schedules, rb.assignment.schedules
        if set(sa) != set(sb):
            return f"scheduled vehicle sets diverge: reference={sorted(sa)} {label}={sorted(sb)}"
        for vid in sorted(sa):
            stops = _stops(sa[vid].stops), _stops(sb[vid].stops)
            if stops[0] != stops[1]:
                return (f"vehicle {vid} schedules diverge: reference={stops[0]} "
                        f"{label}={stops[1]}")
            for idx, (x, y) in enumerate(zip(sa[vid].arrive, sb[vid].arrive)):
                if abs(x - y) > _EPS:
                    return f"vehicle {vid} arrival {idx} diverges: reference={x:.9f} {label}={y:.9f}"
    if a.clock != b.clock:
        return f"clocks diverge: reference={a.clock!r} {label}={b.clock!r}"
    qa = [(e.rider.rider_id, e.attempts) for e in a.riders.queue()]
    qb = [(e.rider.rider_id, e.attempts) for e in b.riders.queue()]
    if qa != qb:
        return f"carry-over queues diverge: reference={qa} {label}={qb}"
    if a.ledger != b.ledger:
        diff = {rid: (a.ledger.get(rid), b.ledger.get(rid))
                for rid in set(a.ledger) | set(b.ledger)
                if a.ledger.get(rid) != b.ledger.get(rid)}
        return f"rider ledgers diverge (reference, {label}): {dict(list(diff.items())[:5])}"
    return None


def _boundary_conflict(d: Dispatcher, riders) -> bool:
    """Would this frame's batch see any out-of-shard vehicle?

    Evaluated on the sharded dispatcher's pre-frame state with the
    engine's own coarse reachability test: exactly the predicate under
    which per-shard solves compose to the global solve.
    """
    plan = d._shard_plan
    batch = list(riders) + d.pending_requests
    instance = d._build_instance(batch)
    state = SolverState(instance)
    return any(
        plan.shard_of(vehicle.location) != plan.shard_of(rider.source)
        for rider in batch
        for vehicle in state.reachable_vehicles(rider, instance.vehicles)
    )


def _chaos_events(d: Dispatcher, rng) -> List:
    """Seeded disruption schedule for one frame boundary, drawn from A.

    Every gate is drawn unconditionally so the stream stays aligned
    whichever events fire; targets come from sorted views of the state.
    """
    gates = [rng.random() for _ in range(4)]
    events: List = []
    if gates[0] < _P_BREAKDOWN and len(d.fleet) > 1:
        vids = sorted(d.fleet)
        events.append(VehicleBreakdown(vehicle_id=int(vids[int(rng.integers(len(vids)))])))
    if gates[1] < _P_CANCEL:
        riders = sorted({r.rider_id for r in d.pending_requests} | {
            rid for fv in d.fleet.values() for rid in fv.committed_rider_ids()
        })
        if riders:
            rid = int(riders[int(rng.integers(len(riders)))])
            cls = RiderNoShow if rng.random() < 0.3 else RiderCancellation
            events.append(cls(rider_id=rid))
    edges = [(u, v) for u, v, _cost in d.network.edges()]
    if gates[2] < _P_PERTURB and edges:
        count = int(rng.integers(1, min(3, len(edges)) + 1))
        picks = [edges[int(rng.integers(len(edges)))] for _ in range(count)]
        events.append(TravelTimePerturbation(
            factors=tuple((u, v, float(rng.uniform(0.5, 3.0))) for u, v in picks)
        ))
    if gates[3] < _P_CLOSURE and edges:
        events.append(RoadClosure(edges=(edges[int(rng.integers(len(edges)))],)))
    return events


def _boundary_events(t: Trial, a: Dispatcher, frame: int) -> List:
    """The perturbation axis's events after ``frame`` (drawn from A).

    ``once`` is one broad, mostly-shortening change before the seeded
    frame: stale centre rows would then overestimate lower bounds and
    cut feasible pairs.
    """
    if t.perturb == "chaos":
        return _chaos_events(a, t.rng)
    if t.perturb_at != frame + 1:
        return []
    edges = [(u, v) for u, v, _cost in a.network.edges()]
    count = int(t.rng.integers(1, len(edges) // 3 + 2))
    return [TravelTimePerturbation(factors=tuple(
        (*edges[int(t.rng.integers(len(edges)))], float(t.rng.uniform(0.1, 1.5)))
        for _ in range(count)
    ))]


class FramesDrive:
    """B consumes each frame through ``dispatch_frame``."""

    def __init__(self, trial: Trial) -> None:
        self.dispatcher = trial.open(trial.config)

    def step(self, frame: int, riders):
        return self.dispatcher.dispatch_frame(list(riders))

    def finish(self, a: Dispatcher) -> None:
        pass

    def close(self) -> None:
        self.dispatcher.close()


_DRIVES = {"frames": FramesDrive, "stream": StreamDrive, "crash": CrashDrive}


def _run_lockstep(t: Trial) -> None:
    """Drive A (and B, when the mode has one) through every frame."""
    scn, stats_before = t.scenario, CANDIDATE_STATS.snapshot()
    a = t.open(t.reference)
    drive = _DRIVES[t.mode.drive](t) if t.mode.candidate else None
    relax = _relaxed(t.mode)
    strict = not relax or scn.method in _STRICT_SHARD_METHODS
    last = len(scn.frames) - 1
    try:
        for frame, riders in enumerate(scn.frames):
            b = drive.dispatcher if drive else None
            runs = [(a, "")] + ([(b, t.name)] if b else [])
            if relax:
                if _boundary_conflict(b, riders):
                    # carried state downstream of a conflict frame may
                    # legitimately differ from the unsharded run's
                    t.count("conflict_frames")
                    strict = False
                elif strict:
                    t.count("strict_frames")
            before = [Trial.before(d) for d, _ in runs]
            try:
                ra = a.dispatch_frame(list(riders))
            except Exception as exc:  # noqa: BLE001 — any dispatch failure is a bug
                t.raised("dispatch", f"frame {frame}", exc)
                break
            t.check_frame(a, ra, frame, before[0], t.issued[frame])
            t.count("carried", ra.num_carried)
            if drive is not None:
                try:
                    rb = drive.step(frame, riders)
                except Exception as exc:  # noqa: BLE001
                    t.raised(t.label, f"frame {frame}", exc)
                    break
                b = drive.dispatcher
                runs[1] = (b, t.name)
                if rb is not None:
                    t.check_frame(b, rb, frame, before[1], t.issued[frame], t.name)
                    if relax and rb.utility < -_EPS:
                        t.fail(t.label, f"frame {frame}: sharded frame utility "
                                        f"{rb.utility:.9f} fell below the carried-in baseline")
                detail = _divergence(a, b, ra, rb, t.name) if strict and not t.failed else None
                if detail is not None:
                    t.fail(t.label, f"frame {frame}: {detail}")
            t.sweep(a, b, f"frame {frame}")
            events = _boundary_events(t, a, frame) if frame < last and not t.failed else []
            if events:
                t.inject(runs, events, frame)
                t.sweep(a, b, f"frame {frame} post-inject")
            if t.failed:
                break
        else:
            if drive is not None:
                drive.finish(a)
                if strict and not t.failed and (
                    a.fleet.snapshot() != drive.dispatcher.fleet.snapshot()
                ):
                    t.fail(t.label, "final fleet state diverges")
    finally:
        a.close()
        if drive is not None:
            drive.close()
    stats = CANDIDATE_STATS.snapshot().delta(stats_before)
    t.count("pairs_considered", stats.pairs_considered)
    t.count("pairs_pruned", stats.pairs_pruned)
    if stats.pruned_in_error:
        t.fail("prune_audit", f"{stats.pruned_in_error} pruned pair(s) survive the "
                              f"exact reachability re-check (unsound lower bound)")
    t.count("frames", len(scn.frames))
    t.count("requests", a.total_requests)
    t.count("served", a.total_served)
    if drive is not None:
        t.count("served_b", drive.dispatcher.total_served)
    for status, n in a.ledger_counts().items():
        t.count(f"ledger.{status}", n)


# ----------------------------------------------------------------------
# the single-instance drive
# ----------------------------------------------------------------------
def differential_check(
    instance: URRInstance, sequences: Iterable, seed: int = -1
) -> List[FuzzFailure]:
    """Pin the fast insertion engine against the reference, rider by rider.

    For every (schedule, rider-not-already-in-it) combination both engines
    must agree on feasibility and on the minimum incremental cost, and the
    fast path's materialised sequence must itself be valid.
    """
    failures: List[FuzzFailure] = []

    def fail(detail: str) -> None:
        failures.append(FuzzFailure(seed, "differential", "engine", detail))

    for seq in sequences:
        present = seq.rider_ids()
        for rider in instance.riders:
            if rider.rider_id in present:
                continue
            fast = arrange_single_rider(seq, rider)
            reference = arrange_single_rider_reference(seq, rider)
            if (fast is None) != (reference is None):
                fail(f"feasibility disagrees for rider {rider.rider_id} on "
                     f"{seq!r}: fast={fast!r}, reference={reference!r}")
            elif fast is None or reference is None:
                continue
            elif abs(fast.delta_cost - reference.delta_cost) > _EPS:
                fail(f"delta cost disagrees for rider {rider.rider_id} on {seq!r}: "
                     f"fast={fast.delta_cost!r}, reference={reference.delta_cost!r}")
            elif fast.sequence.validity_errors():
                fail(f"fast-path sequence invalid for rider {rider.rider_id}: "
                     f"{fast.sequence.validity_errors()[:2]}")
    return failures


def _run_solve(t: Trial) -> None:
    """Every method on one static instance: validate, sandwich, differential."""
    instance = t.scenario.static_instance()
    t.report.draws["regime"] = t.scenario.regime
    t.report.draws["alpha"], t.report.draws["beta"] = instance.alpha, instance.beta
    bound = utility_upper_bound(instance).total
    t.report.stats["bound"] = bound
    plan = plan_for(instance.network)
    utilities: Dict[str, float] = {}
    sequences = [instance.initial_sequence(v) for v in instance.vehicles]
    for method in t.mode.shape.methods:
        if method == "opt" and not 0 < instance.num_riders <= _OPT_MAX_RIDERS:
            continue
        assignment = solve(instance, method=method, plan=plan,
                           opt_max_riders=_OPT_MAX_RIDERS)
        for violation in validate_assignment(instance, assignment).violations:
            t.fail("validate", str(violation), method)
        utilities[method] = t.report.stats[f"utility.{method}"] = assignment.total_utility()
        if method in ("eg", "ba"):
            sequences.extend(assignment.schedules.values())
    opt = utilities.get("opt")
    for method, utility in utilities.items():
        if utility > bound + _EPS:
            t.fail("cross_check", f"utility {utility:.9f} exceeds the analytic "
                                  f"upper bound {bound:.9f}", method)
        if opt is not None and method != "opt" and utility > opt + _EPS:
            t.fail("cross_check", f"heuristic utility {utility:.9f} exceeds OPT "
                                  f"{opt:.9f}", method)
    t.report.failures.extend(differential_check(instance, sequences, t.scenario.seed))


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def run_trial(
    seed: int,
    mode: Union[str, Mode] = "instance",
    scenario: Optional[Scenario] = None,
) -> SeedReport:
    """Run one seed of one mode (on ``scenario`` when the shrinker passes one)."""
    mode = _mode(mode)
    with _trace.span("fuzz.seed", kind=mode.name, seed=seed) as seed_span:
        t = Trial(mode, scenario or draw_scenario(seed, mode.shape))
        (_run_solve if mode.drive == "solve" else _run_lockstep)(t)
        seed_span.annotate(ok=t.report.ok, failures=len(t.report.failures))
    return t.report


def run_fuzz(
    seeds: Iterable[int],
    mode: Union[str, Mode] = "instance",
    stop_after: Optional[float] = None,
    on_seed: Optional[Callable[[SeedReport], None]] = None,
) -> FuzzRunReport:
    """Fuzz a sequence of seeds, optionally stopping on a time budget.

    ``stop_after`` is a wall-clock budget in seconds measured from the
    first trial; the current trial always completes.  When only B is
    sharded, the riders it served summed over every seed must be at least
    A's: individual conflict-laden seeds may end a rider or two either
    way, but systematic loss is a reconciliation bug (reported under the
    synthetic seed ``-1``).
    """
    mode = _mode(mode)
    run = FuzzRunReport()
    start = time.perf_counter()
    for seed in seeds:
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
        run.reports.append(run_trial(seed, mode))
        if on_seed is not None:
            on_seed(run.reports[-1])
    if _relaxed(mode):
        served = sum(r.stats.get("served", 0) for r in run.reports)
        served_b = sum(r.stats.get("served_b", 0) for r in run.reports)
        if served_b < served:
            run.reports.append(SeedReport(seed=-1, mode=mode.name, failures=[FuzzFailure(
                -1, "sharded", "aggregate",
                f"sharded runs served {served_b} riders across {run.seeds_run} "
                f"seed(s) < unsharded {served}: reconciliation is losing service",
            )]))
    return run


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
FailurePredicate = Callable[[Scenario], Optional[str]]


@dataclass
class MinimizedRepro:
    """A failing seed shrunk to the riders and vehicles that still fail it."""

    seed: int
    mode: str
    detail: str
    scenario: Scenario
    original_riders: int
    original_vehicles: int

    def as_dict(self) -> Dict[str, object]:
        scn = self.scenario
        return {
            "seed": self.seed,
            "mode": self.mode,
            "detail": self.detail,
            "original": {"riders": self.original_riders,
                         "vehicles": self.original_vehicles},
            "minimized": {
                "method": scn.method, "alpha": scn.alpha, "beta": scn.beta,
                "frame_length": scn.frame_length, "max_retries": scn.max_retries,
                "frames": [[dataclasses.asdict(r) for r in frame] for frame in scn.frames],
                "vehicles": [{"vehicle_id": v.vehicle_id, "location": v.location,
                              "capacity": v.capacity} for v in scn.fleet],
            },
        }


def minimize_seed(
    seed: int,
    mode: Union[str, Mode] = "instance",
    predicate: Optional[FailurePredicate] = None,
) -> Optional[MinimizedRepro]:
    """Shrink a failing seed to a minimal failing scenario.

    Greedy delta-debugging: repeatedly drop one rider (then one vehicle)
    and keep the reduction whenever the failure predicate still fires.
    Returns ``None`` when the seed does not fail to begin with.  The
    default predicate re-runs the mode's whole trial; a custom one
    (scenario -> failure detail or ``None``) shrinks against a specific
    bug.
    """
    mode = _mode(mode)
    if predicate is None:
        def predicate(scenario: Scenario) -> Optional[str]:
            report = run_trial(seed, mode, scenario)
            return str(report.failures[0]) if report.failures else None

    scenario = draw_scenario(seed, mode.shape)
    detail = predicate(scenario)
    if detail is None:
        return None
    repro = MinimizedRepro(seed, mode.name, detail, scenario,
                           len(scenario.riders), len(scenario.fleet))
    shrunk = True
    while shrunk:
        shrunk = False
        candidates = [(Scenario.without_rider, r.rider_id)
                      for r in reversed(repro.scenario.riders)]
        candidates += [(Scenario.without_vehicle, v.vehicle_id)
                       for v in reversed(repro.scenario.fleet)]
        for drop, key in candidates:
            smaller = drop(repro.scenario, key)
            if not smaller.riders or not smaller.fleet:
                continue
            found = predicate(smaller)
            if found is not None:
                repro.scenario, repro.detail, shrunk = smaller, found, True
    return repro

