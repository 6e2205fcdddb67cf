"""Crash-injection fuzzing for the durability layer (``--crash``).

Each seed draws a complete multi-frame dispatcher scenario up front
(network, fleet, method, every frame's request batch), then runs it
twice:

1. **uninterrupted baseline** — a plain dispatcher with no durability,
   recording every frame's :func:`~repro.core.durability.frame_summary`,
   the final rider ledger, and a digest of the final fleet state;
2. **durable run, killed** — the same scenario with a checkpoint
   directory and a seeded kill: a :class:`SimulatedCrash` raised from
   one of the named :data:`~repro.core.durability.CRASH_POINTS` inside
   ``commit_frame`` (before the WAL append, between WAL append and
   snapshot, mid-atomic-rename, after the snapshot), or a plain process
   exit between frames.

The trial then calls :meth:`Dispatcher.restore` on the checkpoint
directory (replaying the WAL tail), dispatches the remaining frames,
and asserts:

- **frame-for-frame equivalence**: every frame's summary
  (:func:`~repro.core.durability.frame_summary`) matches the
  uninterrupted run, including the frames re-materialized from the
  snapshot and WAL;
- **ledger conservation** on the restored dispatcher
  (:func:`repro.check.fuzz._check_ledger`) plus exact ledger equality
  with the baseline — no rider lost, duplicated, or re-statused by the
  crash;
- **fleet-state equality**: locations, ready times, onboard riders,
  committed chains, costs and served counts all match the baseline;
- **no frame ever fails to commit**: ``dispatch_frame`` never raises
  before the seeded kill or after the restore.

Scenario modes mirror the dispatcher fuzzers: a fraction of seeds run
sharded, a fraction on the spatio-temporal candidate index, and a
fraction on a tier-1 (CH + ALT) distance oracle — so checkpoints
round-trip under every dispatch configuration, not just the default
one.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.dispatch import DispatchError, Dispatcher
from repro.core.durability import (
    CRASH_POINTS,
    DurabilityConfig,
    SimulatedCrash,
    frame_summary,
)
from repro.core.requests import Rider
from repro.core.vehicles import Vehicle
from repro.obs import trace as _trace
from repro.roadnet.oracle import DistanceOracle
from repro.check.fuzz import (
    FuzzConfig,
    FuzzFailure,
    FuzzRunReport,
    _check_ledger,
    _dispatch_requests,
    _network_for,
    _plan_for,
    _WEIGHT_PROFILES,
)

#: Kill kinds beyond the named durability crash points.
_BETWEEN_FRAMES = "between_frames"

#: All kill kinds a seed can draw.
KILL_KINDS: Tuple[str, ...] = CRASH_POINTS + (_BETWEEN_FRAMES,)


@dataclass
class CrashFuzzConfig:
    """Shape of the randomized crash-recovery scenarios.

    The scenario grid matches :class:`DispatchFuzzConfig`; on top of it
    each seed draws a checkpoint cadence, a kill kind, and a kill frame.
    ``shard_fraction`` / ``candidate_fraction`` / ``tiered_fraction``
    carve the seed space into dispatch modes (the remainder runs the
    default all-pairs matcher on the untiered oracle).
    """

    grid_rows: int = 6
    grid_cols: int = 6
    num_networks: int = 4
    min_frames: int = 4
    max_frames: int = 6
    min_riders_per_frame: int = 2
    max_riders_per_frame: int = 5
    min_vehicles: int = 1
    max_vehicles: int = 3
    max_capacity: int = 3
    methods: Tuple[str, ...] = ("eg", "ba", "cf", "gbs+eg")
    checkpoint_cadences: Tuple[int, ...] = (1, 2, 3)
    shard_fraction: float = 0.25
    candidate_fraction: float = 0.25
    tiered_fraction: float = 0.20
    shard_count: int = 4


@dataclass
class CrashSeedReport:
    """Everything one crash-recovery trial produced."""

    seed: int
    method: str = ""
    mode: str = "plain"
    kill_kind: str = ""
    kill_frame: int = 0
    num_frames: int = 0
    num_vehicles: int = 0
    checkpoint_every: int = 1
    frames_restored: int = 0
    frames_resumed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    # keep the FuzzRunReport aggregation happy
    scenario: str = "crash"
    num_riders: int = 0


def _fleet_digest(dispatcher: Dispatcher) -> Dict[int, dict]:
    """The comparable slice of final fleet state, keyed by vehicle id."""
    digest: Dict[int, dict] = {}
    for vid, fv in dispatcher.fleet.items():
        digest[vid] = {
            "location": fv.location,
            "ready_time": fv.ready_time,
            "onboard": sorted(r.rider_id for r in fv.onboard),
            "committed": [
                (s.rider.rider_id, s.kind.value, s.location)
                for s in fv.committed_stops
            ],
            "total_cost": fv.total_cost,
            "riders_served": fv.riders_served,
        }
    return digest


def _ledger_values(dispatcher: Dispatcher) -> Dict[int, str]:
    return {rid: status.value for rid, status in dispatcher.ledger.items()}


def fuzz_crash_seed(
    seed: int, config: Optional[CrashFuzzConfig] = None
) -> CrashSeedReport:
    """Run one seeded kill-restore-resume trial (see module docstring)."""
    with _trace.span("fuzz.seed", kind="crash", seed=seed) as seed_span:
        report = _fuzz_crash_seed_impl(seed, config)
        seed_span.annotate(ok=report.ok, failures=len(report.failures))
    return report


def _fuzz_crash_seed_impl(
    seed: int, config: Optional[CrashFuzzConfig]
) -> CrashSeedReport:
    config = config or CrashFuzzConfig()
    rng = np.random.default_rng(seed)
    net_config = FuzzConfig(
        grid_rows=config.grid_rows,
        grid_cols=config.grid_cols,
        num_networks=config.num_networks,
    )
    network, oracle = _network_for(net_config, seed)

    # ------------------------------------------------------------------
    # scenario draw (everything up front, so both runs see identical
    # inputs and the kill point is a pure function of the seed)
    # ------------------------------------------------------------------
    method = config.methods[int(rng.integers(len(config.methods)))]
    alpha, beta = _WEIGHT_PROFILES[int(rng.integers(len(_WEIGHT_PROFILES)))]
    num_frames = int(rng.integers(config.min_frames, config.max_frames + 1))
    num_vehicles = int(
        rng.integers(config.min_vehicles, config.max_vehicles + 1)
    )
    frame_length = float(rng.uniform(3.0, 8.0))
    max_retries = int(rng.integers(1, 5))
    checkpoint_every = config.checkpoint_cadences[
        int(rng.integers(len(config.checkpoint_cadences)))
    ]
    fleet_spec = [
        (
            j,
            int(rng.integers(network.num_nodes)),
            int(rng.integers(1, config.max_capacity + 1)),
        )
        for j in range(num_vehicles)
    ]

    mode_roll = float(rng.uniform())
    if mode_roll < config.shard_fraction:
        mode = "sharded"
    elif mode_roll < config.shard_fraction + config.candidate_fraction:
        mode = "candidate"
    elif mode_roll < (
        config.shard_fraction
        + config.candidate_fraction
        + config.tiered_fraction
    ):
        mode = "tiered"
    else:
        mode = "plain"

    kill_kind = KILL_KINDS[int(rng.integers(len(KILL_KINDS)))]
    # kill somewhere a prefix of frames is already committed and a
    # suffix remains, so restore always has both state and work left
    kill_frame = int(rng.integers(1, num_frames - 1)) if num_frames > 2 else 1
    if kill_kind in ("post_snapshot_temp", "post_snapshot"):
        # these points only exist inside a snapshot write, which the
        # cadence may skip at the nominal kill frame — snap to the
        # nearest frame whose commit actually writes a snapshot
        boundaries = [
            f for f in range(num_frames) if (f + 1) % checkpoint_every == 0
        ]
        kill_frame = min(boundaries, key=lambda f: abs(f - kill_frame))

    # the full request stream, drawn against deterministic frame starts
    # (the clock advances exactly frame_length per frame: no disruptions)
    frames: List[List[Rider]] = []
    rider_id = 0
    for frame in range(num_frames):
        count = int(
            rng.integers(
                config.min_riders_per_frame, config.max_riders_per_frame + 1
            )
        )
        frames.append(
            _dispatch_requests(
                network, oracle, rng, count, frame * frame_length,
                frame_length, rider_id,
            )
        )
        rider_id += count
    issued = {r.rider_id for batch in frames for r in batch}

    report = CrashSeedReport(
        seed=seed,
        method=method,
        mode=mode,
        kill_kind=kill_kind,
        kill_frame=kill_frame,
        num_frames=num_frames,
        num_vehicles=num_vehicles,
        checkpoint_every=checkpoint_every,
        num_riders=rider_id,
    )
    failures = report.failures

    def fail(stage: str, detail: str) -> None:
        failures.append(
            FuzzFailure(seed=seed, stage=stage, method=method, detail=detail)
        )

    plan = _plan_for(network) if method.startswith("gbs") else None

    def make_dispatcher(durability=None) -> Dispatcher:
        kwargs: dict = {}
        if mode == "sharded":
            kwargs.update(shard_workers=1, shard_count=config.shard_count)
        elif mode == "candidate":
            kwargs.update(candidate_mode="spatiotemporal")
        dispatch_oracle = (
            DistanceOracle(network, tier=1) if mode == "tiered" else oracle
        )
        return Dispatcher(
            network,
            [Vehicle(vehicle_id=j, location=loc, capacity=cap)
             for j, loc, cap in fleet_spec],
            method=method,
            frame_length=frame_length,
            plan=plan,
            alpha=alpha,
            beta=beta,
            oracle=dispatch_oracle,
            seed=seed,
            max_retries=max_retries,
            durability=durability,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # uninterrupted baseline
    # ------------------------------------------------------------------
    baseline_summaries: List[dict] = []
    try:
        with make_dispatcher() as baseline:
            for batch in frames:
                baseline_summaries.append(
                    frame_summary(baseline.dispatch_frame(batch))
                )
            baseline_ledger = _ledger_values(baseline)
            baseline_fleet = _fleet_digest(baseline)
    except DispatchError as exc:
        fail("crash_baseline", f"baseline DispatchError: {exc}")
        return report

    # ------------------------------------------------------------------
    # durable run, killed at the seeded point
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-crash-") as tmpdir:
        durable = make_dispatcher(
            DurabilityConfig(tmpdir, checkpoint_every=checkpoint_every,
                             fsync=False)
        )
        crashed = False
        try:
            if kill_kind in CRASH_POINTS:

                def crash_hook(point: str) -> None:
                    # the frame cursor advances before commit_frame runs,
                    # so frame k commits with _frame_index == k + 1
                    if (
                        point == kill_kind
                        and durable._frame_index == kill_frame + 1
                    ):
                        raise SimulatedCrash(point)

                durable._durability.crash_hook = crash_hook

            for frame, batch in enumerate(frames):
                if kill_kind == _BETWEEN_FRAMES and frame == kill_frame + 1:
                    break  # the "process exited between frames" model
                durable.dispatch_frame(batch)
            else:
                if kill_kind != _BETWEEN_FRAMES:
                    fail(
                        "crash_kill",
                        f"seeded {kill_kind} kill at frame {kill_frame} "
                        f"never fired",
                    )
                    return report
            crashed = kill_kind == _BETWEEN_FRAMES
        except SimulatedCrash:
            crashed = True
        except DispatchError as exc:
            fail(
                "crash_commit",
                f"frame failed to commit before the kill: {exc}",
            )
            return report
        finally:
            # a real crash loses the process; here we only release the
            # WAL handle (the checkpoint directory is untouched)
            durable.close()
        if not crashed:
            fail("crash_kill", f"{kill_kind} kill produced no crash")
            return report

        # --------------------------------------------------------------
        # restore + resume
        # --------------------------------------------------------------
        try:
            restore_kwargs: dict = {}
            if mode == "tiered":
                restore_kwargs["oracle"] = DistanceOracle(network, tier=1)
            if plan is not None:
                restore_kwargs["plan"] = plan
            restored = Dispatcher.restore(tmpdir, **restore_kwargs)
        except Exception as exc:  # noqa: BLE001 — any restore failure is a bug
            fail("crash_restore", f"restore failed: {type(exc).__name__}: {exc}")
            return report
        report.frames_restored = restored._frame_index
        with restored:
            if restored._frame_index > num_frames:
                fail(
                    "crash_restore",
                    f"restored cursor {restored._frame_index} beyond the "
                    f"scenario's {num_frames} frames",
                )
                return report
            try:
                for frame in range(restored._frame_index, num_frames):
                    restored.dispatch_frame(frames[frame])
                    report.frames_resumed += 1
            except DispatchError as exc:
                fail(
                    "crash_resume",
                    f"frame failed to commit after restore: {exc}",
                )
                return report

            # ----------------------------------------------------------
            # equivalence with the uninterrupted run
            # ----------------------------------------------------------
            resumed_summaries = [frame_summary(r) for r in restored.reports]
            if len(resumed_summaries) != len(baseline_summaries):
                fail(
                    "crash_equivalence",
                    f"{len(resumed_summaries)} frames after resume != "
                    f"baseline {len(baseline_summaries)}",
                )
            for i, (got, want) in enumerate(
                zip(resumed_summaries, baseline_summaries)
            ):
                if got != want:
                    fail(
                        "crash_equivalence",
                        f"frame {i} diverges after restore: {got} != "
                        f"baseline {want}",
                    )
                    break
            _check_ledger(restored, issued, fail, "post-resume")
            if _ledger_values(restored) != baseline_ledger:
                diff = {
                    rid: (
                        baseline_ledger.get(rid),
                        _ledger_values(restored).get(rid),
                    )
                    for rid in issued
                    if baseline_ledger.get(rid)
                    != _ledger_values(restored).get(rid)
                }
                fail(
                    "crash_ledger",
                    f"ledger diverges from baseline (rider: baseline vs "
                    f"restored): {dict(list(diff.items())[:5])}",
                )
            if _fleet_digest(restored) != baseline_fleet:
                fail(
                    "crash_fleet",
                    "final fleet state diverges from the uninterrupted run",
                )
    return report


def run_crash_fuzz(
    seeds: Iterable[int],
    config: Optional[CrashFuzzConfig] = None,
    stop_after: Optional[float] = None,
    on_seed: Optional[Callable[[CrashSeedReport], None]] = None,
) -> FuzzRunReport:
    """Fuzz kill-restore-resume trials over a seed sequence."""
    import time

    config = config or CrashFuzzConfig()
    run = FuzzRunReport()
    start = time.perf_counter()
    for seed in seeds:
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
        report = fuzz_crash_seed(seed, config)
        run.reports.append(report)
        if on_seed is not None:
            on_seed(report)
    return run
