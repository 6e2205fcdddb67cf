"""Durable dispatch: checkpoint snapshots + a per-frame write-ahead log.

A day-long rolling-horizon run is a long chain of committed promises —
the RiderStatus ledger, every vehicle's residual ``committed_stops``
plan, the carry-over queue with its retry budgets, the pinned ``mu_v``
utility rows.  This module makes that chain survive a process kill.
It persists state, not history: a snapshot holds the dispatcher's
running totals, never a per-frame list, so no part of it grows with
the number of frames (the ledger grows with the riders admitted).

- :class:`DurabilityLog` owns a directory holding three files:

  ``snapshot.json``
      A versioned (:data:`CHECKPOINT_VERSION`) snapshot of the
      cross-frame dispatcher state, written atomically (temp file in
      the same directory + flush + fsync + ``os.replace`` + directory
      fsync) so a crash never leaves a torn snapshot — readers see the
      old one or the new one, nothing in between.
  ``wal.jsonl``
      An append-only write-ahead log with one CRC-guarded record per
      committed frame (the frame's *new* requests plus a result
      summary).  Appended *before* the snapshot inside
      :meth:`DurabilityLog.commit_frame`, so a crash between the two
      loses nothing: restore loads the last snapshot and replays the
      WAL tail through the (deterministic) dispatcher.  A torn final
      line — the crash hit mid-append — is detected by the CRC and
      dropped.
  ``network.json``
      The road network (written once, and again whenever the metric
      changes — the snapshot stores the network's canonical
      fingerprint so restore can both rebuild the network and reject a
      mismatched one handed in by the caller).

- ``Dispatcher(durability=...)`` commits every frame through the log;
  :meth:`repro.core.dispatch.Dispatcher.restore` rebuilds a dispatcher
  from the directory, re-applies the snapshot state, verifies it with
  the independent :func:`repro.check.validator.validate_fleet_state`
  oracle, replays the WAL tail and resumes exactly where the dead
  process stopped.  Dispatch is deterministic given the frame inputs
  (the per-frame RNG is re-derived from ``seed + frame_index`` — the
  frame cursor *is* the RNG state), so replay reproduces the lost
  frames bit for bit; the replayed summaries are checked against the
  WAL records to prove it.

Rider / vehicle / stop payloads reuse the :mod:`repro.workload.serialize`
dict conventions, so the on-disk vocabulary matches saved instances.

Snapshot cadence is ``checkpoint_every`` frames (default 1: snapshot at
every frame commit, WAL tail at most one frame deep).  Larger values
trade restore-time replay work for less per-frame I/O on big fleets.

``crash_hook`` is the seeded fault-injection seam the crash fuzzer
(``python -m repro.check --mode crash``) uses: it is called with a named
crash point (:data:`CRASH_POINTS`) at every durability boundary and may
raise :class:`SimulatedCrash` to model a process kill at exactly that
point.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.requests import Rider
from repro.core.schedule import Stop, StopKind
from repro.workload.serialize import (
    network_from_dict,
    network_to_dict,
    rider_from_dict,
    rider_to_dict,
)

PathLike = Union[str, Path]

#: Snapshot format version; bumped on any incompatible layout change.
#: Version 2 dropped the process-pool shard options from the config and
#: the shard retry/fallback counters from the frame summaries; version 3
#: stores the config as the dispatcher's ``DispatchConfig`` fields (the
#: watchdog's ``fallbacks`` chain is no longer a setting); version 4
#: stores running totals and the preloaded rider ids in place of the
#: per-frame report summaries and the seen-id list.
CHECKPOINT_VERSION = 4

#: Named crash-injection points, in the order they occur inside
#: :meth:`DurabilityLog.commit_frame`.
CRASH_POINTS = (
    "pre_wal",            # before the frame's WAL record is appended
    "post_wal",           # WAL appended, snapshot not yet written
    "post_snapshot_temp", # snapshot temp file written, not yet renamed
    "post_snapshot",      # snapshot renamed, WAL not yet truncated
)

SNAPSHOT_FILE = "snapshot.json"
WAL_FILE = "wal.jsonl"
NETWORK_FILE = "network.json"


class CheckpointError(RuntimeError):
    """A checkpoint could not be loaded, applied, or replayed."""


class SimulatedCrash(RuntimeError):
    """Raised by a ``crash_hook`` to model a process kill at that point."""

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at durability point {point!r}")
        self.point = point


@dataclass
class DurabilityConfig:
    """How a dispatcher persists its state.

    ``checkpoint_every`` is the snapshot cadence in frames; the WAL is
    appended every frame regardless, so restore never loses a committed
    frame — it only replays up to ``checkpoint_every - 1`` of them.
    ``fsync=False`` trades crash-consistency on power loss for speed
    (process kills are still fully covered); tests use it to keep tiny
    frames from being dominated by disk flushes.
    """

    directory: PathLike
    checkpoint_every: int = 1
    fsync: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


# ----------------------------------------------------------------------
# payload helpers (repro.workload.serialize conventions)
# ----------------------------------------------------------------------
def stop_to_dict(stop: Stop) -> dict:
    """A JSON-ready dict for one committed stop."""
    return {
        "location": stop.location,
        "kind": stop.kind.value,
        "rider": rider_to_dict(stop.rider),
    }


def stop_from_dict(payload: dict) -> Stop:
    """Inverse of :func:`stop_to_dict`."""
    return Stop(
        location=payload["location"],
        kind=StopKind(payload["kind"]),
        rider=rider_from_dict(payload["rider"]),
    )


def _canonical(payload: Any) -> str:
    """Canonical JSON text (sorted keys, no whitespace) for digests."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc(payload: Any) -> int:
    return zlib.crc32(_canonical(payload).encode("utf-8"))


def network_fingerprint(network) -> int:
    """A canonical content digest of a road network.

    Computed over the sorted :func:`network_to_dict` form, so two
    networks fingerprint equal iff they have the same nodes, edges,
    costs, coordinates and directedness — the properties every oracle
    distance depends on.
    """
    return _crc(network_to_dict(network))


def frame_summary(report) -> dict:
    """The deterministic slice of a :class:`FrameReport`, JSON-ready.

    Wall-clock fields (``solver_seconds``, ``perf``) and the live
    ``assignment`` object are excluded: the summary is what WAL replay
    must reproduce bit for bit.
    """
    return {
        "frame_index": report.frame_index,
        "frame_start": report.frame_start,
        "num_requests": report.num_requests,
        "num_carried": report.num_carried,
        "num_served": report.num_served,
        "num_expired": report.num_expired,
        "utility": report.utility,
        "travel_cost": report.travel_cost,
        "solver_tier": report.solver_tier,
        "fallback_tier": report.fallback_tier,
        "budget_exceeded": report.budget_exceeded,
    }


# ----------------------------------------------------------------------
# dispatcher state <-> snapshot payload
# ----------------------------------------------------------------------
def snapshot_dispatcher(dispatcher, fingerprint: int) -> dict:
    """Capture every piece of cross-frame dispatcher state as JSON.

    ``fingerprint`` is the :func:`network_fingerprint` of the
    dispatcher's network (the log caches it per oracle epoch).

    Ordering is part of the contract wherever the dispatcher's own
    iteration order is: the fleet list preserves the fleet dict's
    insertion order (it drives instance vehicle order), the carry-over
    list preserves queue order (it drives batch order), and the pinned
    utility rows preserve their (sorted) overlay order.
    """
    fleet = []
    for fv in dispatcher.fleet.values():
        fleet.append(
            {
                "id": fv.vehicle_id,
                "location": fv.location,
                "capacity": fv.capacity,
                "ready_time": fv.ready_time,
                "onboard": [rider_to_dict(r) for r in fv.onboard],
                "committed_stops": [
                    stop_to_dict(s) for s in fv.committed_stops
                ],
                "total_cost": fv.total_cost,
                "riders_served": fv.riders_served,
            }
        )
    return {
        "format_version": CHECKPOINT_VERSION,
        "frames_committed": dispatcher._frame_index,
        "clock": dispatcher._clock,
        "config": asdict(dispatcher.config),
        "network_fingerprint": fingerprint,
        "totals": {
            "requests": dispatcher.total_requests,
            "served": dispatcher.total_served,
            "expired": dispatcher.total_expired,
            "utility": dispatcher.total_utility,
        },
        "fleet": fleet,
        "carryover": [
            {
                "rider": rider_to_dict(entry.rider),
                "attempts": entry.attempts,
                "first_frame": entry.first_frame,
            }
            for entry in dispatcher._carryover
        ],
        "ledger": [
            [rid, dispatcher.ledger[rid].value]
            for rid in sorted(dispatcher.ledger)
        ],
        "preloaded_rider_ids": sorted(dispatcher._preloaded_rider_ids),
        "pinned_utilities": [
            [rid, [[vid, value] for vid, value in row.items()]]
            for rid, row in dispatcher._pinned_utilities.items()
        ],
    }


def apply_snapshot_state(dispatcher, snapshot: dict) -> None:
    """Overwrite a freshly constructed dispatcher with snapshot state.

    The dispatcher must have been built from the snapshot's config and
    fleet identities (``Dispatcher.restore`` does both); this re-applies
    the mutable cross-frame state on top.
    """
    from repro.core.dispatch import CarriedRequest, RiderStatus

    dispatcher._frame_index = snapshot["frames_committed"]
    dispatcher._clock = snapshot["clock"]
    totals = snapshot["totals"]
    dispatcher.total_requests = totals["requests"]
    dispatcher.total_served = totals["served"]
    dispatcher.total_expired = totals["expired"]
    dispatcher.total_utility = totals["utility"]
    for payload in snapshot["fleet"]:
        fv = dispatcher.fleet.get(payload["id"])
        if fv is None:
            raise CheckpointError(
                f"snapshot vehicle {payload['id']} missing from the fleet"
            )
        fv.location = payload["location"]
        fv.capacity = payload["capacity"]
        fv.ready_time = payload["ready_time"]
        fv.onboard = tuple(rider_from_dict(r) for r in payload["onboard"])
        fv.committed_stops = tuple(
            stop_from_dict(s) for s in payload["committed_stops"]
        )
        fv.total_cost = payload["total_cost"]
        fv.riders_served = payload["riders_served"]
    dispatcher._carryover = [
        CarriedRequest(
            rider=rider_from_dict(entry["rider"]),
            attempts=entry["attempts"],
            first_frame=entry["first_frame"],
        )
        for entry in snapshot["carryover"]
    ]
    dispatcher.ledger = {
        rid: RiderStatus(value) for rid, value in snapshot["ledger"]
    }
    dispatcher._preloaded_rider_ids = frozenset(
        snapshot["preloaded_rider_ids"]
    )
    dispatcher._pinned_utilities = {
        rid: {vid: value for vid, value in row}
        for rid, row in snapshot["pinned_utilities"]
    }


# ----------------------------------------------------------------------
# the log
# ----------------------------------------------------------------------
class DurabilityLog:
    """Snapshot + WAL management for one dispatcher run directory."""

    def __init__(self, config: Union[DurabilityConfig, PathLike]) -> None:
        if not isinstance(config, DurabilityConfig):
            config = DurabilityConfig(directory=config)
        self.config = config
        self.directory = Path(config.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.directory / SNAPSHOT_FILE
        self.wal_path = self.directory / WAL_FILE
        self.network_path = self.directory / NETWORK_FILE
        #: Fault-injection seam: called with a :data:`CRASH_POINTS` name
        #: at every durability boundary; may raise :class:`SimulatedCrash`.
        self.crash_hook: Optional[Callable[[str], None]] = None
        self._wal_file = None
        self._network_fp: Optional[int] = None
        # (network, oracle, oracle epoch) _network_fp was computed at
        self._fp_source: Optional[Tuple[object, object, int]] = None
        self._suspended = False

    # -- crash seam ----------------------------------------------------
    def _crash_point(self, name: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(name)

    # -- suspension (WAL replay must not re-log itself) ----------------
    def suspend(self) -> None:
        self._suspended = True

    def resume(self) -> None:
        self._suspended = False

    # -- frame commit --------------------------------------------------
    def commit_frame(self, dispatcher, new_riders, report) -> None:
        """Make one committed frame durable: WAL append, then snapshot.

        Called by ``dispatch_frame`` *after* the frame's state has been
        applied (cursor advanced, fleet rolled forward), so the snapshot
        written here is the end-of-frame state and the WAL record is
        enough to re-derive it from the previous snapshot.
        """
        if self._suspended:
            return
        self._crash_point("pre_wal")
        record = {
            "frame_index": report.frame_index,
            # the horizon this frame actually used: streaming micro-batches
            # dispatch variable-length frames, and replay must advance the
            # clock by the same amount (absent in pre-streaming WALs —
            # replay falls back to the configured frame_length)
            "frame_length": report.frame_length,
            "riders": [rider_to_dict(r) for r in new_riders],
            "summary": frame_summary(report),
        }
        self._append_wal(record)
        self._crash_point("post_wal")
        if (report.frame_index + 1) % self.config.checkpoint_every == 0:
            self.write_snapshot(dispatcher)

    def _append_wal(self, record: dict) -> None:
        if self._wal_file is None:
            self._wal_file = open(self.wal_path, "a", encoding="utf-8")
        line = json.dumps({"record": record, "crc": _crc(record)})
        self._wal_file.write(line + "\n")
        self._wal_file.flush()
        if self.config.fsync:
            os.fsync(self._wal_file.fileno())

    # -- snapshot ------------------------------------------------------
    def write_snapshot(self, dispatcher) -> None:
        """Atomically persist the dispatcher's full cross-frame state.

        Also (re)writes ``network.json`` whenever the network content
        changed since the last snapshot (checked once per oracle epoch)
        — disruptions mutate the metric, and restore must see the
        network the state was committed under.
        Ends by truncating the WAL: every record it held is now covered
        by the snapshot.
        """
        network, oracle = dispatcher.network, dispatcher.oracle
        source = self._fp_source
        if (
            source is None
            or source[0] is not network
            or source[1] is not oracle
            or source[2] != oracle.epoch
        ):
            # serialising and CRC-ing a city network costs tens of ms, so
            # it is only redone on a new oracle epoch: every
            # dispatcher-side mutation of the network (perturbation,
            # closure, closure revert) calls oracle.invalidate()
            fingerprint = network_fingerprint(network)
            if fingerprint != self._network_fp:
                self._atomic_write(
                    self.network_path,
                    {
                        "format_version": CHECKPOINT_VERSION,
                        "fingerprint": fingerprint,
                        "network": network_to_dict(network),
                    },
                )
                self._network_fp = fingerprint
            self._fp_source = (network, oracle, oracle.epoch)
        payload = snapshot_dispatcher(dispatcher, self._network_fp)
        self._atomic_write(
            self.snapshot_path, payload, crash_point="post_snapshot_temp"
        )
        self._crash_point("post_snapshot")
        self._truncate_wal()

    def _atomic_write(
        self, path: Path, payload: dict, crash_point: Optional[str] = None
    ) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            # json.dump() always runs the pure-Python encoder; dumps()
            # takes the C one and writes the same bytes
            fh.write(json.dumps(payload))
            fh.write("\n")
            fh.flush()
            if self.config.fsync:
                os.fsync(fh.fileno())
        if crash_point is not None:
            self._crash_point(crash_point)
        os.replace(tmp, path)
        if self.config.fsync:
            # the rename itself must survive a power cut
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def _truncate_wal(self) -> None:
        if self._wal_file is not None:
            self._wal_file.close()
        self._wal_file = open(self.wal_path, "w", encoding="utf-8")
        self._wal_file.flush()
        if self.config.fsync:
            os.fsync(self._wal_file.fileno())

    # -- recovery ------------------------------------------------------
    def load(self) -> Tuple[Optional[dict], List[dict]]:
        """Read ``(snapshot, wal_tail_records)`` back from the directory.

        The snapshot is ``None`` when none was ever written.  WAL
        reading stops at the first torn or CRC-failing line (a crash
        mid-append); everything before it is intact by construction.
        """
        snapshot = None
        if self.snapshot_path.exists():
            with open(self.snapshot_path, "r", encoding="utf-8") as fh:
                snapshot = json.load(fh)
            version = snapshot.get("format_version")
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint format version {version!r} "
                    f"(expected {CHECKPOINT_VERSION})"
                )
        records: List[dict] = []
        if self.wal_path.exists():
            with open(self.wal_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                        record = entry["record"]
                        crc = entry["crc"]
                    except (json.JSONDecodeError, KeyError, TypeError):
                        break  # torn tail: drop it and everything after
                    if _crc(record) != crc:
                        break
                    records.append(record)
        return snapshot, records

    def load_network(self):
        """Rebuild the persisted road network (or ``None`` if absent)."""
        if not self.network_path.exists():
            return None
        with open(self.network_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        version = payload.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported network file format version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return network_from_dict(payload["network"])

    def close(self) -> None:
        if self._wal_file is not None:
            self._wal_file.close()
            self._wal_file = None
