"""Durable dispatch: checkpoint snapshots + a write-ahead log.

A day-long rolling-horizon run is a long chain of committed promises —
the RiderStatus ledger, every vehicle's residual ``committed_stops``
plan, the carry-over queue with its retry budgets, the pinned ``mu_v``
utility rows.  This module makes that chain survive a process kill.
It persists state, not history: a snapshot holds the dispatcher's
running totals, never a per-frame list, so no part of it grows with
the number of frames (the ledger grows with the riders admitted).

- :class:`DurabilityLog` owns a directory holding three files:

  ``network.json``
      The road network as the dispatcher was built on it, written once
      at construction together with its canonical fingerprint.  Later
      metric changes never rewrite it: the snapshot carries them.
  ``snapshot.json``
      A versioned (:data:`CHECKPOINT_VERSION`) snapshot of the
      cross-frame dispatcher state, written atomically (temp file in
      the same directory + flush + fsync + ``os.replace`` + directory
      fsync) so a crash never leaves a torn snapshot — readers see the
      old one or the new one, nothing in between.  Besides the state it
      holds the metric changes applied since construction (the new cost
      of every scaled arc, and every closed arc: one row per changed
      arc) and the sequence number of the last WAL record it covers.
  ``wal.jsonl``
      An append-only redo log of CRC-guarded records, each stamped with
      a sequence number and the frame cursor it was written at.  A
      *frame* record holds a committed frame's new requests plus a
      result summary; a *disruption* record holds the typed events one
      :meth:`~repro.core.dispatch.Dispatcher.inject` call applied and
      each event's outcome.  A record is appended before any snapshot
      that covers it, so a crash between the two loses nothing: restore
      loads the last snapshot and replays the newer records in log
      order through the (deterministic) dispatcher and disruption
      engine.  A torn final line — the crash hit mid-append — is
      detected by the CRC and dropped.

- ``Dispatcher(durability=...)`` commits every frame and every
  disruption through the log; snapshots follow the
  ``checkpoint_every`` cadence alone.
  :meth:`repro.core.dispatch.Dispatcher.restore` rebuilds the network
  as ``network.json`` plus the snapshot's metric changes, rebuilds the
  dispatcher, re-applies the snapshot state, verifies it with the
  independent :func:`repro.check.validator.validate_fleet_state`
  oracle, replays the WAL tail (:func:`replay_record`) and resumes
  exactly where the dead process stopped.  Dispatch is deterministic
  given the frame inputs (the per-frame RNG is re-derived from
  ``seed + frame_index`` — the frame cursor *is* the RNG state), and
  disruption repair given the state, so replay reproduces the lost
  frames and repairs bit for bit; the replayed frame summaries and
  event outcomes are checked against the logged ones to prove it.

Rider / vehicle / stop payloads reuse the :mod:`repro.workload.serialize`
dict conventions, so the on-disk vocabulary matches saved instances.

Snapshot cadence is ``checkpoint_every`` frames (default 1: snapshot at
every frame commit, WAL tail at most one frame deep plus the
disruptions injected since).  Larger values trade restore-time replay
work for less per-frame I/O on big fleets.

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
from typing import Any, Callable, List, Optional, Tuple, Union

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
#: per-frame report summaries and the seen-id list; version 5 drops the
#: ``degrade`` and ``utility_matrix`` settings from the config; version 6
#: logs disruptions as WAL records, keeps ``network.json`` as the network
#: at construction, and stores the metric changes applied since then and
#: the sequence number of the last WAL record the snapshot covers.
CHECKPOINT_VERSION = 6

#: Named crash-injection points, in the order they occur inside
#: :meth:`DurabilityLog.commit_frame`.
CRASH_POINTS = (
    "pre_wal",            # before the frame's WAL record is appended
    "post_wal",           # WAL appended, snapshot not yet written
    "post_snapshot_temp", # snapshot temp file written, not yet renamed
    "post_snapshot",      # snapshot renamed, WAL not yet truncated
)

#: WAL record kinds: a committed frame, and one ``inject`` call's events.
FRAME_RECORD = "frame"
DISRUPTION_RECORD = "disruption"

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
def snapshot_dispatcher(dispatcher, fingerprint: int, lsn: int) -> dict:
    """Capture every piece of cross-frame dispatcher state as JSON.

    ``fingerprint`` is the :func:`network_fingerprint` of the network in
    ``network.json`` (the dispatcher's network at construction); the
    metric changes applied since then are stored as rows
    ``[u, v, cost]``, ``cost`` ``None`` for a closed arc.  ``lsn`` is
    the sequence number of the last WAL record the snapshot covers.

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
        "metric_changes": [
            [u, v, cost]
            for (u, v), cost in sorted(dispatcher._metric_changes.items())
        ],
        "wal_lsn": lsn,
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
    dispatcher._metric_changes = {
        (u, v): cost for u, v, cost in snapshot["metric_changes"]
    }


def apply_metric_changes(network, rows) -> None:
    """Set each ``[u, v, cost]`` arc of ``rows`` on ``network`` in place
    (``cost`` ``None``: remove the arc).  Disruptions only rescale or
    remove arcs of the network they started from, so every arc exists."""
    for u, v, cost in rows:
        if cost is None:
            network.remove_edge(u, v)
        else:
            network.adjacency[u][v] = cost
            network.reverse_adjacency[v][u] = cost


def replay_record(dispatcher, record: dict) -> None:
    """Redo one WAL record on a restored dispatcher and check it.

    The record must be stamped with the dispatcher's current frame
    cursor.  A frame record is re-dispatched through ``dispatch_frame``;
    a disruption record's events go through
    :class:`~repro.core.disruptions.DisruptionEngine` again.  The
    replayed frame summary or event outcomes must equal the logged ones
    (not checked under ``frame_budget``, whose wall-clock tiering is not
    replay-deterministic).
    """
    from repro.core.disruptions import DisruptionEngine, event_from_dict

    cursor = dispatcher._frame_index
    if record["frame_index"] != cursor:
        raise CheckpointError(
            f"WAL {record['kind']} record {record['lsn']} is stamped frame "
            f"{record['frame_index']}, but the replay is at frame {cursor}"
        )
    checked = dispatcher.config.frame_budget is None
    if record["kind"] == FRAME_RECORD:
        riders = [rider_from_dict(r) for r in record["riders"]]
        replayed = frame_summary(
            dispatcher.dispatch_frame(riders, frame_length=record["frame_length"])
        )
        logged = record["summary"]
    else:
        events = [event_from_dict(e) for e in record["events"]]
        outcomes = DisruptionEngine(dispatcher).apply(events)
        replayed = [o.summary() for o in outcomes]
        logged = record["outcomes"]
    if checked and replayed != logged:
        raise CheckpointError(
            f"WAL replay diverged at the {record['kind']} record for frame "
            f"{cursor}: replayed {replayed} != logged {logged}"
        )


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
        #: fingerprint of the network in network.json
        self._network_fp: Optional[int] = None
        #: sequence number of the last WAL record appended (or replayed)
        self.lsn = 0
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

    # -- start ---------------------------------------------------------
    def start(self, dispatcher) -> None:
        """Write ``network.json`` and the base snapshot of a new run.

        The only place the network is serialised and fingerprinted: the
        base snapshot makes a crash before the first checkpoint cadence
        restorable (snapshot = base state, WAL = everything since).
        """
        network = dispatcher.network
        self._network_fp = network_fingerprint(network)
        self._atomic_write(
            self.network_path,
            {
                "format_version": CHECKPOINT_VERSION,
                "fingerprint": self._network_fp,
                "network": network_to_dict(network),
            },
        )
        self.write_snapshot(dispatcher)

    def resume_from(self, snapshot: dict) -> None:
        """Continue a restored run's log after ``snapshot``."""
        self._network_fp = snapshot["network_fingerprint"]
        self.lsn = snapshot["wal_lsn"]

    # -- commits -------------------------------------------------------
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
            "kind": FRAME_RECORD,
            "frame_index": report.frame_index,
            # the horizon this frame actually used: streaming micro-batches
            # dispatch variable-length frames, and replay must advance the
            # clock by the same amount
            "frame_length": report.frame_length,
            "riders": [rider_to_dict(r) for r in new_riders],
            "summary": frame_summary(report),
        }
        self._append_wal(record)
        self._crash_point("post_wal")
        if (report.frame_index + 1) % self.config.checkpoint_every == 0:
            self.write_snapshot(dispatcher)

    def commit_disruption(self, dispatcher, events, outcomes) -> None:
        """Log one ``inject`` call: its typed events and their outcomes.

        Called after the engine applied the events, at the frame cursor
        they struck before.  No snapshot follows: restore redoes the
        record through the disruption engine.
        """
        if self._suspended:
            return
        from repro.core.disruptions import event_to_dict

        self._append_wal(
            {
                "kind": DISRUPTION_RECORD,
                "frame_index": dispatcher._frame_index,
                "events": [event_to_dict(e) for e in events],
                "outcomes": [o.summary() for o in outcomes],
            }
        )

    def _append_wal(self, record: dict) -> None:
        self.lsn += 1
        record["lsn"] = self.lsn
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

        Ends by truncating the WAL: every record it held is now covered
        by the snapshot.
        """
        payload = snapshot_dispatcher(dispatcher, self._network_fp, self.lsn)
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

    def load_network(self, snapshot: dict):
        """The network as of ``snapshot``: ``network.json`` plus the
        snapshot's metric changes."""
        if not self.network_path.exists():
            raise CheckpointError(
                f"no persisted network in {self.directory}"
            )
        with open(self.network_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        version = payload.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported network file format version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        if payload["fingerprint"] != snapshot["network_fingerprint"]:
            raise CheckpointError(
                "network.json does not match the snapshot fingerprint: "
                "it belongs to another run"
            )
        network = network_from_dict(payload["network"])
        apply_metric_changes(network, snapshot["metric_changes"])
        return network

    def close(self) -> None:
        if self._wal_file is not None:
            self._wal_file.close()
            self._wal_file = None
