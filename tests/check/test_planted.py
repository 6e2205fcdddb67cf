"""One planted bug per fuzz mode: each must fail at least one of seeds 0-24.

A fuzz mode that cannot see a bug planted right in the layer it guards
proves nothing, so every row below plants one and runs the mode's
25-seed CI pass against it.
"""

import dataclasses

import pytest

from repro.check import run_fuzz


def _teleport(monkeypatch):
    """A rollforward that resets ready_time behind the clock."""
    from repro.core.dispatch import Dispatcher

    original = Dispatcher.dispatch_frame

    def teleporting(self, requests, **kwargs):
        report = original(self, requests, **kwargs)
        for vid, vehicle in self.fleet.items():
            if vehicle.ready_time is not None:
                # pretend it's already there
                self.fleet[vid] = dataclasses.replace(
                    vehicle, ready_time=self.clock - 1.0
                )
        return report

    monkeypatch.setattr(Dispatcher, "dispatch_frame", teleporting)


def _stale_block(monkeypatch):
    """An index that keeps its pre-perturbation centre rows, over roster
    views that outlive their frame and the oracle's epoch."""
    from repro.core.candidates import CandidateIndex
    from repro.core.scoring import SolverState

    tables = CandidateIndex._tables
    roster = SolverState._roster
    kept = {}

    def stale_tables(self):
        if self._block is not None:
            return self._block  # never re-derive once built
        return tables(self)

    def epoch_blind_roster(self, vehicles):
        vehicles = list(vehicles)
        key = tuple(v.vehicle_id for v in vehicles)
        if key not in kept:
            kept[key] = roster(self, vehicles)
        return kept[key]  # reused across frames and epochs

    monkeypatch.setattr(CandidateIndex, "_tables", stale_tables)
    monkeypatch.setattr(SolverState, "_roster", epoch_blind_roster)


def _lossy_engine(monkeypatch):
    """An engine that silently loses the first arrival it ever sees."""
    from repro.service import StreamingEngine

    process = StreamingEngine.process
    dropped = []

    def lossy(self, arrivals, until=None, drain=False):
        arrivals = list(arrivals)
        if arrivals and not dropped:
            dropped.append(arrivals.pop(0))
        return process(self, arrivals, until=until, drain=drain)

    monkeypatch.setattr(StreamingEngine, "process", lossy)


def _lossy_wal(monkeypatch):
    """A WAL reader that drops the last durably appended record."""
    from repro.core.durability import DurabilityLog

    load = DurabilityLog.load

    def lossy(self):
        snapshot, records = load(self)
        return snapshot, records[:-1]

    monkeypatch.setattr(DurabilityLog, "load", lossy)


def _late_disruption(monkeypatch):
    """A WAL reader that replays each disruption record one frame late:
    behind the frame record after it, re-stamped with that frame's
    cursor so the stamp check passes."""
    from repro.core.durability import DurabilityLog

    load = DurabilityLog.load

    def late(self):
        snapshot, records = load(self)
        records = list(records)
        for i in range(len(records) - 2, -1, -1):
            record, after = records[i], records[i + 1]
            if record["kind"] == "disruption" and after["kind"] == "frame":
                record["frame_index"] = after["frame_index"] + 1
                records[i], records[i + 1] = after, record
        return snapshot, records

    monkeypatch.setattr(DurabilityLog, "load", late)


def _drop_last_shard(monkeypatch):
    """A shard merge that forgets the last shard's schedules."""
    from repro.core import shards

    merge = shards.merge_shard_results

    def lossy(schedules, results):
        merge(schedules, list(results)[:-1])

    monkeypatch.setattr(shards, "merge_shard_results", lossy)


def _stale_vehicle(monkeypatch):
    """A sync that keeps the Vehicle it first recorded for a replaced
    entry: every later frame plans from that old state."""
    from repro.core.dispatch import Dispatcher

    sync = Dispatcher._sync_fleet

    def forgetful(self):
        first = dict(self._vehicles)
        sync(self)
        for vid in first.keys() & self.fleet.keys():
            self._vehicles[vid] = first[vid]
        return [self._vehicles[vid] for vid in self.fleet]

    monkeypatch.setattr(Dispatcher, "_sync_fleet", forgetful)


def _stale_restore(monkeypatch):
    """A restore whose first frame's solve plans from bare copies of the
    restored vehicles (id, location and capacity only), not from them."""
    from repro.core.dispatch import Dispatcher
    from repro.core.vehicles import Vehicle

    load = Dispatcher._load_snapshot

    def forgetful(dispatcher, snapshot):
        load(dispatcher, snapshot)
        bare = [
            Vehicle(v.vehicle_id, v.location, v.capacity)
            for v in dispatcher.fleet.values()
        ]
        sync = dispatcher._sync_fleet

        def stale_sync():
            sync()
            del dispatcher._sync_fleet  # the class method from now on
            return bare  # resumes planning from them

        dispatcher._sync_fleet = stale_sync

    monkeypatch.setattr(Dispatcher, "_load_snapshot", forgetful)


def _keep_every_pair(monkeypatch):
    """invalidate leaves the pair cache as it was."""
    from repro.roadnet.oracle import DistanceOracle

    invalidate = DistanceOracle.invalidate

    def keep_pairs(self):
        cache = self._pair_cache.copy()  # invalidate() clears it in place
        invalidate(self)
        self._pair_cache = cache  # the previous metric's pairs, untouched

    monkeypatch.setattr(DistanceOracle, "invalidate", keep_pairs)


def _stale_landmarks(monkeypatch):
    """invalidate keeps the previous epoch's landmark rows."""
    from repro.roadnet.oracle import DistanceOracle

    invalidate = DistanceOracle.invalidate

    def keep_rows(self):
        kept = self._landmark_nodes, self._landmarks
        invalidate(self)
        self._landmark_nodes, self._landmarks = kept

    monkeypatch.setattr(DistanceOracle, "invalidate", keep_rows)


def _blind_rebuild(monkeypatch):
    """A rebuild after a metric change that replays the recorded shortcuts
    of every node it did not mark dirty, even one whose witness searches
    settled a dirty node."""
    from repro.roadnet.contraction import ContractionRecord

    monkeypatch.setattr(ContractionRecord, "saw", lambda self, rank, nodes: False)


def _inflate_bound(monkeypatch, tier):
    """Make the oracle's bound at ``tier`` overstate itself (x1.3)."""
    from repro.roadnet.oracle import DistanceOracle

    lower_bounds = DistanceOracle.lower_bounds

    def inflated(self, columns, target):
        bounds = lower_bounds(self, columns, target)
        return bounds * 1.3 if self.tier == tier else bounds

    monkeypatch.setattr(DistanceOracle, "lower_bounds", inflated)


def _inflated_bound(monkeypatch):
    """The reachability gate overstates the landmark bound (x1.3)."""
    _inflate_bound(monkeypatch, tier=1)


def _inflated_table_bound(monkeypatch):
    """The reachability gate overstates the tier-0 table entry (x1.3)."""
    _inflate_bound(monkeypatch, tier=0)


#: ``(mode, planter)`` rows; a mode may guard more than one layer
PLANTED = [
    ("dispatch", _teleport),
    ("prune-tiered", _stale_block),
    ("chaos-tiered", _keep_every_pair),
    ("stream", _lossy_engine),
    ("crash", _lossy_wal),
    ("dispatch-shards", _drop_last_shard),
    ("chaos-rebuild", _stale_vehicle),
    ("crash-rebuild", _stale_restore),
    ("crash-chaos", _late_disruption),
    ("chaos-tiered", _stale_landmarks),
    ("chaos-tiered", _blind_rebuild),
    ("dispatch-tiered", _inflated_bound),
    ("prune", _inflated_table_bound),
]


def _row_id(row):
    """The mode for its first row, the mode and the planter after that."""
    mode, planter = row
    first = next(p for m, p in PLANTED if m == mode)
    return mode if planter is first else f"{mode}-{planter.__name__.strip('_')}"


@pytest.mark.parametrize("mode, planter", PLANTED, ids=list(map(_row_id, PLANTED)))
def test_planted_bug_is_caught(mode, planter, monkeypatch):
    planter(monkeypatch)
    run = run_fuzz(range(25), mode)
    assert not run.ok, f"no {mode} seed noticed the planted bug"
