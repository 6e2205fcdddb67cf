"""One planted bug per fuzz mode: each must fail at least one of seeds 0-24.

A fuzz mode that cannot see a bug planted right in the layer it guards
proves nothing, so every row below plants one and runs the mode's
25-seed CI pass against it.
"""

import pytest

from repro.check import run_fuzz


def _teleport(monkeypatch):
    """A rollforward that resets ready_time behind the clock."""
    from repro.core.dispatch import Dispatcher

    original = Dispatcher.dispatch_frame

    def teleporting(self, requests, **kwargs):
        report = original(self, requests, **kwargs)
        for fv in self.fleet.values():
            if fv.ready_time is not None:
                fv.ready_time = self.clock - 1.0  # pretend it's already there
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


def _drop_last_shard(monkeypatch):
    """A shard merge that forgets the last shard's schedules."""
    from repro.core import shards

    merge = shards.merge_shard_results

    def lossy(schedules, results):
        merge(schedules, list(results)[:-1])

    monkeypatch.setattr(shards, "merge_shard_results", lossy)


def _stale_vehicle(monkeypatch):
    """A rollforward that forgets to drop the vehicle's cached Vehicle."""
    from repro.core.dispatch import Dispatcher

    roll = Dispatcher._roll_vehicle

    def forgetful(self, fv, seq, next_clock):
        cached = fv._vehicle
        roll(self, fv, seq, next_clock)
        fv._vehicle = cached  # the next frame plans from the old state

    monkeypatch.setattr(Dispatcher, "_roll_vehicle", forgetful)


def _stale_restore(monkeypatch):
    """A restore that keeps the construction-time placeholder vehicles."""
    from repro.core import dispatch

    apply = dispatch.apply_snapshot_state

    def forgetful(dispatcher, snapshot):
        placeholders = {
            vid: fv.as_vehicle() for vid, fv in dispatcher.fleet.items()
        }
        apply(dispatcher, snapshot)
        for vid, fv in dispatcher.fleet.items():
            fv._vehicle = placeholders[vid]  # resumes planning from them

    monkeypatch.setattr(dispatch, "apply_snapshot_state", forgetful)


def _keep_every_pair(monkeypatch):
    """invalidate keeps every cached pair across a lengthening."""
    from repro.roadnet.oracle import DistanceOracle

    keep = DistanceOracle._keep_unaffected_pairs

    def keep_all(self, hierarchy):
        cache = self._pair_cache.copy()
        if not keep(self, hierarchy):
            return False
        self._pair_cache = cache  # undoes the affected-pair test
        return True

    monkeypatch.setattr(DistanceOracle, "_keep_unaffected_pairs", keep_all)


def _stale_landmarks(monkeypatch):
    """invalidate keeps the previous epoch's landmark rows."""
    from repro.roadnet.oracle import DistanceOracle

    invalidate = DistanceOracle.invalidate

    def keep_rows(self, recompute_pinned=True):
        kept = self._landmark_nodes, self._landmarks
        invalidate(self, recompute_pinned=False)
        self._landmark_nodes, self._landmarks = kept
        if recompute_pinned and self._pinned_sources:
            self.warm(sorted(self._pinned_sources))  # on the stale rows

    monkeypatch.setattr(DistanceOracle, "invalidate", keep_rows)


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
    ("chaos-tiered", _stale_landmarks),
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
