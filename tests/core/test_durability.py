"""Checkpoint/WAL round trips through ``Dispatcher.restore``.

Covers the snapshot round trip in every dispatch mode (plain,
candidate-index, tiered-oracle), WAL tail replay across checkpoint
cadences, torn-tail tolerance, version and network-fingerprint guards,
the atomic-rename crash point, and the dispatcher context manager.
The post-restore frames must be byte-identical (as canonical JSON) to
an uninterrupted run's, and the restored running totals equal to the
sums of the frames before the cut — durability must never perturb
dispatch.  Snapshots hold state, not history: no per-frame list.
"""

import dataclasses
import json

import pytest

import repro.core.durability as durability
from repro.check.utilities import use_eager_rows
from repro.core.dispatch import Dispatcher
from repro.core.disruptions import (
    RiderCancellation,
    RoadClosure,
    TravelTimePerturbation,
    VehicleBreakdown,
)
from repro.core.schedule import Stop, StopKind
from repro.core.durability import (
    CHECKPOINT_VERSION,
    CheckpointError,
    DurabilityConfig,
    SimulatedCrash,
    frame_summary,
    network_fingerprint,
)
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle
from repro.check.validator import validate_fleet_state
from tests.conftest import make_rider

NODES = 36  # 6x6 grid
FRAMES = 4


@pytest.fixture(scope="module")
def city():
    return grid_city(6, 6, seed=4, removal_fraction=0.0, arterial_every=None)


def make_fleet():
    return [
        Vehicle(vehicle_id=i, location=(7 * i) % NODES, capacity=2)
        for i in range(5)
    ]


def frame_requests(frame, id_base):
    import random

    rng = random.Random(100 + frame)
    start = frame * 20.0
    riders = []
    for i in range(6):
        src = rng.randrange(NODES)
        dst = rng.randrange(NODES)
        if dst == src:
            dst = (dst + 1) % NODES
        riders.append(
            make_rider(id_base + i, source=src, destination=dst,
                       pickup_deadline=start + rng.uniform(5.0, 25.0),
                       dropoff_deadline=start + rng.uniform(40.0, 80.0))
        )
    return riders


MODES = {
    "plain": {},
    "candidate": {"candidate_mode": "spatiotemporal"},
    "tiered": {},  # tier-1 oracle wired in make_dispatcher/restore
}


def make_dispatcher(city, mode, **kwargs):
    if mode == "tiered":
        kwargs.setdefault("oracle", DistanceOracle(city, tier=1))
    return Dispatcher(
        city, make_fleet(), method="eg", frame_length=20.0, seed=9,
        **MODES[mode], **kwargs,
    )


def canonical(report) -> str:
    return json.dumps(frame_summary(report), sort_keys=True)


def baseline_summaries(city, mode):
    with make_dispatcher(city, mode) as dispatcher:
        return [
            canonical(dispatcher.dispatch_frame(frame_requests(f, f * 10)))
            for f in range(FRAMES)
        ]


def totals(dispatcher):
    return (
        dispatcher.total_requests,
        dispatcher.total_served,
        dispatcher.total_expired,
        dispatcher.total_utility,
    )


def summed(summaries):
    """The running totals after the frames of these canonical summaries."""
    frames = [json.loads(s) for s in summaries]
    return (
        sum(f["num_requests"] for f in frames),
        sum(f["num_served"] for f in frames),
        sum(f["num_expired"] for f in frames),
        sum(f["utility"] for f in frames),
    )


def restore_kwargs(city, mode):
    return {"oracle": DistanceOracle(city, tier=1)} if mode == "tiered" else {}


class TestRoundTrip:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_restore_resumes_byte_identical(self, city, tmp_path, mode):
        baseline = baseline_summaries(city, mode)

        with make_dispatcher(city, mode, durability=str(tmp_path)) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))

        restored = Dispatcher.restore(
            str(tmp_path), **restore_kwargs(city, mode)
        )
        with restored:
            assert restored._frame_index == 2
            # the pre-crash frames survive as running totals, bit for bit
            assert totals(restored) == summed(baseline[:2])
            resumed = [
                canonical(restored.dispatch_frame(frame_requests(f, f * 10)))
                for f in range(2, FRAMES)
            ]
        assert resumed == baseline[2:]

    def test_restored_state_passes_the_validator(self, city, tmp_path):
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
        # restore() already audits; this asserts it explicitly
        with Dispatcher.restore(str(tmp_path)) as restored:
            validate_fleet_state(
                restored.fleet.values(), restored.clock,
                oracle=restored.oracle,
            ).raise_if_invalid()

    def test_restore_preserves_ledger_and_carryover(self, city, tmp_path):
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
            ledger = dict(d.ledger)
            carryover = [e.rider.rider_id for e in d._carryover]
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert dict(restored.ledger) == ledger
            assert [e.rider.rider_id for e in restored._carryover] == carryover


class TestWalReplay:
    def test_tail_replayed_over_stale_snapshot(self, city, tmp_path):
        baseline = baseline_summaries(city, "plain")
        config = DurabilityConfig(str(tmp_path), checkpoint_every=3)
        with make_dispatcher(city, "plain", durability=config) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
        # cadence 3: both frames live only in the WAL, behind the base
        # snapshot written at construction
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["frames_committed"] == 0
        wal_lines = (tmp_path / "wal.jsonl").read_text().splitlines()
        assert len(wal_lines) == 2

        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 2
            assert totals(restored) == summed(baseline[:2])
            # replaying writes a fresh snapshot and truncates the WAL
            snapshot = json.loads((tmp_path / "snapshot.json").read_text())
            assert snapshot["frames_committed"] == 2
            assert (tmp_path / "wal.jsonl").read_text() == ""

    def test_torn_final_wal_line_is_dropped(self, city, tmp_path):
        config = DurabilityConfig(str(tmp_path), checkpoint_every=3)
        with make_dispatcher(city, "plain", durability=config) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
        with open(tmp_path / "wal.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"record": {"frame_index": 2, "riders"')  # torn write
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 2  # only the whole records

    def test_corrupt_crc_stops_the_replay(self, city, tmp_path):
        config = DurabilityConfig(str(tmp_path), checkpoint_every=3)
        with make_dispatcher(city, "plain", durability=config) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
        lines = (tmp_path / "wal.jsonl").read_text().splitlines()
        payload = json.loads(lines[1])
        payload["crc"] ^= 1
        lines[1] = json.dumps(payload)
        (tmp_path / "wal.jsonl").write_text("\n".join(lines) + "\n")
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 1  # record 2 no longer trusted


class TestGuards:
    def test_empty_directory_has_nothing_to_restore(self, tmp_path):
        with pytest.raises(CheckpointError, match="no snapshot"):
            Dispatcher.restore(str(tmp_path))

    def test_version_mismatch_is_rejected(self, city, tmp_path):
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            d.dispatch_frame(frame_requests(0, 0))
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        snapshot["format_version"] = CHECKPOINT_VERSION + 1
        (tmp_path / "snapshot.json").write_text(json.dumps(snapshot))
        with pytest.raises(CheckpointError, match="version"):
            Dispatcher.restore(str(tmp_path))

    def test_version_1_checkpoint_is_rejected_with_a_typed_error(
        self, city, tmp_path
    ):
        # version 1 stored the process-pool shard options in the config
        # and shard fault counters in every frame summary; version 2
        # stored the watchdog's fallback chain; versions 1 to 3 kept a
        # summary of every frame and the seen rider ids in place of the
        # running totals; version 4 stored the degrade and utility_matrix
        # settings; version 5 rewrote network.json on every metric change
        # and had no metric-change block or WAL sequence numbers.
        # Restoring any of them must fail as a CheckpointError, not a
        # TypeError or KeyError from the layout
        legacy_config = {
            1: {"shard_workers": 1, "shard_timeout": 30.0, "shard_retries": 2},
            2: {"fallbacks": ["eg", "cf"]},
            3: {},
            4: {"degrade": False, "utility_matrix": "synthetic"},
            5: {},
        }
        assert CHECKPOINT_VERSION == 6
        for version, config in legacy_config.items():
            directory = tmp_path / f"v{version}"
            durable = str(directory)
            with make_dispatcher(city, "plain", durability=durable) as d:
                summary = frame_summary(d.dispatch_frame(frame_requests(0, 0)))
            if version == 1:
                summary.update(shard_retries=0, shard_fallbacks=0)
            for name in ("snapshot.json", "network.json"):
                payload = json.loads((directory / name).read_text())
                payload["format_version"] = version
                if name == "snapshot.json":
                    payload["config"].update(config)
                    del payload["metric_changes"], payload["wal_lsn"]
                if name == "snapshot.json" and version < 4:
                    del payload["totals"], payload["preloaded_rider_ids"]
                    payload.update(
                        oracle_epoch=0,
                        seen_rider_ids=[rid for rid, _ in payload["ledger"]],
                        pending_disruption_seconds=0.0,
                        reports=[summary],
                    )
                (directory / name).write_text(json.dumps(payload))
            with pytest.raises(CheckpointError, match=f"version {version}"):
                Dispatcher.restore(str(directory))

    def test_snapshot_config_is_the_dispatch_config(self, city, tmp_path):
        with make_dispatcher(
            city, "candidate", durability=str(tmp_path)
        ) as d:
            d.dispatch_frame(frame_requests(0, 0))
            config = d.config
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["config"] == dataclasses.asdict(config)
        # overrides go through the same validation as construction
        with pytest.raises(ValueError, match="max_retries"):
            Dispatcher.restore(str(tmp_path), max_retries=0)
        with pytest.raises(TypeError, match="fallbacks"):
            Dispatcher.restore(str(tmp_path), fallbacks=["cf"])
        with Dispatcher.restore(
            str(tmp_path), validate_frames=True
        ) as restored:
            assert restored.config == dataclasses.replace(
                config, validate_frames=True
            )

    def test_network_fingerprint_mismatch_is_rejected(self, city, tmp_path):
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            d.dispatch_frame(frame_requests(0, 0))
        other = grid_city(6, 6, seed=5, removal_fraction=0.0,
                          arterial_every=None)
        with pytest.raises(CheckpointError, match="fingerprint"):
            Dispatcher.restore(str(tmp_path), network=other)


class TestNetworkFingerprintCache:
    """The network is serialised and fingerprinted once, at construction."""

    @pytest.fixture
    def own_city(self):
        # function-scoped: perturbations mutate the network in place
        return grid_city(6, 6, seed=4, removal_fraction=0.0,
                         arterial_every=None)

    @pytest.fixture
    def fingerprint_calls(self, monkeypatch):
        calls = []

        def counting(network):
            calls.append(network)
            return network_fingerprint(network)

        monkeypatch.setattr(durability, "network_fingerprint", counting)
        return calls

    def test_same_epoch_snapshot_reuses_the_fingerprint(
        self, own_city, tmp_path, fingerprint_calls
    ):
        with make_dispatcher(own_city, "plain",
                             durability=str(tmp_path)) as d:
            assert len(fingerprint_calls) == 1  # the base snapshot
            for f in range(3):
                d.dispatch_frame(frame_requests(f, f * 10))
            d._durability.write_snapshot(d)
        assert len(fingerprint_calls) == 1
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["network_fingerprint"] == network_fingerprint(own_city)

    def test_perturbation_is_logged_against_the_unchanged_network_file(
        self, own_city, tmp_path, fingerprint_calls
    ):
        before = network_fingerprint(own_city)
        with make_dispatcher(own_city, "plain",
                             durability=str(tmp_path)) as d:
            d.dispatch_frame(frame_requests(0, 0))
            (outcome,) = d.inject(
                [TravelTimePerturbation(factors=((0, 1, 3.0),))]
            )
            assert outcome.applied
            d.dispatch_frame(frame_requests(1, 10))
        after = network_fingerprint(own_city)
        assert after != before
        assert len(fingerprint_calls) == 1  # construction only
        # network.json stays the network the run was built on ...
        stored = json.loads((tmp_path / "network.json").read_text())
        assert stored["fingerprint"] == before
        # ... and the snapshot carries the two scaled arcs
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["network_fingerprint"] == before
        assert snapshot["metric_changes"] == [
            [0, 1, own_city.adjacency[0][1]],
            [1, 0, own_city.adjacency[1][0]],
        ]
        # restore rebuilds the perturbed metric from the two
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert network_fingerprint(restored.network) == after

    def test_restore_against_the_wrong_network_still_fails(
        self, own_city, tmp_path
    ):
        pristine = grid_city(6, 6, seed=4, removal_fraction=0.0,
                             arterial_every=None)
        with make_dispatcher(own_city, "plain",
                             durability=str(tmp_path)) as d:
            d.dispatch_frame(frame_requests(0, 0))
            d.inject([TravelTimePerturbation(factors=((0, 1, 3.0),))])
            d.dispatch_frame(frame_requests(1, 10))
            d._durability.write_snapshot(d)  # a cached-fingerprint write
        # the pre-perturbation network is now the wrong metric
        with pytest.raises(CheckpointError, match="fingerprint"):
            Dispatcher.restore(str(tmp_path), network=pristine)


class TestSnapshotBytes:
    def test_files_are_the_json_dumps_of_their_payload(
        self, tmp_path, monkeypatch
    ):
        """Snapshot and ``network.json`` hold exactly
        ``json.dumps(payload) + "\\n"``: one fixed byte format, written
        by the C encoder."""
        own_city = grid_city(6, 6, seed=4, removal_fraction=0.0,
                             arterial_every=None)
        written = []
        atomic_write = durability.DurabilityLog._atomic_write

        def recording(self, path, payload, crash_point=None):
            atomic_write(self, path, payload, crash_point)
            written.append((path.name, json.dumps(payload) + "\n",
                            path.read_text(encoding="utf-8")))

        monkeypatch.setattr(durability.DurabilityLog, "_atomic_write", recording)
        with make_dispatcher(own_city, "plain",
                             durability=str(tmp_path)) as d:
            d.dispatch_frame(frame_requests(0, 0))
            d.inject([TravelTimePerturbation(factors=((0, 1, 3.0),))])
            d.dispatch_frame(frame_requests(1, 10))
            d._durability.write_snapshot(d)
        names = {name for name, _, _ in written}
        assert names == {durability.SNAPSHOT_FILE, durability.NETWORK_FILE}
        for name, expected, actual in written:
            assert actual == expected, name


class TestEagerRowCheckpointCompat:
    """Checkpoints written by the eager mu_v builder restore unchanged."""

    @staticmethod
    def short_frames(city, **kwargs):
        # 3-minute frames: riders stay onboard, committed or carried
        # across the checkpoint, so it holds pinned rows
        return Dispatcher(city, make_fleet(), method="eg", frame_length=3.0,
                          seed=9, **kwargs)

    @staticmethod
    def payload(directory):
        return json.loads((directory / "snapshot.json").read_text())

    def test_eager_checkpoint_restores_and_finishes_identically(
        self, city, tmp_path
    ):
        eager_dir, table_dir = tmp_path / "eager", tmp_path / "table"
        with self.short_frames(city, durability=str(eager_dir)) as d:
            use_eager_rows(d)
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
            assert d._pinned_utilities  # rows live across the cut
        with self.short_frames(city, durability=str(table_dir)) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
        # the snapshot payload is the same either way
        assert self.payload(eager_dir) == self.payload(table_dir)
        # older version-2 writers also stored an unread "perf" block
        legacy = self.payload(eager_dir)
        assert "perf" not in legacy
        legacy["perf"] = {"insertion": {"plans": 1}}
        (eager_dir / "snapshot.json").write_text(json.dumps(legacy))

        with self.short_frames(city) as reference:
            use_eager_rows(reference)
            for f in range(FRAMES):
                reference.dispatch_frame(frame_requests(f, f * 10))
        with Dispatcher.restore(str(eager_dir)) as restored:
            for f in range(2, FRAMES):
                restored.dispatch_frame(frame_requests(f, f * 10))
            assert restored.ledger == reference.ledger
            assert restored._pinned_utilities == reference._pinned_utilities
            assert totals(restored) == totals(reference)
            for vid, fv in reference.fleet.items():
                got = restored.fleet[vid]
                assert (got.location, got.ready_time) == (
                    fv.location, fv.ready_time
                )
                assert got.onboard == fv.onboard
                assert got.committed_stops == fv.committed_stops


def list_lengths(payload, path=""):
    """``{path: len}`` for every list anywhere in a JSON payload."""
    found = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            found.update(list_lengths(value, f"{path}/{key}"))
    elif isinstance(payload, list):
        found[path] = len(payload)
        for i, value in enumerate(payload):
            found.update(list_lengths(value, f"{path}/{i}"))
    return found


class TestStateNotHistory:
    def test_snapshot_holds_no_per_frame_list(self, city, tmp_path):
        snapshots = {}
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            for frame in range(50):
                d.dispatch_frame([])
                if frame + 1 in (5, 50):
                    snapshots[frame + 1] = json.loads(
                        (tmp_path / "snapshot.json").read_text()
                    )
        early, late = snapshots[5], snapshots[50]
        assert early["frames_committed"] == 5
        assert late["frames_committed"] == 50
        assert early.keys() == late.keys()
        assert list_lengths(early) == list_lengths(late)

    def test_preloaded_riders_are_not_served_requests_after_restore(
        self, tmp_path
    ):
        # a rider handed in onboard with the construction-time fleet was
        # never submitted, so it counts in neither part of service_rate
        city = grid_city(8, 8, seed=2, removal_fraction=0.0,
                         arterial_every=None)
        onboard = make_rider(100, source=0, destination=9,
                             pickup_deadline=5.0, dropoff_deadline=200.0)
        drop = Stop(location=9, kind=StopKind.DROPOFF, rider=onboard)
        fleet = [
            Vehicle(vehicle_id=0, location=0, capacity=2,
                    onboard=(onboard,), committed_stops=(drop,)),
            Vehicle(vehicle_id=1, location=63, capacity=2),
        ]
        riders = [
            make_rider(i, source=10 + i, destination=50 + i,
                       pickup_deadline=60.0, dropoff_deadline=300.0)
            for i in range(4)
        ]
        with Dispatcher(city, fleet, method="eg", frame_length=30.0, seed=1,
                        durability=str(tmp_path)) as d:
            d.dispatch_frame(riders)
            live = d.service_rate
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored.service_rate == live == 1.0


class TestCrashPoints:
    def test_crash_mid_atomic_rename_keeps_the_old_snapshot(
        self, city, tmp_path
    ):
        baseline = baseline_summaries(city, "plain")
        d = make_dispatcher(city, "plain", durability=str(tmp_path))
        try:
            def crash_hook(point):
                if point == "post_snapshot_temp" and d._frame_index == 2:
                    raise SimulatedCrash(point)

            d._durability.crash_hook = crash_hook
            d.dispatch_frame(frame_requests(0, 0))
            with pytest.raises(SimulatedCrash):
                d.dispatch_frame(frame_requests(1, 10))
        finally:
            d.close()
        # the kill left a temp file behind; the real snapshot is stale
        # but whole, and frame 1 is already in the WAL
        assert (tmp_path / "snapshot.json.tmp").exists()
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 2
            assert totals(restored) == summed(baseline[:2])

    def test_crash_after_a_metric_change_resumes(self, tmp_path):
        """A kill mid-rename after a perturbation leaves a restorable
        directory: network.json and the snapshot never disagree."""
        perturbation = [TravelTimePerturbation(factors=((0, 1, 3.0),))]
        with make_dispatcher(own_grid(), "plain") as reference:
            expected = []
            for f in range(FRAMES):
                expected.append(canonical(
                    reference.dispatch_frame(frame_requests(f, f * 10))
                ))
                if f == 0:
                    reference.inject(perturbation)
        d = make_dispatcher(own_grid(), "plain", durability=str(tmp_path))
        armed = []
        try:
            def crash_hook(point):
                if armed and point == "post_snapshot_temp":
                    raise SimulatedCrash(point)

            d._durability.crash_hook = crash_hook
            d.dispatch_frame(frame_requests(0, 0))
            armed.append(True)
            with pytest.raises(SimulatedCrash):
                d.inject(perturbation)
                d.dispatch_frame(frame_requests(1, 10))
        finally:
            d.close()
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 2
            resumed = [
                canonical(restored.dispatch_frame(frame_requests(f, f * 10)))
                for f in range(2, FRAMES)
            ]
            assert totals(restored) == totals(reference)
            assert network_fingerprint(restored.network) == (
                network_fingerprint(reference.network)
            )
        assert resumed == expected[2:]

    def test_crash_before_wal_append_loses_only_that_frame(
        self, city, tmp_path
    ):
        baseline = baseline_summaries(city, "plain")
        d = make_dispatcher(city, "plain", durability=str(tmp_path))
        try:
            def crash_hook(point):
                if point == "pre_wal" and d._frame_index == 2:
                    raise SimulatedCrash(point)

            d._durability.crash_hook = crash_hook
            d.dispatch_frame(frame_requests(0, 0))
            with pytest.raises(SimulatedCrash):
                d.dispatch_frame(frame_requests(1, 10))
        finally:
            d.close()
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 1  # frame 1 must be re-offered
            resumed = [
                canonical(restored.dispatch_frame(frame_requests(f, f * 10)))
                for f in range(1, FRAMES)
            ]
        assert resumed == baseline[1:]


def own_grid():
    """A fresh 6x6 city: disruptions mutate the network in place."""
    return grid_city(6, 6, seed=4, removal_fraction=0.0, arterial_every=None)


#: the disruptions injected after each frame of a chaos stream
CHAOS = {
    0: [TravelTimePerturbation(factors=((0, 1, 3.0), (14, 15, 0.5)))],
    1: [RiderCancellation(rider_id=12), RoadClosure(edges=((20, 21),))],
    2: [VehicleBreakdown(vehicle_id=3)],
    4: [TravelTimePerturbation(factors=((7, 8, 2.0),))],
}


def chaos_stream(dispatcher, frames, start=0):
    """Canonical summaries of frames ``start..frames-1`` with CHAOS
    injected after each listed frame."""
    summaries = []
    for f in range(start, frames):
        summaries.append(
            canonical(dispatcher.dispatch_frame(frame_requests(f, f * 10)))
        )
        if f in CHAOS:
            dispatcher.inject(CHAOS[f])
    return summaries


class TestDisruptionRecords:
    """``inject`` appends a WAL record; restore redoes it in log order."""

    def test_snapshots_follow_the_cadence_alone(self, tmp_path, monkeypatch):
        frames, every = 6, 2
        snapshots, network_writes, fingerprints = [], [], []
        write_snapshot = durability.DurabilityLog.write_snapshot
        atomic_write = durability.DurabilityLog._atomic_write

        def counting_snapshot(self, dispatcher):
            snapshots.append(dispatcher._frame_index)
            write_snapshot(self, dispatcher)

        def counting_write(self, path, payload, crash_point=None):
            if path.name == durability.NETWORK_FILE:
                network_writes.append(path)
            atomic_write(self, path, payload, crash_point)

        def counting_fingerprint(network):
            fingerprints.append(network)
            return network_fingerprint(network)

        monkeypatch.setattr(
            durability.DurabilityLog, "write_snapshot", counting_snapshot
        )
        monkeypatch.setattr(
            durability.DurabilityLog, "_atomic_write", counting_write
        )
        monkeypatch.setattr(
            durability, "network_fingerprint", counting_fingerprint
        )
        config = DurabilityConfig(str(tmp_path), checkpoint_every=every,
                                  fsync=False)
        with make_dispatcher(own_grid(), "plain", durability=config) as d:
            chaos_stream(d, frames)
        assert snapshots == [0, 2, 4, 6]  # 1 + frames // every
        assert len(network_writes) == 1
        assert len(fingerprints) == 1

    @pytest.mark.parametrize("every", [1, 3, 10])
    def test_restore_redoes_disruptions_between_frames(self, tmp_path, every):
        with make_dispatcher(own_grid(), "plain") as reference:
            expected = chaos_stream(reference, FRAMES + 2)
        config = DurabilityConfig(str(tmp_path), checkpoint_every=every,
                                  fsync=False)
        with make_dispatcher(own_grid(), "plain", durability=config) as d:
            # the WAL tail ends with the disruptions after frame 2
            assert chaos_stream(d, 3) == expected[:3]
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 3
            assert 3 not in restored.fleet  # the breakdown was redone
            resumed = chaos_stream(restored, FRAMES + 2, start=3)
            assert resumed == expected[3:]
            assert restored.ledger == reference.ledger
            assert totals(restored) == totals(reference)
            assert network_fingerprint(restored.network) == (
                network_fingerprint(reference.network)
            )

    def test_disruption_record_for_another_frame_is_refused(self, tmp_path):
        config = DurabilityConfig(str(tmp_path), checkpoint_every=10,
                                  fsync=False)
        with make_dispatcher(own_grid(), "plain", durability=config) as d:
            chaos_stream(d, 2)
        lines = (tmp_path / "wal.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in lines]
        kinds = [e["record"]["kind"] for e in entries]
        assert kinds == ["frame", "disruption", "frame", "disruption"]
        record = entries[1]["record"]
        record["frame_index"] += 1  # replayed against the wrong frame
        entries[1]["crc"] = durability._crc(record)
        (tmp_path / "wal.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in entries)
        )
        with pytest.raises(CheckpointError, match="stamped frame 2"):
            Dispatcher.restore(str(tmp_path))

    def test_live_network_after_a_perturbation_is_refused(self, tmp_path):
        """A network handed to restore is the network as of the snapshot:
        one that already holds the WAL's perturbation would get it twice."""
        live = own_grid()
        config = DurabilityConfig(str(tmp_path), checkpoint_every=10,
                                  fsync=False)
        with make_dispatcher(live, "plain", durability=config) as d:
            chaos_stream(d, 1)  # the perturbation is only in the WAL
        with pytest.raises(CheckpointError, match="fingerprint"):
            Dispatcher.restore(str(tmp_path), network=live)
        # the network as of the snapshot is accepted and brought forward
        as_of_snapshot = own_grid()
        with Dispatcher.restore(str(tmp_path), network=as_of_snapshot) as r:
            assert r.network is as_of_snapshot
            assert network_fingerprint(as_of_snapshot) == (
                network_fingerprint(live)
            )


class TestLifecycle:
    def test_dispatcher_context_manager_closes(self, city, tmp_path):
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            d.dispatch_frame(frame_requests(0, 0))
        assert d._durability._wal_file is None  # closed on __exit__

    def test_durability_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DurabilityConfig(str(tmp_path), checkpoint_every=0)
