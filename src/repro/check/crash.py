"""The crash drive of the fuzz runner (``--mode crash``, ``crash-rebuild``).

The candidate run B is durable (:mod:`repro.core.durability`): it
checkpoints at a seeded cadence and is killed at a seeded frame, either
by a :class:`SimulatedCrash` raised from one of the named
:data:`~repro.core.durability.CRASH_POINTS` inside ``commit_frame``
(before the WAL append, between WAL append and snapshot, mid-atomic-
rename, after the snapshot) or by a plain process exit between frames.
The drive then calls :meth:`Dispatcher.restore` on the checkpoint
directory and resumes; the runner keeps comparing it with the
uninterrupted reference run A at every frame boundary.  On
``crash-rebuild`` A also re-reads and audits every vehicle every frame
(:mod:`repro.check.rebuild`), while the restored B resumes on its
incremental frame state.

On top of that the drive asserts:

- **no durably committed frame is lost**: the restored frame cursor is
  the kill frame for a ``pre_wal`` kill (that frame never reached the
  WAL) and the frame after it for every other kill kind;
- **no history is needed to prove equivalence**: the runner compares
  every frame B returns with A's, restore checks every WAL-replayed
  frame against its logged summary, and at the end B's running totals,
  frame cursor and clock must equal A's;
- the seeded kill actually fired.
"""

from __future__ import annotations

import tempfile

from repro.core.dispatch import Dispatcher
from repro.core.durability import CRASH_POINTS, DurabilityConfig, SimulatedCrash
from repro.roadnet.oracle import DistanceOracle

_BETWEEN_FRAMES = "between_frames"

#: All kill kinds a seed can draw.
KILL_KINDS = CRASH_POINTS + (_BETWEEN_FRAMES,)

_CADENCES = (1, 2, 3)

#: What a resumed run must end with, equal to the uninterrupted run.
_TOTALS = ("_frame_index", "clock", "total_requests", "total_served",
           "total_expired", "total_utility")


class CrashDrive:
    """B checkpoints, dies at the seeded point, restores and resumes."""

    def __init__(self, trial) -> None:
        self.trial = trial
        frames = len(trial.scenario.frames)
        rng = trial.rng
        self.every = _CADENCES[int(rng.integers(len(_CADENCES)))]
        self.kill = KILL_KINDS[int(rng.integers(len(KILL_KINDS)))]
        # kill where a prefix of frames is committed and a suffix remains
        self.kill_frame = int(rng.integers(1, frames - 1)) if frames > 2 else 0
        if self.kill in ("post_snapshot_temp", "post_snapshot"):
            # these points only exist inside a snapshot write, which the
            # cadence may skip: snap to the nearest snapshotting frame
            snapshots = [f for f in range(frames) if (f + 1) % self.every == 0]
            self.kill_frame = min(snapshots, key=lambda f: abs(f - self.kill_frame))
        trial.report.draws.update(
            kill=self.kill, kill_frame=self.kill_frame, checkpoint_every=self.every
        )
        self.restored = False
        self._dir = tempfile.TemporaryDirectory(prefix="repro-crash-")
        self.dispatcher = trial.open(trial.config, durability=DurabilityConfig(
            self._dir.name, checkpoint_every=self.every, fsync=False
        ))

        def crash_hook(point: str) -> None:
            # the cursor advances before commit_frame runs, so frame k
            # commits with _frame_index == k + 1
            if point == self.kill and self.dispatcher._frame_index == self.kill_frame + 1:
                raise SimulatedCrash(point)

        if self.kill in CRASH_POINTS:
            self.dispatcher._durability.crash_hook = crash_hook

    def step(self, frame: int, riders):
        if self.restored:
            self.trial.count("frames_resumed")
            return self.dispatcher.dispatch_frame(list(riders))
        try:
            report = self.dispatcher.dispatch_frame(list(riders))
        except SimulatedCrash:
            report = None
        else:
            if self.kill != _BETWEEN_FRAMES or frame != self.kill_frame:
                return report
        return self._restore(frame, riders, report)

    def _restore(self, frame: int, riders, report):
        # a real crash loses the process; here only the WAL handle is
        # released (the checkpoint directory is untouched)
        self.dispatcher.close()
        self.restored = True
        network = self.dispatcher.network
        oracle = (
            DistanceOracle(network, tier=1)
            if self.dispatcher.oracle.tier == 1 else None
        )
        self.dispatcher = Dispatcher.restore(
            self._dir.name, network, oracle=oracle, plan=self.trial.scenario.plan
        )
        cursor = self.dispatcher._frame_index
        self.trial.count("frames_restored", cursor)
        expected = frame if self.kill == "pre_wal" else frame + 1
        if cursor != expected:
            self.trial.fail("crash", f"frame {frame}: {self.kill} kill restored "
                                     f"cursor {cursor}, expected {expected}")
            return None
        if cursor == frame:
            return self.step(frame, riders)
        # a commit-time kill leaves frame k only in the checkpoint: the
        # runner compares the dispatcher state alone
        return report if self.kill == _BETWEEN_FRAMES else None

    def finish(self, reference) -> None:
        if not self.restored:
            self.trial.fail("crash", f"seeded {self.kill} kill at frame "
                                     f"{self.kill_frame} never fired")
            return
        got = {name: getattr(self.dispatcher, name) for name in _TOTALS}
        want = {name: getattr(reference, name) for name in _TOTALS}
        if got != want:
            self.trial.fail("crash", f"running totals diverge after restore: "
                                     f"{got} != reference {want}")

    def close(self) -> None:
        self.dispatcher.close()
        self._dir.cleanup()
