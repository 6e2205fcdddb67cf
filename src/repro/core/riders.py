"""The rider table: all rider state a dispatcher keeps across frames.

:class:`RiderTable` (``Dispatcher.riders``) holds the :class:`RiderStatus`
of every admitted rider, one :class:`CarriedRequest` per ``PENDING``
rider in queue order (a rider is ``PENDING`` exactly when it is queued:
one move writes both), the pinned ``mu_v`` row of every live rider, and
the ids preloaded with the construction-time fleet.  Its methods are
the only writers, and each checks its move against :data:`TRANSITIONS`.
The riders each vehicle is committed to are derived from the fleet
instead (:class:`~repro.core.dispatch.CommittedRiders`).
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set

from repro.core.durability import CheckpointError
from repro.core.requests import Rider
from repro.workload.serialize import rider_from_dict, rider_to_dict

_EPS = 1e-9


class RiderStatus(enum.Enum):
    """Lifecycle of one rider across a dispatch run.

    Legal transitions (:data:`TRANSITIONS`)::

        PENDING ──> COMMITTED ──> DELIVERED      (the happy path)
        PENDING ──> EXPIRED / CANCELLED          (queue outcomes)
        COMMITTED ──> PENDING                    (released / stranded)
        COMMITTED ──> CANCELLED                  (post-commit cancel)
        COMMITTED ──> EXPIRED                    (no way left to serve it)

    ``COMMITTED ──> EXPIRED`` is disruption repair: a breakdown strands
    an onboard rider where its destination is unreachable or releases a
    promised pickup whose deadline has passed, or the re-audit after a
    metric change releases a pickup it can no longer meet.  Such a rider
    would be dead on arrival in the queue, so it expires directly.
    ``DELIVERED``, ``EXPIRED`` and ``CANCELLED`` are terminal.  The chaos
    fuzzer asserts conservation (pending + committed + delivered +
    expired + cancelled = issued) at every frame and disruption boundary.
    """

    PENDING = "pending"        # waiting in the carry-over queue
    COMMITTED = "committed"    # promised: in some vehicle's plan
    DELIVERED = "delivered"    # drop-off executed by the rollforward
    EXPIRED = "expired"        # deadline dead or retry budget spent
    CANCELLED = "cancelled"    # explicit cancellation / no-show


_PENDING, _COMMITTED = RiderStatus.PENDING, RiderStatus.COMMITTED

_ENDS = frozenset({RiderStatus.EXPIRED, RiderStatus.CANCELLED})
#: Every legal move: status -> the statuses it may move to.
TRANSITIONS = dict.fromkeys(RiderStatus, frozenset())
TRANSITIONS[_PENDING] = _ENDS | {_COMMITTED}
TRANSITIONS[_COMMITTED] = _ENDS | {_PENDING, RiderStatus.DELIVERED}

_SERVED = frozenset({_COMMITTED, RiderStatus.DELIVERED})
_LIVE = frozenset({_PENDING, _COMMITTED})


class RiderTransitionError(RuntimeError):
    """A status move outside :data:`TRANSITIONS` (``current`` is ``None``
    for a rider never admitted); nothing was written."""

    def __init__(
        self, rider_id: int, current: Optional[RiderStatus], target: RiderStatus
    ) -> None:
        name = "never admitted" if current is None else current.value
        super().__init__(f"rider {rider_id}: illegal move {name} -> {target.value}")
        self.rider_id, self.current, self.target = rider_id, current, target


class CarriedRequest(NamedTuple):
    """A queued request: ``attempts`` counts the frames it was offered
    to the solver, ``first_frame`` is the frame it was queued before."""

    rider: Rider
    attempts: int
    first_frame: int


class RiderTable:
    """Status, carry-over queue and pinned ``mu_v`` rows of every rider.

    ``preloaded`` riders (onboard or planned in the construction-time
    fleet) enter ``COMMITTED`` and are not counted in :attr:`served`,
    the number of submitted riders that are ``COMMITTED`` or
    ``DELIVERED``.
    """

    def __init__(self, preloaded: Iterable[int] = ()) -> None:
        self.preloaded = frozenset(preloaded)
        self._status = dict.fromkeys(sorted(self.preloaded), _COMMITTED)
        #: every admitted rider id -> its status (a read-only view)
        self.ledger = MappingProxyType(self._status)
        self._counts = dict.fromkeys(RiderStatus, 0)
        self._counts[_COMMITTED] = len(self._status)
        self.served = 0
        self._queue: Dict[int, CarriedRequest] = {}
        self._rows: Dict[int, Dict[int, float]] = {}
        # a frame instance holds the rows dict: copy it before a write
        self._lent = False
        # live riders without a row until the next end_frame
        self._unpinned = dict.fromkeys(self._status)

    # -- reads ------------------------------------------------------------
    def queue(self) -> List[CarriedRequest]:
        return list(self._queue.values())

    def pending_requests(self) -> List[Rider]:
        return [entry.rider for entry in self._queue.values()]

    def pinned_rows(self) -> Dict[int, Dict[int, float]]:
        """``rider_id -> {vehicle_id: mu_v}`` of the live riders; never
        edited once handed out (the table copies it first)."""
        self._lent = True
        return self._rows

    def counts(self) -> Dict[str, int]:
        return {status.value: n for status, n in self._counts.items()}

    def with_status(self, status: RiderStatus) -> Set[int]:
        if status is _PENDING:
            return set(self._queue)
        return {rid for rid, s in self._status.items() if s is status}

    # -- moves ------------------------------------------------------------
    def admit(self, riders: Sequence[Rider], frame: int) -> None:
        """Queue a frame's new requests; :class:`ValueError` on an id
        repeated in the batch or admitted before."""
        ids = [r.rider_id for r in riders]
        if len(set(ids)) != len(ids):
            raise ValueError("frame requests contain duplicate rider ids")
        clash = self._status.keys() & ids
        if clash:
            raise ValueError(
                f"rider ids must be unique across the dispatch run; "
                f"already seen: {sorted(clash)[:5]}"
            )
        for rider in riders:
            self._status[rider.rider_id] = _PENDING
            self._queue[rider.rider_id] = CarriedRequest(rider, 0, frame)
            self._unpinned[rider.rider_id] = None
        self._counts[_PENDING] += len(ids)

    def commit(self, rider_ids: Iterable[int]) -> None:
        for rid in rider_ids:
            self._move(rid, _COMMITTED)

    def deliver(self, rider_id: int) -> None:
        self._move(rider_id, RiderStatus.DELIVERED)

    def expire(self, rider_id: int) -> None:
        self._move(rider_id, RiderStatus.EXPIRED)

    def cancel(self, rider_id: int) -> None:
        self._move(rider_id, RiderStatus.CANCELLED)

    def requeue(self, rider: Rider, frame: int) -> None:
        """A released or stranded rider (its request possibly rewritten)
        re-enters the back of the queue with a fresh retry budget."""
        self._move(rider.rider_id, _PENDING)
        self._queue[rider.rider_id] = CarriedRequest(rider, 0, frame)

    def end_frame(self, next_clock: float, max_retries: int, utilities) -> int:
        """Close a frame; returns the number of riders it expired.

        Every queued rider was offered this frame: one more attempt, and
        it expires once ``max_retries`` are spent or its pickup deadline
        is not ahead of ``next_clock``.  Each live rider without a row
        then pins ``utilities.row(rider_id)``, its row of the frame's
        preference table.
        """
        expired = 0
        for rid, entry in list(self._queue.items()):
            attempts = entry.attempts + 1
            if (
                attempts >= max_retries
                or entry.rider.pickup_deadline <= next_clock + _EPS
            ):
                self._move(rid, RiderStatus.EXPIRED)
                expired += 1
            else:  # same key: the record keeps its queue position
                self._queue[rid] = entry._replace(attempts=attempts)
        if self._unpinned:
            rows = self._own_rows()
            for rid in self._unpinned:
                rows[rid] = utilities.row(rid)
            self._unpinned.clear()
        return expired

    def _move(self, rid: int, target: RiderStatus) -> None:
        current = self._status.get(rid)
        if current is None or target not in TRANSITIONS[current]:
            raise RiderTransitionError(rid, current, target)
        self._status[rid] = target
        self._counts[current] -= 1
        self._counts[target] += 1
        if rid not in self.preloaded:
            self.served += (target in _SERVED) - (current in _SERVED)
        if current is _PENDING:
            del self._queue[rid]
        if target not in _LIVE:
            self._unpinned.pop(rid, None)
            if rid in self._rows:
                del self._own_rows()[rid]

    def _own_rows(self) -> Dict[int, Dict[int, float]]:
        if self._lent:
            self._rows, self._lent = dict(self._rows), False
        return self._rows

    # -- checkpoints ------------------------------------------------------
    def snapshot(self) -> dict:
        """The four checkpoint blocks: the queue in queue order (it
        drives batch order), the rest by rider id."""
        return {
            "carryover": [
                {"rider": rider_to_dict(e.rider), "attempts": e.attempts,
                 "first_frame": e.first_frame}
                for e in self._queue.values()
            ],
            "ledger": [[rid, self._status[rid].value] for rid in sorted(self._status)],
            "preloaded_rider_ids": sorted(self.preloaded),
            "pinned_utilities": [
                [rid, [[vid, value] for vid, value in row.items()]]
                for rid, row in sorted(self._rows.items())
            ],
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "RiderTable":
        """The table :meth:`snapshot` was taken of; :class:`CheckpointError`
        when its queue is not exactly the ledger's ``PENDING`` riders."""
        table = cls()
        table.preloaded = frozenset(snapshot["preloaded_rider_ids"])
        rows = {rid: dict(row) for rid, row in snapshot["pinned_utilities"]}
        for rid, value in snapshot["ledger"]:
            status = table._status[rid] = RiderStatus(value)
            table._counts[status] += 1
            table.served += status in _SERVED and rid not in table.preloaded
            if status in _LIVE:
                if rid in rows:
                    table._rows[rid] = rows[rid]
                else:
                    table._unpinned[rid] = None
        for entry in snapshot["carryover"]:
            rider = rider_from_dict(entry["rider"])
            table._queue[rider.rider_id] = CarriedRequest(
                rider, entry["attempts"], entry["first_frame"]
            )
        pending = {rid for rid, s in table._status.items() if s is _PENDING}
        if table._queue.keys() != pending or len(pending) != len(
            snapshot["carryover"]
        ):
            raise CheckpointError(
                "snapshot carry-over queue does not match the ledger's "
                "pending riders"
            )
        return table
