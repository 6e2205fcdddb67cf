"""Unit tests for repro.core.riders (the rider table)."""

import pytest

from repro.core.dispatch import Dispatcher
from repro.core.durability import CheckpointError
from repro.core.riders import (
    TRANSITIONS,
    RiderStatus,
    RiderTable,
    RiderTransitionError,
)
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from tests.conftest import make_rider

P, C, D, E, X = (
    RiderStatus.PENDING, RiderStatus.COMMITTED, RiderStatus.DELIVERED,
    RiderStatus.EXPIRED, RiderStatus.CANCELLED,
)


class _Rows:
    """A frame's preference table: ``row(rid)`` is a fresh dict."""

    def row(self, rider_id):
        return {0: rider_id / 10.0, 1: 0.5}


def _riders(*ids, deadline=100.0):
    return [
        make_rider(rid, source=0, destination=1, pickup_deadline=deadline,
                   dropoff_deadline=deadline + 50.0)
        for rid in ids
    ]


def _table_with(status, rid=1):
    """A table holding rider ``rid`` in ``status``, reached legally."""
    table = RiderTable()
    table.admit(_riders(rid), frame=0)
    if status is P:
        return table
    if status is E:
        table.expire(rid)
        return table
    if status is X:
        table.cancel(rid)
        return table
    table.commit([rid])
    if status is D:
        table.deliver(rid)
    return table


class TestTransitions:
    def test_legal_set(self):
        assert TRANSITIONS[P] == {C, E, X}
        assert TRANSITIONS[C] == {D, P, X, E}
        assert not TRANSITIONS[D] and not TRANSITIONS[E] and not TRANSITIONS[X]

    @pytest.mark.parametrize("current", list(RiderStatus))
    @pytest.mark.parametrize("target", list(RiderStatus))
    def test_every_move_is_checked(self, current, target):
        table = _table_with(current)
        move = {
            C: lambda: table.commit([1]),
            D: lambda: table.deliver(1),
            E: lambda: table.expire(1),
            X: lambda: table.cancel(1),
            P: lambda: table.requeue(_riders(1)[0], frame=1),
        }[target]
        if target in TRANSITIONS[current]:
            move()
            assert table.ledger[1] is target
        else:
            with pytest.raises(RiderTransitionError) as info:
                move()
            assert (info.value.rider_id, info.value.current,
                    info.value.target) == (1, current, target)
            assert table.ledger[1] is current  # nothing written

    def test_requeue_of_a_delivered_rider_raises(self):
        table = _table_with(D)
        with pytest.raises(RiderTransitionError, match="delivered -> pending"):
            table.requeue(_riders(1)[0], frame=3)
        assert table.pending_requests() == []

    def test_commit_of_an_expired_rider_raises(self):
        table = _table_with(E)
        with pytest.raises(RiderTransitionError, match="expired -> committed"):
            table.commit([1])
        assert table.counts()["committed"] == 0

    def test_a_rider_never_admitted_cannot_move(self):
        with pytest.raises(RiderTransitionError, match="never admitted"):
            RiderTable().deliver(7)

    def test_the_dispatcher_raises_on_an_illegal_move(self):
        city = grid_city(4, 4, seed=1, removal_fraction=0.0, arterial_every=None)
        d = Dispatcher(city, [Vehicle(0, 0, 2)], frame_length=5.0)
        (rider,) = _riders(1, deadline=1.0)
        d.dispatch_frame([make_rider(1, source=0, destination=15,
                                     pickup_deadline=0.5,
                                     dropoff_deadline=0.6)])
        assert d.ledger[1] is RiderStatus.EXPIRED
        with pytest.raises(RiderTransitionError):
            d.riders.requeue(rider, frame=1)


class TestAdmission:
    def test_ids_are_unique_across_the_run(self):
        table = RiderTable(preloaded=[5])
        table.admit(_riders(1, 2), frame=0)
        with pytest.raises(ValueError, match="already seen: \\[2, 5\\]"):
            table.admit(_riders(2, 5, 9), frame=1)
        with pytest.raises(ValueError, match="duplicate"):
            table.admit(_riders(9, 9), frame=1)
        assert set(table.ledger) == {1, 2, 5}

    def test_ledger_is_a_read_only_view(self):
        table = RiderTable()
        table.admit(_riders(1), frame=0)
        with pytest.raises(TypeError):
            table.ledger[1] = D
        table.commit([1])
        assert table.ledger[1] is C  # the view follows the table


class TestQueue:
    def test_queue_order_and_end_of_frame(self):
        table = RiderTable()
        table.admit(_riders(3, 1, 2), frame=0)
        table.commit([1])
        assert table.end_frame(10.0, 3, _Rows()) == 0
        assert [(e.rider.rider_id, e.attempts, e.first_frame)
                for e in table.queue()] == [(3, 1, 0), (2, 1, 0)]
        table.admit(_riders(4, deadline=12.0), frame=1)
        table.requeue(_riders(1)[0], frame=1)
        assert [r.rider_id for r in table.pending_requests()] == [3, 2, 4, 1]
        # 4's deadline is dead at the next clock, 3 and 2 spend retries
        assert table.end_frame(20.0, 2, _Rows()) == 3
        assert [(e.rider.rider_id, e.attempts) for e in table.queue()] == [(1, 1)]
        assert table.with_status(P) == {1}
        assert table.counts() == {"pending": 1, "committed": 0,
                                  "delivered": 0, "expired": 3,
                                  "cancelled": 0}

    def test_served_counts_submitted_riders_only(self):
        table = RiderTable(preloaded=[9])
        table.admit(_riders(1, 2), frame=0)
        table.commit([1, 2])
        table.deliver(9)
        table.cancel(2)
        assert table.served == 1


class TestPinnedRows:
    def test_rows_exist_exactly_for_live_riders(self):
        table = RiderTable(preloaded=[9])
        table.admit(_riders(1, 2), frame=0)
        table.commit([1])
        table.end_frame(10.0, 3, _Rows())
        assert set(table.pinned_rows()) == {1, 2, 9}
        table.deliver(1)
        table.cancel(2)
        assert set(table.pinned_rows()) == {9}

    def test_rows_handed_out_are_never_edited(self):
        table = RiderTable()
        table.admit(_riders(1, 2), frame=0)
        table.end_frame(10.0, 3, _Rows())
        lent = table.pinned_rows()
        table.cancel(1)
        assert set(lent) == {1, 2}  # a frame instance still reads it
        assert set(table.pinned_rows()) == {2}

    def test_a_pinned_row_survives_a_requeue(self):
        table = RiderTable()
        table.admit(_riders(1), frame=0)
        table.commit([1])
        table.end_frame(10.0, 3, _Rows())
        row = table.pinned_rows()[1]
        table.requeue(_riders(1)[0], frame=1)
        table.end_frame(20.0, 3, _Rows())
        assert table.pinned_rows()[1] is row


class TestCheckpoint:
    def _table(self):
        table = RiderTable(preloaded=[9])
        table.admit(_riders(4, 1, 2, 3), frame=0)
        table.commit([1, 2])
        table.deliver(2)
        table.end_frame(10.0, 3, _Rows())
        table.admit(_riders(5), frame=1)
        return table

    def test_round_trip(self):
        table = self._table()
        snapshot = table.snapshot()
        assert list(snapshot) == [
            "carryover", "ledger", "preloaded_rider_ids", "pinned_utilities"
        ]
        assert [rid for rid, _row in snapshot["pinned_utilities"]] == [1, 3, 4, 9]
        restored = RiderTable.restore(snapshot)
        assert restored.snapshot() == snapshot
        assert restored.ledger == table.ledger
        assert restored.counts() == table.counts()
        assert restored.served == table.served
        assert restored.queue() == table.queue()
        # rider 5 was admitted after the last end-of-frame: its row
        # comes from the next frame, as in the original
        for t in (table, restored):
            t.end_frame(20.0, 3, _Rows())
        assert restored.pinned_rows() == table.pinned_rows()

    def test_queue_that_disagrees_with_the_ledger_is_refused(self):
        snapshot = self._table().snapshot()
        snapshot["carryover"].pop()
        with pytest.raises(CheckpointError, match="pending"):
            RiderTable.restore(snapshot)
