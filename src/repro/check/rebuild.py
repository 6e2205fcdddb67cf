"""Rebuild-everything reference for the dispatcher's incremental frame state.

The dispatcher re-reads and audits only the vehicles whose carried state
changed since the last frame (see ``Dispatcher._sync_fleet``).
:func:`use_full_rebuild` switches one dispatcher back to treating every
vehicle as new before every sync: the vehicles recorded so far and the
committed-rider map are dropped, so every fleet ``Vehicle`` is read
afresh, every carried schedule is audited and the map is rebuilt from
the fleet alone.  Lockstep runs against it (the ``rebuild`` config token
of :mod:`repro.check.fuzz`) show that skipping the unchanged vehicles
changes nothing.  Nothing in the runtime imports it.
"""

from __future__ import annotations

from repro.core.dispatch import CommittedRiders, Dispatcher


def use_full_rebuild(dispatcher: Dispatcher) -> None:
    """Make every fleet vehicle count as new before every sync."""
    sync = type(dispatcher)._sync_fleet

    def _sync_fleet():
        dispatcher._vehicles = {}
        dispatcher._committed = CommittedRiders()
        return sync(dispatcher)

    dispatcher._sync_fleet = _sync_fleet
