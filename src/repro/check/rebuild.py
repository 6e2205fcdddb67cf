"""Rebuild-everything reference for the dispatcher's incremental frame state.

The dispatcher re-reads and audits only the vehicles whose carried state
changed since the last frame (see ``Dispatcher._sync_fleet``).
:func:`use_full_rebuild` switches one dispatcher back to treating every
vehicle as changed before every sync: every solver-side ``Vehicle`` is
built afresh, every carried schedule is audited and every vehicle is
re-registered in the committed-rider map.  Lockstep runs against it (the
``rebuild`` config token of :mod:`repro.check.fuzz`) show that skipping
the unchanged vehicles changes nothing.  Nothing in the runtime imports
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.dispatch import Dispatcher


def use_full_rebuild(dispatcher: "Dispatcher") -> None:
    """Make every fleet vehicle count as changed before every sync."""
    sync = type(dispatcher)._sync_fleet

    def _sync_fleet():
        for fv in dispatcher.fleet.values():
            # rewriting a carried field drops the vehicle's caches
            fv.location = fv.location
        return sync(dispatcher)

    dispatcher._sync_fleet = _sync_fleet
