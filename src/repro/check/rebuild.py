"""Rebuild-everything reference for the dispatcher's incremental frame state.

A dispatcher's fleet re-registers and audits only the vehicles written
since its last drain (:meth:`repro.core.fleet.Fleet.drain`).
:func:`use_full_rebuild` gives one dispatcher a fleet that counts every
vehicle as changed at every drain, with a committed-rider map rebuilt
from the fleet alone.  Lockstep runs against it (the ``rebuild`` config
token of :mod:`repro.check.fuzz`) show that skipping the unchanged
vehicles changes nothing.  Nothing in the runtime imports it.
"""

from __future__ import annotations

from typing import List

from repro.core.dispatch import Dispatcher
from repro.core.fleet import CommittedRiders, Fleet


class _FullRebuild(Fleet):
    def drain(self, epoch: int) -> List[int]:
        self.committed = CommittedRiders()
        self._changed.update(self)
        return super().drain(epoch)


def use_full_rebuild(dispatcher: Dispatcher) -> None:
    """Give a freshly built dispatcher the rebuild-everything fleet (the
    same vehicles, no travel cost charged yet)."""
    dispatcher.fleet = _FullRebuild(dispatcher.fleet.values())
