"""Eager reference builders for the per-frame mu_v table (test oracle).

The dispatcher's :class:`~repro.workload.instances.VehicleUtilityTable`
draws each frame's preferences as two arrays and layers the pinned rows
of live riders on top by reference.  This module keeps the eager
construction it replaced — one ``Beta(2, 2)`` call per vehicle, one
noise row per rider, every pair stored in a dict, then every pinned row
copied in — so tests can pin the table to it pair by pair, generator
state included.  Nothing in the runtime imports it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.requests import Rider
from repro.core.vehicles import Vehicle

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.dispatch import Dispatcher

PairMatrix = Dict[Tuple[int, int], float]
PinnedRows = Mapping[int, Mapping[int, float]]


def eager_vehicle_utilities(
    riders: Sequence[Rider],
    vehicles: Sequence[Vehicle],
    rng: np.random.Generator,
    quality_weight: float = 0.35,
) -> PairMatrix:
    """The per-rider dict loop behind ``synthetic_vehicle_utilities``."""
    quality = {v.vehicle_id: float(rng.beta(2.0, 2.0)) for v in vehicles}
    matrix: PairMatrix = {}
    for rider in riders:
        noise = rng.beta(0.45, 0.45, size=len(vehicles))
        for vehicle, u in zip(vehicles, noise):
            matrix[(rider.rider_id, vehicle.vehicle_id)] = float(
                quality_weight * quality[vehicle.vehicle_id]
                + (1.0 - quality_weight) * u
            )
    return matrix


def eager_frame_utilities(
    riders: Sequence[Rider],
    vehicles: Sequence[Vehicle],
    pinned: PinnedRows,
    rng: Optional[np.random.Generator],
) -> PairMatrix:
    """One dispatcher frame's matrix: this frame's draw (``rng=None``:
    none, every other pair falls back to the default) with every pinned
    row copied over it."""
    matrix = (
        eager_vehicle_utilities(riders, vehicles, rng) if rng is not None else {}
    )
    for rid, row in pinned.items():
        for vid, value in row.items():
            matrix[(rid, vid)] = value
    return matrix


def eager_pinned_rows(
    live: Iterable[int],
    pinned: PinnedRows,
    matrix: Mapping[Tuple[int, int], float],
    fleet_ids: Sequence[int],
) -> Dict[int, Dict[int, float]]:
    """The pinned rows after a frame: existing rows kept, a newly live
    rider's row read pair by pair out of the frame's matrix."""
    rows: Dict[int, Dict[int, float]] = {}
    for rid in sorted(live):
        row = pinned.get(rid)
        if row is None:
            row = {
                vid: matrix[(rid, vid)]
                for vid in fleet_ids
                if (rid, vid) in matrix
            }
        rows[rid] = row
    return rows


def eager_shard_utilities(
    matrix: Mapping[Tuple[int, int], float], vehicle_ids: Iterable[int]
) -> PairMatrix:
    """The filtered copy a shard task used to receive."""
    vids = set(vehicle_ids)
    return {pair: value for pair, value in matrix.items() if pair[1] in vids}


def use_eager_rows(dispatcher: "Dispatcher") -> None:
    """Switch one dispatcher to the eager builders above.

    Its frame instances then carry the eager dict, and its rider table's
    end-of-frame step reads each newly live rider's row pair by pair out
    of that dict — the construction the array table replaced, so
    lockstep runs and checkpoints written this way are the reference
    the table is tested against.  A restore builds a new rider table,
    which runs without the hook.
    """
    build_instance = type(dispatcher)._build_instance
    table = dispatcher.riders
    end_frame = type(table).end_frame

    def _build_instance(riders):
        instance = build_instance(dispatcher, riders)
        rng = np.random.default_rng(
            dispatcher.config.seed + dispatcher._frame_index
        )
        instance.vehicle_utilities = eager_frame_utilities(
            riders, instance.vehicles, table.pinned_rows(), rng
        )
        return instance

    def _end_frame(next_clock, max_retries, matrix):
        fleet_ids = list(dispatcher.fleet)
        rows = SimpleNamespace(
            row=lambda rid: eager_pinned_rows((rid,), {}, matrix, fleet_ids)[rid]
        )
        return end_frame(table, next_clock, max_retries, rows)

    dispatcher._build_instance = _build_instance
    table.end_frame = _end_frame
