"""URR instance construction (Section 7.1.2 + Table 3).

Builds :class:`~repro.core.instance.URRInstance` objects from trip records
exactly as the paper's experiment configuration prescribes:

- **riders** come from trips picked up in the current time frame — the
  trip's pickup node is the rider's source, its drop-off node the
  destination;
- **pickup deadlines** are uniform in ``t̄ + [rt_min^-, rt_max^-]``;
- **drop-off deadlines** add ``flexible_factor * shortest_cost(s, e)`` to
  the pickup deadline (the paper's "experienced driver" assumption);
- **vehicles** are seeded at the drop-off locations of trips that ended in
  the window ``[t̄ - delta, t̄]`` (a vehicle becomes available where its last
  fare ended);
- **social mapping** resolves each rider to the user of the nearest
  check-in record (Gowalla-style);
- **vehicle-related utilities** combine a per-vehicle quality score with
  per-pair taste noise, giving the mu_v matrix the paper takes as input
  (a read-only :class:`VehicleUtilityTable` over one R×V array draw).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.instance import URRInstance
from repro.core.requests import Rider
from repro.core.vehicles import Vehicle
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.social.generators import GeoSocialNetwork
from repro.workload.taxi import TaxiTripSimulator, TripRecord


@dataclass
class InstanceConfig:
    """Table 3 experiment parameters (defaults = the paper's bold values)."""

    num_riders: int = 5000
    num_vehicles: int = 200
    pickup_deadline_range: Tuple[float, float] = (10.0, 30.0)  # minutes
    capacity: int = 3
    alpha: float = 0.33
    beta: float = 0.33
    flexible_factor: float = 1.5
    frame_length: float = 30.0  # delta_j, minutes
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.pickup_deadline_range
        if not 0 < lo <= hi:
            raise ValueError(
                f"pickup deadline range must satisfy 0 < lo <= hi, got ({lo}, {hi})"
            )
        if self.flexible_factor < 1.0:
            raise ValueError("flexible_factor must be >= 1 (riders accept >= shortest cost)")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")


PairKey = Tuple[int, int]


class VehicleUtilityTable(Mapping):
    """Read-only ``(rider_id, vehicle_id) -> mu_v`` mapping over one array.

    The base is a dense ``R x V`` float array whose rows are
    ``rider_ids`` and whose columns are ``vehicle_ids``.  ``overlay``
    rows (``{rider_id: {vehicle_id: mu_v}}``) sit on top of it *by
    reference* and win over the base; they may name riders outside the
    base and vehicles outside its columns.  ``scope`` (set by
    :meth:`restrict`) hides every pair whose vehicle lies outside it.

    Nothing is materialised per pair: a lookup is two dict probes and
    one array read.  Iteration yields the base pairs row-major, then the
    overlay pairs the base lacks — the insertion order of the eager dict
    this table replaces.  Callers must not mutate ``overlay`` rows while
    the table is in use (the dispatcher replaces its pinned rows, it
    never edits them).
    """

    def __init__(
        self,
        rider_ids: Sequence[int],
        vehicle_ids: Sequence[int],
        values: np.ndarray,
        overlay: Optional[Mapping] = None,
        scope: Optional[AbstractSet[int]] = None,
    ) -> None:
        if values.shape != (len(rider_ids), len(vehicle_ids)):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"{len(rider_ids)} riders x {len(vehicle_ids)} vehicles"
            )
        # id -> array index; dicts keep insertion order, so iterating
        # them walks the rows and columns in array order
        self._rows = {rid: i for i, rid in enumerate(rider_ids)}
        self._cols = {vid: j for j, vid in enumerate(vehicle_ids)}
        self._values = values
        self._overlay: Mapping = {} if overlay is None else overlay
        self._scope = scope

    @classmethod
    def from_mapping(cls, pairs: Mapping) -> "VehicleUtilityTable":
        """Wrap any ``(rider_id, vehicle_id) -> mu_v`` mapping (as overlay)."""
        rows: Dict[int, Dict[int, float]] = {}
        for (rid, vid), value in pairs.items():
            rows.setdefault(rid, {})[vid] = value
        return cls((), (), np.empty((0, 0)), overlay=rows)

    def layered(self, overlay: Mapping) -> "VehicleUtilityTable":
        """The same base under ``overlay`` rows (held by reference)."""
        return VehicleUtilityTable(
            self._rows, self._cols, self._values, overlay, self._scope
        )

    def restrict(self, vehicle_ids: Iterable[int]) -> "VehicleUtilityTable":
        """A view of the pairs whose vehicle is in ``vehicle_ids``.

        Equal to filtering the whole mapping by vehicle, at the cost of
        slicing this table's own columns; the overlay stays shared and
        is filtered on lookup.
        """
        scope = frozenset(vehicle_ids)
        if self._scope is not None:
            scope &= self._scope
        cols = {vid: j for vid, j in self._cols.items() if vid in scope}
        return VehicleUtilityTable(
            self._rows,
            cols,
            self._values[:, list(cols.values())],
            self._overlay,
            scope,
        )

    def row(self, rider_id: int) -> Dict[int, float]:
        """The base row of ``rider_id`` as ``{vehicle_id: mu_v}`` (column
        order), ignoring the overlay; empty when the rider has no row."""
        i = self._rows.get(rider_id)
        if i is None:
            return {}
        return dict(zip(self._cols, self._values[i].tolist()))

    # -- Mapping protocol ------------------------------------------------
    def get(self, key, default=None):
        rid, vid = key
        if self._scope is not None and vid not in self._scope:
            return default
        row = self._overlay.get(rid)
        if row is not None:
            value = row.get(vid)
            if value is not None:
                return value
        i = self._rows.get(rid)
        j = self._cols.get(vid)
        if i is None or j is None:
            return default
        return float(self._values[i, j])

    def __getitem__(self, key: PairKey) -> float:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key: object) -> bool:
        try:
            return self.get(key) is not None
        except (TypeError, ValueError):  # not a (rider, vehicle) pair
            return False

    def __iter__(self) -> Iterator[PairKey]:
        for rid in self._rows:
            for vid in self._cols:
                yield (rid, vid)
        yield from self._overlay_only()

    def __len__(self) -> int:
        base = len(self._rows) * len(self._cols)
        return base + sum(1 for _ in self._overlay_only())

    def _overlay_only(self) -> Iterator[PairKey]:
        """Overlay pairs in scope that the base does not hold."""
        scope = self._scope
        for rid, row in self._overlay.items():
            in_base = rid in self._rows
            for vid in row:
                if scope is not None and vid not in scope:
                    continue
                if in_base and vid in self._cols:
                    continue
                yield (rid, vid)


def synthetic_vehicle_utilities(
    riders: Sequence[Rider],
    vehicles: Sequence[Vehicle],
    rng: np.random.Generator,
    quality_weight: float = 0.35,
) -> VehicleUtilityTable:
    """Synthesise the mu_v matrix (Section 2.4's "categorically stated
    preferences").

    Each vehicle gets an intrinsic quality in [0, 1] (Beta(2, 2)); each
    rider-vehicle pair mixes that quality with *categorical* taste noise
    drawn from a bimodal Beta(0.45, 0.45) — stated preferences are
    threshold-like (a rider either wants a female driver / large trunk /
    non-smoking car or does not), so per-pair utilities cluster near 0 and
    1 rather than spreading uniformly:
    ``mu_v = quality_weight * q_j + (1 - quality_weight) * Beta(0.45, 0.45)``.

    Draw-order contract: ``rng`` yields the ``V`` qualities first, then
    the ``R x V`` noise row-major (rider by rider, in ``riders`` order,
    each row in ``vehicles`` order).  Rider and vehicle ids must be
    unique.
    """
    quality = rng.beta(2.0, 2.0, size=len(vehicles))
    noise = rng.beta(0.45, 0.45, size=(len(riders), len(vehicles)))
    return VehicleUtilityTable(
        [r.rider_id for r in riders],
        [v.vehicle_id for v in vehicles],
        quality_weight * quality + (1.0 - quality_weight) * noise,
    )


def build_instance_from_trips(
    network: RoadNetwork,
    rider_trips: Sequence[TripRecord],
    vehicle_trips: Sequence[TripRecord],
    config: InstanceConfig,
    start_time: float = 0.0,
    geo_social: Optional[GeoSocialNetwork] = None,
    oracle: Optional[DistanceOracle] = None,
) -> URRInstance:
    """Assemble an instance from pre-generated trip records.

    Parameters
    ----------
    rider_trips:
        Trips whose pickups become ride requests (first ``num_riders`` kept).
    vehicle_trips:
        Trips whose drop-off locations seed the vehicles (first
        ``num_vehicles`` kept).
    config:
        Table 3 parameters.
    start_time:
        The global timestamp ``t̄``.
    geo_social:
        Optional geo-social network for the nearest-check-in mapping.
    """
    rng = np.random.default_rng(config.seed)
    oracle = oracle or DistanceOracle(network)
    lo, hi = config.pickup_deadline_range

    riders: List[Rider] = []
    used_social: set = set()
    for trip in rider_trips:
        if len(riders) >= config.num_riders:
            break
        src, dst = trip.pickup_node, trip.dropoff_node
        if src == dst:
            continue
        shortest = oracle.cost(src, dst)
        if not np.isfinite(shortest) or shortest <= 0:
            continue
        pickup_deadline = start_time + float(rng.uniform(lo, hi))
        dropoff_deadline = pickup_deadline + config.flexible_factor * shortest
        social_id = None
        if geo_social is not None:
            # without replacement: each rider is a distinct person
            social_id = geo_social.nearest_user(network, src, exclude=used_social)
            if social_id is not None:
                used_social.add(social_id)
        riders.append(
            Rider(
                rider_id=len(riders),
                source=src,
                destination=dst,
                pickup_deadline=pickup_deadline,
                dropoff_deadline=dropoff_deadline,
                social_id=social_id,
            )
        )

    vehicles: List[Vehicle] = []
    for trip in vehicle_trips:
        if len(vehicles) >= config.num_vehicles:
            break
        vehicles.append(
            Vehicle(
                vehicle_id=len(vehicles),
                location=trip.dropoff_node,
                capacity=config.capacity,
            )
        )

    matrix = synthetic_vehicle_utilities(riders, vehicles, rng)
    return URRInstance(
        network=network,
        riders=riders,
        vehicles=vehicles,
        alpha=config.alpha,
        beta=config.beta,
        vehicle_utilities=matrix,
        social=geo_social.social if geo_social is not None else None,
        start_time=start_time,
        seed=config.seed,
        oracle=oracle,
    )


def build_instance(
    network: RoadNetwork,
    config: InstanceConfig,
    geo_social: Optional[GeoSocialNetwork] = None,
    oracle: Optional[DistanceOracle] = None,
    simulator: Optional[TaxiTripSimulator] = None,
) -> URRInstance:
    """End-to-end instance builder: simulate trips, then assemble.

    Rider trips are generated for the current frame; vehicle trips for the
    preceding frame (their drop-offs are where vehicles idle at ``t̄``),
    matching the paper's vehicle-initialisation procedure.
    """
    oracle = oracle or DistanceOracle(network)
    simulator = simulator or TaxiTripSimulator(network, oracle=oracle, seed=config.seed)
    # oversample so that degenerate trips (src == dst, unreachable) can be
    # dropped while still reaching the requested counts
    rider_trips = simulator.generate_trips(
        int(config.num_riders * 1.2) + 10, frame_start=0.0, frame_length=config.frame_length
    )
    vehicle_trips = simulator.generate_trips(
        int(config.num_vehicles * 1.2) + 10,
        frame_start=-config.frame_length,
        frame_length=config.frame_length,
    )
    return build_instance_from_trips(
        network=network,
        rider_trips=rider_trips,
        vehicle_trips=vehicle_trips,
        config=config,
        start_time=0.0,
        geo_social=geo_social,
        oracle=oracle,
    )
