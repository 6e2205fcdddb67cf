"""URR problem instances (Definition 4).

An :class:`URRInstance` bundles everything a solver needs: the road network
(through a :class:`~repro.roadnet.oracle.DistanceOracle`), the riders, the
vehicles, the vehicle-related utility values, the social similarities, and
the balancing parameters.  Instances are immutable from the solvers' point
of view — every solver builds fresh :class:`TransferSequence` objects.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.requests import Rider
from repro.core.schedule import TransferSequence
from repro.core.utility import UtilityModel
from repro.core.vehicles import Vehicle
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.social.graph import SocialNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.candidates import CandidateIndex


@dataclass
class URRInstance:
    """One utility-aware ridesharing problem instance.

    Attributes
    ----------
    network:
        The road network.
    riders:
        The ride requests ``R``.
    vehicles:
        The available vehicles ``C``.
    alpha, beta:
        Balancing parameters of Eq. 1.
    vehicle_utilities:
        Read-only ``(rider_id, vehicle_id) -> mu_v`` mapping: a plain
        dict, or the array-backed
        :class:`~repro.workload.instances.VehicleUtilityTable` that
        generated workloads and the dispatcher build.  Missing pairs
        default to :attr:`default_vehicle_utility`.
    social:
        Social network for Eq. 3 similarities (rider ``social_id`` indexes
        into it).  ``None`` means all similarities are zero.
    similarity_overrides:
        Optional explicit ``{(rider_id, rider_id): s}`` pairs taking
        precedence over the social network (order-insensitive).  Used for
        worked examples where the paper states similarities directly.
    start_time:
        Global timestamp ``t̄`` at which all vehicles sit at their current
        locations.
    seed:
        RNG seed consumed by randomized solver steps (BA's rider order).
    candidates:
        Optional :class:`~repro.core.candidates.CandidateIndex` over this
        instance's network and oracle.  When set, solvers retrieve each
        rider's candidate vehicles through its sound area-centre prune
        in front of the oracle's bound (the result is provably
        identical, see :mod:`repro.core.candidates`).
    """

    network: RoadNetwork
    riders: List[Rider]
    vehicles: List[Vehicle]
    alpha: float = 1.0 / 3.0
    beta: float = 1.0 / 3.0
    vehicle_utilities: Mapping[Tuple[int, int], float] = field(default_factory=dict)
    social: Optional[SocialNetwork] = None
    similarity_overrides: Dict[Tuple[int, int], float] = field(default_factory=dict)
    start_time: float = 0.0
    seed: int = 0
    default_vehicle_utility: float = 0.5
    oracle: Optional[DistanceOracle] = None
    candidates: Optional["CandidateIndex"] = None

    def __post_init__(self) -> None:
        if self.oracle is None:
            self.oracle = DistanceOracle(self.network)
        # minimal-overhead cost callable (closure over the APSP table when
        # the network is small enough); this is the solvers' hot path
        self.cost = self.oracle.fast_cost_fn()
        rider_ids = [r.rider_id for r in self.riders]
        if len(set(rider_ids)) != len(rider_ids):
            raise ValueError("duplicate rider ids in instance")
        vehicle_ids = [v.vehicle_id for v in self.vehicles]
        if len(set(vehicle_ids)) != len(vehicle_ids):
            raise ValueError("duplicate vehicle ids in instance")
        rider_id_set = set(rider_ids)
        # vehicles committed to riders (a carried ready_time alone
        # commits to nobody)
        carrying = [v for v in self.vehicles if v.onboard or v.committed_stops]
        for v in carrying:
            clash = v.committed_rider_ids() & rider_id_set
            if clash:
                raise ValueError(
                    f"vehicle {v.vehicle_id} carries committed riders "
                    f"{sorted(clash)} whose ids collide with this instance's "
                    f"requests; rider ids must be unique across frames"
                )
        self._riders_by_id = {r.rider_id: r for r in self.riders}
        self._vehicles_by_id = {v.vehicle_id: v for v in self.vehicles}
        self._social_by_rider: Dict[int, Optional[int]] = {
            r.rider_id: r.social_id for r in self.riders
        }
        # carried-over riders keep their social profile: their committed
        # rides still contribute co-rider similarity to this frame's batch
        for v in carrying:
            for r in v.onboard:
                self._social_by_rider.setdefault(r.rider_id, r.social_id)
            for s in v.committed_stops:
                self._social_by_rider.setdefault(
                    s.rider.rider_id, s.rider.social_id
                )

    # ------------------------------------------------------------------
    @property
    def num_riders(self) -> int:
        return len(self.riders)

    @property
    def num_vehicles(self) -> int:
        return len(self.vehicles)

    def rider(self, rider_id: int) -> Rider:
        return self._riders_by_id[rider_id]

    def vehicle(self, vehicle_id: int) -> Vehicle:
        return self._vehicles_by_id[vehicle_id]

    # ``cost`` is replaced by a fast closure in ``__post_init__``; this
    # method body only serves as documentation and a fallback.
    def cost(self, u: int, v: int) -> float:
        """Shortest travel cost between two nodes."""
        assert self.oracle is not None
        return self.oracle.cost(u, v)

    def rng(self) -> np.random.Generator:
        """A fresh deterministic RNG for solver-internal randomness."""
        return np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    def vehicle_utility(self, rider: Rider, vehicle: Vehicle) -> float:
        """``mu_v(r_i, c_j)`` lookup with default for missing pairs."""
        return self.vehicle_utilities.get(
            (rider.rider_id, vehicle.vehicle_id), self.default_vehicle_utility
        )

    def similarity(self, rider_id_a: int, rider_id_b: int) -> float:
        """``s(r_i, r_i')`` between two riders via their social profiles."""
        if self.similarity_overrides:
            key = (min(rider_id_a, rider_id_b), max(rider_id_a, rider_id_b))
            override = self.similarity_overrides.get(key)
            if override is not None:
                return override
        if self.social is None:
            return 0.0
        sa = self._social_by_rider.get(rider_id_a)
        sb = self._social_by_rider.get(rider_id_b)
        if sa is None or sb is None:
            return 0.0
        return self.social.similarity(sa, sb)

    def utility_model(self) -> UtilityModel:
        """The Eq. 1 utility model configured for this instance."""
        return UtilityModel(
            alpha=self.alpha,
            beta=self.beta,
            vehicle_utility=self.vehicle_utility,
            similarity=self.similarity,
            cost=self.cost,
        )

    def vehicle_start_time(self, vehicle: Vehicle) -> float:
        """The absolute time a vehicle becomes plannable at its location.

        ``max(start_time, ready_time)``: a vehicle finishing an in-flight
        leg after the frame opens is busy until then; a vehicle idle since
        before the frame opened becomes plannable when the frame does.
        """
        if vehicle.ready_time is None:
            return self.start_time
        return max(self.start_time, vehicle.ready_time)

    def initial_sequence(self, vehicle: Vehicle) -> TransferSequence:
        """The vehicle's schedule *before* this instance assigns anything.

        Empty for a fresh vehicle; for a vehicle carried over from an
        earlier dispatch frame it is seeded with the committed residual
        stops and the riders already onboard, all of which every solver
        must honour (committed riders cannot be removed, capacity counts
        the onboard riders from event 0).
        """
        return TransferSequence(
            origin=vehicle.location,
            start_time=self.vehicle_start_time(vehicle),
            capacity=vehicle.capacity,
            cost=self.cost,
            stops=vehicle.committed_stops,
            initial_onboard=vehicle.onboard,
            committed=vehicle.committed_rider_ids(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"URRInstance(riders={self.num_riders}, vehicles={self.num_vehicles}, "
            f"alpha={self.alpha:g}, beta={self.beta:g})"
        )


class LazySchedules(MutableMapping):
    """``vehicle_id -> TransferSequence`` map materialized on first access.

    Behaves exactly like the eager ``{vid: instance.initial_sequence(v)}``
    dict the solvers used to start from, except that a vehicle's initial
    sequence is only *built* when somebody asks for it.  On large fleets
    this is the difference between a frame costing O(fleet) and O(touched
    vehicles): a 10k-vehicle dispatch frame with 30 requests typically
    reads a few hundred schedules and writes a handful.

    Two pieces of bookkeeping make the laziness observable to callers
    that want to skip the untouched bulk:

    - :attr:`touched` — vehicle ids ever *written* (``schedules[vid] =
      seq``, i.e. solver commits and replacements).  Every other entry is
      provably the vehicle's pristine initial sequence, so deltas against
      the carried-in baseline are zero.
    - :meth:`peek` — read without materializing (``None`` when the entry
      has never been built).
    - :meth:`iter_active` — iterate only the entries that can contribute
      anything (materialized ones, plus pristine vehicles with carried
      state, which are built on the fly).  Pristine vehicles without
      carried state have empty schedules: zero utility, zero cost, no
      riders, no violations — skipping them is exact.

    Iteration, ``len`` and membership cover the *full* fleet (plus any
    foreign ids written in), so ``dict(lazy)`` still materializes an
    eager copy when needed.
    """

    __slots__ = ("_instance", "_data", "_ids", "touched")

    def __init__(self, instance: URRInstance) -> None:
        self._instance = instance
        # key universe in fleet order; values are the Vehicle objects
        # (or None for foreign ids written in after construction)
        self._ids: Dict[int, Optional[Vehicle]] = {
            v.vehicle_id: v for v in instance.vehicles
        }
        self._data: Dict[int, TransferSequence] = {}
        self.touched: set = set()

    # ------------------------------------------------------------------
    def __getitem__(self, vehicle_id: int) -> TransferSequence:
        seq = self._data.get(vehicle_id)
        if seq is None:
            vehicle = self._ids[vehicle_id]  # KeyError for unknown ids
            assert vehicle is not None  # foreign ids always have data
            seq = self._instance.initial_sequence(vehicle)
            self._data[vehicle_id] = seq
        return seq

    def __setitem__(self, vehicle_id: int, sequence: TransferSequence) -> None:
        if vehicle_id not in self._ids:
            self._ids[vehicle_id] = None
        self._data[vehicle_id] = sequence
        self.touched.add(vehicle_id)

    def __delitem__(self, vehicle_id: int) -> None:
        del self._ids[vehicle_id]
        self._data.pop(vehicle_id, None)
        self.touched.discard(vehicle_id)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, vehicle_id: object) -> bool:
        return vehicle_id in self._ids

    # ------------------------------------------------------------------
    def peek(self, vehicle_id: int) -> Optional[TransferSequence]:
        """The materialized sequence, or ``None`` without building one."""
        return self._data.get(vehicle_id)

    def iter_active(self) -> Iterator[Tuple[int, TransferSequence]]:
        """(id, sequence) pairs that can contribute riders/utility/cost.

        Yields every materialized entry plus pristine carried-state
        vehicles (built here); skips pristine empty vehicles, whose
        sequences are empty and contribute nothing to any aggregate.
        """
        data = self._data
        for vehicle_id, vehicle in self._ids.items():
            seq = data.get(vehicle_id)
            if seq is not None:
                yield vehicle_id, seq
            elif vehicle is not None and vehicle.has_carried_state:
                yield vehicle_id, self[vehicle_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LazySchedules({len(self._data)}/{len(self._ids)} materialized, "
            f"{len(self.touched)} touched)"
        )
