"""One seeded scenario, drawn once and shared by every fuzz mode.

:func:`draw_scenario` turns ``(seed, shape)`` into plain data: the road
network and its cached oracle, the solver method, the Eq. 1 weights, the
frame length, the retry budget, the fleet, every frame's riders and the
GBS grouping plan.  Nothing in it depends on which mode will run it, so
a reference and a candidate dispatcher see byte-identical inputs, and
the shrinker can drop riders and vehicles from it without redrawing.

A :class:`Shape` without frames draws a single static instance instead
(:func:`random_instance`): one of the canned
:mod:`repro.workload.scenarios` regimes, with seeded Eq. 3 similarity
overrides, for the single-instance solver fuzz.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.grouping import GroupingPlan, prepare_grouping
from repro.core.instance import URRInstance
from repro.core.requests import Rider
from repro.core.solver import METHODS
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.workload.instances import InstanceConfig, build_instance
from repro.workload.scenarios import SCENARIOS

#: (alpha, beta) profiles the fuzzer cycles through — the corner cases of
#: Eq. 1 (each term alone) plus the paper's balanced default.
WEIGHT_PROFILES: Tuple[Tuple[float, float], ...] = (
    (0.33, 0.33),
    (1.0, 0.0),
    (0.0, 1.0),
    (0.0, 0.0),
    (0.5, 0.25),
)

#: Random Eq. 3 similarity overrides per static instance.
_SIMILARITY_PAIRS = 8

#: Pickup slack, in frames, of ordinary and of tight-locality seeds.
#: Tight deadlines leave few reachable vehicles per rider, the regime in
#: which sharded frames are free of boundary conflicts.
_SLACK = (0.5, 3.5)
_TIGHT_SLACK = (0.05, 0.45)

_MAX_CAPACITY = 3


@dataclass(frozen=True)
class Shape:
    """How large a drawn scenario is (ranges are inclusive)."""

    grid: int = 6                 # grid city is grid x grid nodes
    num_networks: int = 4         # distinct cached road networks
    #: frames per scenario; ``None`` draws one static instance
    frames: Optional[Tuple[int, int]] = (4, 6)
    riders: Tuple[int, int] = (2, 5)       # per frame (per instance)
    vehicles: Tuple[int, int] = (1, 3)
    methods: Tuple[str, ...] = ("eg", "ba", "cf", "gbs+eg")
    p_tight: float = 0.0          # share of seeds with tight pickups


@dataclass(frozen=True)
class Scenario:
    """Everything one seed's trial consumes, fixed before any run."""

    seed: int
    network: RoadNetwork
    oracle: DistanceOracle
    method: str
    alpha: float
    beta: float
    frame_length: float
    max_retries: int
    fleet: Tuple[Vehicle, ...]
    frames: Tuple[Tuple[Rider, ...], ...]
    plan: Optional[GroupingPlan] = None
    #: the static instance a frameless shape drew (its riders and
    #: vehicles mirror ``frames[0]`` and ``fleet``)
    instance: Optional[URRInstance] = None
    #: the workload regime that shaped a static instance
    regime: str = ""

    @property
    def riders(self) -> List[Rider]:
        return [r for frame in self.frames for r in frame]

    def without_rider(self, rider_id: int) -> "Scenario":
        frames = tuple(
            tuple(r for r in frame if r.rider_id != rider_id)
            for frame in self.frames
        )
        return dataclasses.replace(self, frames=frames)

    def without_vehicle(self, vehicle_id: int) -> "Scenario":
        fleet = tuple(v for v in self.fleet if v.vehicle_id != vehicle_id)
        return dataclasses.replace(self, fleet=fleet)

    def static_instance(self) -> URRInstance:
        """The static instance restricted to the scenario's riders/fleet."""
        base = self.instance
        assert base is not None, "only frameless shapes draw an instance"
        return URRInstance(
            network=base.network,
            riders=list(self.frames[0]),
            vehicles=list(self.fleet),
            alpha=base.alpha,
            beta=base.beta,
            vehicle_utilities=base.vehicle_utilities,
            social=base.social,
            similarity_overrides=base.similarity_overrides,
            start_time=base.start_time,
            seed=base.seed,
            oracle=base.oracle,
        )


_NETWORK_CACHE: Dict[Tuple[int, int], Tuple[RoadNetwork, DistanceOracle]] = {}
_PLAN_CACHE: Dict[int, GroupingPlan] = {}


def network_for(shape: Shape, seed: int) -> Tuple[RoadNetwork, DistanceOracle]:
    """The seed's cached grid city and its shared (untiered) oracle."""
    key = (shape.grid, seed % max(shape.num_networks, 1))
    cached = _NETWORK_CACHE.get(key)
    if cached is None:
        network = grid_city(
            shape.grid, shape.grid, seed=key[1],
            removal_fraction=0.0, arterial_every=None,
        )
        cached = _NETWORK_CACHE[key] = (network, DistanceOracle(network))
    return cached


def plan_for(network: RoadNetwork) -> GroupingPlan:
    plan = _PLAN_CACHE.get(id(network))
    if plan is None:
        plan = _PLAN_CACHE[id(network)] = prepare_grouping(network, k=8)
    return plan


def _between(rng: np.random.Generator, bounds: Tuple[int, int]) -> int:
    return int(rng.integers(bounds[0], bounds[1] + 1))


def random_instance(
    seed: int, shape: Optional[Shape] = None
) -> Tuple[URRInstance, str]:
    """The seed's randomized static instance and the regime that shaped it."""
    shape = shape or INSTANCE
    rng = np.random.default_rng(seed)
    network, oracle = network_for(shape, seed)
    regime = sorted(SCENARIOS)[int(rng.integers(len(SCENARIOS)))]
    simulator = SCENARIOS[regime](network, seed=seed, oracle=oracle)
    alpha, beta = WEIGHT_PROFILES[int(rng.integers(len(WEIGHT_PROFILES)))]
    lo = float(rng.uniform(4.0, 10.0))
    config = InstanceConfig(
        num_riders=_between(rng, shape.riders),
        num_vehicles=_between(rng, shape.vehicles),
        pickup_deadline_range=(lo, lo + float(rng.uniform(2.0, 10.0))),
        capacity=int(rng.integers(1, _MAX_CAPACITY + 1)),
        alpha=alpha,
        beta=beta,
        flexible_factor=float(rng.uniform(1.2, 2.5)),
        seed=seed,
    )
    instance = build_instance(network, config, oracle=oracle, simulator=simulator)
    # random Eq. 3 similarities so the rider-related term is exercised even
    # without a social network attached
    ids = [r.rider_id for r in instance.riders]
    for _ in range(min(_SIMILARITY_PAIRS, len(ids) * (len(ids) - 1) // 2)):
        a, b = rng.choice(ids, size=2, replace=False)
        a, b = int(min(a, b)), int(max(a, b))
        instance.similarity_overrides[(a, b)] = float(rng.uniform(0.0, 1.0))
    return instance, regime


def _requests(
    network: RoadNetwork,
    oracle: DistanceOracle,
    rng: np.random.Generator,
    count: int,
    clock: float,
    frame_length: float,
    id_start: int,
    slack: Tuple[float, float],
) -> Tuple[Rider, ...]:
    """``count`` seeded requests revealed at ``clock``.

    Deadlines live on the absolute dispatcher clock; the ordinary pickup
    slack spans one to several frames so riders are regularly carried
    over, and the drop-off detour factor keeps shared rides feasible.
    """
    riders = []
    for i in range(count):
        source = int(rng.integers(network.num_nodes))
        destination = int(rng.integers(network.num_nodes))
        while destination == source:
            destination = int(rng.integers(network.num_nodes))
        shortest = oracle.cost(source, destination)
        pickup = clock + float(rng.uniform(*slack)) * frame_length
        riders.append(
            Rider(
                rider_id=id_start + i,
                source=source,
                destination=destination,
                pickup_deadline=pickup,
                dropoff_deadline=pickup + float(rng.uniform(1.2, 2.5)) * shortest,
            )
        )
    return tuple(riders)


def draw_scenario(seed: int, shape: Shape) -> Scenario:
    """Draw the seed's whole scenario up front (deterministic in the seed).

    Frame lengths sit on a quarter-minute lattice so clocks accumulate
    bit-identically whether a dispatcher advances them frame by frame or
    a streaming engine does through its trigger arithmetic.
    """
    if shape.frames is None:
        instance, regime = random_instance(seed, shape)
        return Scenario(
            seed=seed, network=instance.network, oracle=instance.oracle,
            method="", alpha=instance.alpha, beta=instance.beta,
            frame_length=0.0, max_retries=0, fleet=tuple(instance.vehicles),
            frames=(tuple(instance.riders),), instance=instance, regime=regime,
        )
    rng = np.random.default_rng(seed)
    network, oracle = network_for(shape, seed)
    method = shape.methods[int(rng.integers(len(shape.methods)))]
    alpha, beta = WEIGHT_PROFILES[int(rng.integers(len(WEIGHT_PROFILES)))]
    num_frames = _between(rng, shape.frames)
    num_vehicles = _between(rng, shape.vehicles)
    frame_length = float(rng.integers(12, 33)) / 4.0
    max_retries = int(rng.integers(1, 5))
    slack = _TIGHT_SLACK if rng.random() < shape.p_tight else _SLACK
    fleet = tuple(
        Vehicle(
            vehicle_id=j,
            location=int(rng.integers(network.num_nodes)),
            capacity=int(rng.integers(1, _MAX_CAPACITY + 1)),
        )
        for j in range(num_vehicles)
    )
    frames = []
    rider_id = 0
    for frame in range(num_frames):
        riders = _requests(
            network, oracle, rng, _between(rng, shape.riders),
            frame * frame_length, frame_length, rider_id, slack,
        )
        rider_id += len(riders)
        frames.append(riders)
    return Scenario(
        seed=seed, network=network, oracle=oracle, method=method,
        alpha=alpha, beta=beta, frame_length=frame_length,
        max_retries=max_retries, fleet=fleet, frames=tuple(frames),
        plan=plan_for(network) if method.startswith("gbs") else None,
    )


#: The single-instance solver fuzz: small cities, OPT-sized instances.
INSTANCE = Shape(grid=5, frames=None, riders=(3, 8), methods=METHODS)
