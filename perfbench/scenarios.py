"""Workload definitions and their seeded inputs.

A workload fixes the city (network generator and its seed), the fleet
shape, the dispatcher configuration, the demand curve and the disruption
mix.  :func:`make_inputs` turns a workload plus the ``--seed`` argument
into the concrete inputs of a run -- the arrival stream, the fleet and
the disruption draws -- before anything is timed.  The same seed always
gives the same inputs; the program under test only ever sees them.

The city itself (network and node popularity) stays fixed per workload,
so seeds vary the demand realisation, fleet placement and disruption
targets, not the map.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.disruptions import (
    RiderCancellation,
    RiderNoShow,
    RoadClosure,
    TravelTimePerturbation,
    VehicleBreakdown,
)
from repro.core.dispatch import RiderStatus
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city, nyc_like
from repro.roadnet.oracle import DistanceOracle
from repro.service import simulator_arrivals
from repro.workload.taxi import TaxiTripSimulator

#: generation frame of the arrival simulator (minutes); the demand
#: profile holds one multiplier per generation frame
GEN_FRAME = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # city
    city: str  # "grid" | "nyc"
    grid: Tuple[int, int] = (64, 64)
    city_seed: int = 7
    oracle_tier: Optional[int] = None  # None: auto-selected (the real path)
    # fleet
    vehicles: int = 300
    capacities: Tuple[int, ...] = (2, 3, 4)
    # dispatcher (solver "eg", 8 shards when sharded, 3 offers per rider)
    candidate_mode: str = "full"
    shard_workers: Optional[int] = None
    durability: bool = False
    # demand: base trips/minute times one multiplier per generation frame
    trips_per_minute: float = 30.0
    profile: Tuple[float, ...] = (1.0,) * 10
    zipf_exponent: float = 1.3
    patience: float = 8.0
    flexible_factor: float = 1.6
    # streaming triggers
    delta_t: float = 0.25
    max_batch: Optional[int] = None
    # disruptions: every ``every``-th batch boundary gets one event of the
    # kind; rare metric-changing events fire once at fixed fractions of
    # the horizon so every seed pays the same number of oracle rebuilds
    chaos_every: Tuple[Tuple[str, int], ...] = ()
    chaos_once: Tuple[Tuple[str, float], ...] = ()

    @property
    def horizon(self) -> float:
        return len(self.profile) * GEN_FRAME

    def build_network(self):
        if self.city == "nyc":
            return nyc_like(seed=self.city_seed)
        rows, cols = self.grid
        return grid_city(rows, cols, seed=self.city_seed)

    def build_oracle(self, network) -> DistanceOracle:
        return DistanceOracle(network, tier=self.oracle_tier)


def _rush_profile(base: int, peak: int, factor: float) -> Tuple[float, ...]:
    return (1.0,) * base + (factor,) * peak + (1.0,) * base


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rush_hour",
            why=(
                "64x64 grid city on the CH+ALT oracle tier, global solve "
                "with spatio-temporal pruning and a 4x rush peak the fleet "
                "cannot cover: the city-scale read path"
            ),
            city="grid",
            vehicles=400,
            capacities=(2, 3, 4),
            candidate_mode="spatiotemporal",
            trips_per_minute=32.0,
            profile=_rush_profile(8, 12, 4.0),
            delta_t=0.2,
            max_batch=16,
        ),
        Workload(
            name="dense_core",
            why=(
                "~1k-node city on the APSP table oracle with capacity 4/6 "
                "vehicles under heavy demand: long schedules, and every "
                "oracle query is a table read"
            ),
            city="nyc",
            city_seed=3,
            vehicles=200,
            capacities=(4, 6),
            candidate_mode="spatial",
            trips_per_minute=160.0,
            profile=(1.0,) * 18,
            patience=12.0,
            flexible_factor=2.5,
            delta_t=0.1,
        ),
        Workload(
            name="ops_chaos",
            why=(
                "the tier-1 city with serial sharding, seeded breakdowns, "
                "cancellations and no-shows, rare perturbations and "
                "closures, and WAL/snapshot durability: the write paths"
            ),
            city="grid",
            vehicles=200,
            capacities=(2, 3, 4),
            shard_workers=1,
            durability=True,
            trips_per_minute=30.0,
            profile=_rush_profile(5, 6, 2.0),
            delta_t=0.25,
            max_batch=6,
            chaos_every=(
                ("cancellation", 4),
                ("no_show", 4),
                ("breakdown", 8),
            ),
            chaos_once=(("perturbation", 0.33), ("closure", 0.66)),
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload shrunk to a tiny city (same tier, same layers)."""
    tier = 0 if workload.city == "nyc" else 1
    return dataclasses.replace(
        workload,
        city="grid",
        grid=(10, 10),
        oracle_tier=tier,
        vehicles=12,
        trips_per_minute=6.0,
        profile=tuple(workload.profile[::3]) or (1.0,),
        max_batch=6 if workload.max_batch else None,
    )


@dataclass
class Inputs:
    """Everything a run feeds the program, generated from the seed."""

    arrivals: list
    fleet: List[Vehicle]
    #: per batch boundary index: [(kind, u), ...] with u uniform in [0, 1)
    chaos: Dict[int, List[Tuple[str, float]]]
    trips: int


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Seeded arrival stream, fleet and disruption draws for one run."""
    network = workload.build_network()
    nodes = sorted(network.nodes())
    rng = np.random.default_rng([seed, 1])
    fleet = [
        Vehicle(
            vehicle_id=j,
            location=int(rng.choice(nodes)),
            capacity=int(rng.choice(workload.capacities)),
        )
        for j in range(workload.vehicles)
    ]
    # the generator gets its own small oracle: its Dijkstra rows must not
    # warm the caches of the oracle under test
    gen_oracle = DistanceOracle(network, tier=2, cache_sources=4)
    simulator = TaxiTripSimulator(
        network,
        oracle=gen_oracle,
        seed=workload.city_seed,  # node popularity is part of the city
        zipf_exponent=workload.zipf_exponent,
        trips_per_minute=workload.trips_per_minute,
        demand_profile=list(workload.profile),
    )
    simulator.rng = np.random.default_rng([seed, 2])  # demand realisation
    arrivals = list(
        simulator_arrivals(
            simulator,
            num_frames=len(workload.profile),
            frame_length=GEN_FRAME,
            patience=workload.patience,
            flexible_factor=workload.flexible_factor,
        )
    )
    return Inputs(
        arrivals=arrivals,
        fleet=fleet,
        chaos=_chaos_draws(
            workload, len(arrivals), np.random.default_rng([seed, 3])
        ),
        trips=len(arrivals),
    )


def _chaos_draws(
    workload: Workload, num_arrivals: int, rng
) -> Dict[int, List[Tuple[str, float]]]:
    if not workload.chaos_every and not workload.chaos_once:
        return {}
    # an upper bound on the batch count: every interval window plus every
    # count trigger the stream could fire
    windows = int(workload.horizon / workload.delta_t) + 2
    if workload.max_batch:
        windows += num_arrivals // workload.max_batch + 1
    draws: Dict[int, List[Tuple[str, float]]] = {}
    for index in range(windows):
        for kind, every in workload.chaos_every:
            if index % every == every - 1:
                draws.setdefault(index, []).append((kind, float(rng.random())))
    interval_batches = int(workload.horizon / workload.delta_t)
    for kind, fraction in workload.chaos_once:
        index = int(fraction * interval_batches)
        draws.setdefault(index, []).append((kind, float(rng.random())))
    return draws


def resolve_events(draws: Sequence[Tuple[str, float]], dispatcher) -> list:
    """Turn draws into concrete events against sorted dispatcher state.

    Targets are picked by index from sorted views (vehicle ids, rider ids,
    edges), so the same inputs and the same dispatcher state always give
    the same events.
    """
    events = []
    for kind, u in draws:
        if kind == "breakdown":
            busy = sorted(
                vid for vid, fv in dispatcher.fleet.items()
                if fv.onboard or fv.committed_stops
            )
            pool = busy or sorted(dispatcher.fleet)
            if len(dispatcher.fleet) > 1 and pool:
                events.append(VehicleBreakdown(pool[int(u * len(pool))]))
        elif kind == "cancellation":
            pool = sorted(
                rid for rid, status in dispatcher.ledger.items()
                if status in (RiderStatus.PENDING, RiderStatus.COMMITTED)
            )
            if pool:
                events.append(RiderCancellation(pool[int(u * len(pool))]))
        elif kind == "no_show":
            pool = sorted(
                rid for fv in dispatcher.fleet.values()
                for rid in fv.pending_pickup_ids()
            )
            if pool:
                events.append(RiderNoShow(pool[int(u * len(pool))]))
        elif kind in ("perturbation", "closure"):
            edges = sorted(
                (a, b) for a, b, _ in dispatcher.network.edges() if a < b
            )
            picks = [edges[int((u + k / 8.0) % 1.0 * len(edges))] for k in range(8)]
            if kind == "perturbation":
                events.append(
                    TravelTimePerturbation(
                        tuple((a, b, 1.5) for a, b in sorted(set(picks)))
                    )
                )
            else:
                events.append(RoadClosure(tuple(sorted(set(picks))[:3])))
        else:
            raise ValueError(f"unknown disruption kind {kind!r}")
    return events
