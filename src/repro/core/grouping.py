"""Grouping-Based Scheduling approach, **GBS** (Section 6).

GBS speeds up a base solver (BA or EG) by partitioning riders into trip
groups and solving the groups one after another on a shared schedule state:

1. **Preprocessing** (:func:`prepare_grouping`) — split long edges with
   pseudo nodes (Eq. 10), compute a k-path cover, build areas
   (Algorithm 4).  This is road-network-only work, reusable across
   instances on the same network.
2. **Grouping** (Algorithm 5) — trips with shortest cost > ``d_max * k``
   are *long trips* (group ``g_0``, solved first, against all vehicles);
   short trips group by the area of their source and are solved in
   descending group size.
3. **Fast valid-vehicle filtering** — for a short-trip group with centre
   ``u_x``, only vehicles with
   ``cost(u_x, l(c_j)) - d_max * k < rt_max^- - t̄`` are handed to the base
   solver (Section 6.2).
4. **Cost-model k selection** (Section 6.3) — :func:`estimate_best_k`
   binary-searches the ``k`` whose area count ``eta`` sits at the cost
   model's minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.bilateral import run_bilateral
from repro.core.candidates import VehicleColumns
from repro.core.greedy import run_efficient_greedy
from repro.core.requests import Rider
from repro.core.scoring import SolverState
from repro.core.vehicles import Vehicle
from repro.roadnet.areas import AreaIndex, build_areas
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.kpathcover import k_shortest_path_cover
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.preprocess import split_long_edges

_EPS = 1e-9

#: signature of a GBS base solver
BaseSolver = Callable[[SolverState, List[Rider], List[Vehicle]], None]


@dataclass
class GroupingPlan:
    """Preprocessed grouping structures for one road network."""

    network: RoadNetwork          # the pseudo-node-split network
    areas: AreaIndex
    oracle: DistanceOracle        # oracle over the split network
    d_max: float
    k: int

    @property
    def short_trip_bound(self) -> float:
        """Upper bound on a short trip's shortest cost: ``d_max * k``."""
        return self.d_max * self.k

    @property
    def num_areas(self) -> int:
        return self.areas.num_areas


def default_d_max(network: RoadNetwork) -> float:
    """Default edge-length bound: 1.5x the mean edge cost of the network.

    Long enough that even networks need few pseudo nodes, while genuinely
    long edges still get normalised; combined with the default ``k = 8``
    the short-trip bound ``d_max * k`` then covers the bulk of the trip
    distribution (Figure 7), keeping the long-trip group ``g_0`` small —
    a large ``g_0`` would defeat the grouping.
    """
    total = 0.0
    count = 0
    for _, _, cost in network.edges():
        total += cost
        count += 1
    return 1.5 * (total / count) if count else 1.0


def prepare_grouping(
    network: RoadNetwork,
    k: int = 8,
    d_max: Optional[float] = None,
    search_budget: Optional[int] = None,
) -> GroupingPlan:
    """Preprocess a road network for GBS (Eq. 10 split + Algorithm 4)."""
    if d_max is None:
        d_max = default_d_max(network)
    split = split_long_edges(network, d_max).network
    kwargs = {} if search_budget is None else {"search_budget": search_budget}
    areas = build_areas(split, k, **kwargs)
    oracle = DistanceOracle(
        split, cache_sources=max(2048, 2 * areas.num_areas), apsp_threshold=0
    )
    # warm the centre->anywhere distances now: the fast vehicle filter needs
    # them and this is offline road-network preprocessing, not solve time
    oracle.warm(areas.centers)
    return GroupingPlan(
        network=split,
        areas=areas,
        oracle=oracle,
        d_max=d_max,
        k=k,
    )


#: Valid short-trip group processing orders (Algorithm 5 uses size-desc).
GROUP_ORDERS = ("size-desc", "size-asc", "random")


def run_grouping(
    state: SolverState,
    riders: Iterable[Rider],
    plan: GroupingPlan,
    base: str = "eg",
    vehicles: Optional[List[Vehicle]] = None,
    rng: Optional[np.random.Generator] = None,
    group_order: str = "size-desc",
    long_trips_first: bool = True,
) -> None:
    """Algorithm 5 (GroupArranging): solve trip groups with a base solver.

    ``group_order`` and ``long_trips_first`` default to the paper's choices
    (descending size; long trips solved first "as they may have huge
    impacts on the schedules of vehicles"); the alternatives exist for the
    design-choice ablation.
    """
    if group_order not in GROUP_ORDERS:
        raise ValueError(
            f"unknown group order {group_order!r}; expected {GROUP_ORDERS}"
        )
    if vehicles is None:
        vehicles = state.instance.vehicles
    if rng is None:
        rng = state.instance.rng()
    base_fn = _base_solver(base, rng)
    cost = state.instance.cost
    bound = plan.short_trip_bound

    # lines 2-6: classify into long trips (g0) and per-area short groups
    long_trips: List[Rider] = []
    short_groups: Dict[int, List[Rider]] = {}
    for rider in riders:
        if cost(rider.source, rider.destination) > bound + _EPS:
            long_trips.append(rider)
        else:
            center = plan.areas.center_of(rider.source)
            short_groups.setdefault(center, []).append(rider)

    # candidate retrieval on: map the fleet to block columns once so each
    # group's filter is one gather (identical output, see VehicleColumns)
    view: Optional[VehicleColumns] = None
    if state.instance.candidates is not None and short_groups:
        view = VehicleColumns(plan.oracle, vehicles)

    # line 8: long trips first (they shape the schedules the most)
    if long_trips and long_trips_first:
        base_fn(state, long_trips, list(vehicles))

    # lines 9-11: short groups (paper: descending size) with the fast filter
    if group_order == "size-desc":
        ordered = sorted(short_groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    elif group_order == "size-asc":
        ordered = sorted(short_groups.items(), key=lambda kv: (len(kv[1]), kv[0]))
    else:
        ordered = sorted(short_groups.items(), key=lambda kv: kv[0])
        perm = rng.permutation(len(ordered))
        ordered = [ordered[int(i)] for i in perm]
    for center, group in ordered:
        valid = filter_vehicles_for_group(
            state, plan, center, group, vehicles, view=view
        )
        if valid:
            base_fn(state, group, valid)

    # ablation variant: long trips after the short groups
    if long_trips and not long_trips_first:
        base_fn(state, long_trips, list(vehicles))


def filter_vehicles_for_group(
    state: SolverState,
    plan: GroupingPlan,
    center: int,
    group: List[Rider],
    vehicles: List[Vehicle],
    view: Optional[VehicleColumns] = None,
) -> List[Vehicle]:
    """Fast valid-vehicle filter of Section 6.2.

    A vehicle qualifies when ``cost(u_x, l(c_j)) - d_max * k`` is below the
    slack to the group's latest pickup deadline — i.e. it could reach *some*
    rider origin in the area in time (every origin is within ``d_max * k``
    of the centre).

    The centre's distances are read straight from its row of the
    oracle's pinned block.  With ``view`` (the block columns of the same
    ``vehicles``, built once per :func:`run_grouping` call, which also
    ticks the retrieval counters) the columns are not re-mapped; the
    returned list is identical either way, order included.
    """
    rt_max = max(r.pickup_deadline for r in group)
    slack = rt_max - state.instance.start_time
    oracle = plan.oracle
    oracle.warm((center,))  # no-op while pinned; refills a deferred row
    row = oracle.pinned_block()[oracle.pinned_row(center)]
    bound = plan.short_trip_bound
    if view is not None and view.vehicles is vehicles:
        return view.filter(row, bound, slack)
    cols = oracle.columns(v.location for v in vehicles)
    keep = (row[cols] - bound < slack + _EPS).tolist()
    return [v for v, kept in zip(vehicles, keep) if kept]


def _base_solver(
    base: str, rng: np.random.Generator, eg_update: str = "eager"
) -> BaseSolver:
    """Base solver for one trip group.

    For EG groups the default update policy is ``"eager"`` (exact
    efficiency maintenance): this is precisely what grouping buys — per
    Section 6.3's cost model the per-group pair sets are small enough that
    exact updating becomes affordable, which is why GBS+EG achieves much
    higher utilities than plain (stale-ordered) EG in Section 7.
    """
    if base == "eg":

        def solve_eg(state: SolverState, riders: List[Rider], vehicles: List[Vehicle]) -> None:
            run_efficient_greedy(state, riders, vehicles, update=eg_update)

        return solve_eg
    if base == "ba":

        def solve_ba(state: SolverState, riders: List[Rider], vehicles: List[Vehicle]) -> None:
            run_bilateral(state, riders, vehicles, rng=rng)

        return solve_ba
    raise ValueError(f"unknown GBS base solver {base!r}; expected 'eg' or 'ba'")


# ----------------------------------------------------------------------
# Section 6.3: cost-model-based estimation of the best k
# ----------------------------------------------------------------------
def gbs_cost_model(eta: float, s: int, m: int, n: int, c_k: float = 1.0) -> float:
    """Total GBS cost ``Cost_gbs`` as a function of the area count ``eta``.

    ``Cost_gbs = s (C_k + log eta) + 2 m log eta + eta log eta
    + (m n / eta) log(n / eta)``
    """
    if eta < 1:
        raise ValueError("eta must be >= 1")
    log_eta = math.log(eta)
    inner = max(n / eta, 1.0)
    return s * (c_k + log_eta) + 2 * m * log_eta + eta * log_eta + (m * n / eta) * math.log(inner)


def gbs_cost_derivative(eta: float, s: int, m: int, n: int) -> float:
    """``d Cost_gbs / d eta`` (Section 6.3).

    ``(s + 2m) / eta + log eta + 1 - (m n / eta^2)(log(n / eta) + 1)``
    Negative for small ``eta``, increasing in ``eta``; the zero crossing is
    the cost-optimal area count.
    """
    if eta < 1:
        raise ValueError("eta must be >= 1")
    inner = max(n / eta, 1e-12)
    return (
        (s + 2 * m) / eta
        + math.log(eta)
        + 1.0
        - (m * n / (eta * eta)) * (math.log(inner) + 1.0)
    )


def optimal_eta(s: int, m: int, n: int) -> float:
    """Zero crossing of :func:`gbs_cost_derivative` (bisection on eta)."""
    lo, hi = 1.0, float(max(s, 2))
    if gbs_cost_derivative(lo, s, m, n) >= 0:
        return lo
    if gbs_cost_derivative(hi, s, m, n) <= 0:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gbs_cost_derivative(mid, s, m, n) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def estimate_best_k(
    network: RoadNetwork,
    m: int,
    n: int,
    k_min: int = 2,
    k_max: int = 16,
    d_max: Optional[float] = None,
    search_budget: Optional[int] = None,
) -> Tuple[int, Dict[int, int]]:
    """Section 6.3: binary-search the ``k`` whose area count matches the
    cost model's optimal ``eta``.

    ``eta(k)`` (the k-path-cover size) decreases as ``k`` grows, so we
    binary search: when the derivative at ``eta(k)`` is positive the areas
    are still too many (``eta`` too large) and ``k`` must grow, and vice
    versa.

    Returns ``(best_k, {k: eta})`` with the probed cover sizes (useful for
    the ablation bench).
    """
    if d_max is None:
        d_max = default_d_max(network)
    split = split_long_edges(network, d_max).network
    s = split.num_nodes
    probed: Dict[int, int] = {}
    kwargs = {} if search_budget is None else {"search_budget": search_budget}

    def eta_of(k: int) -> int:
        if k not in probed:
            probed[k] = max(len(k_shortest_path_cover(split, k, **kwargs)), 1)
        return probed[k]

    lo, hi = k_min, k_max
    best_k = k_min
    target = optimal_eta(s, m, n)
    while lo <= hi:
        mid = (lo + hi) // 2
        eta = eta_of(mid)
        if gbs_cost_derivative(eta, s, m, n) > 0:
            best_k = mid  # eta still above the optimum: larger k helps
            lo = mid + 1
        else:
            hi = mid - 1
    # pick the probed k whose eta is closest to the analytic optimum
    best_k = min(probed, key=lambda k: abs(probed[k] - target))
    return best_k, probed
