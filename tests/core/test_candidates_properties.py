"""Property tests for the candidate index's array kernel.

Whatever the network (directed or not, with nodes outside every area),
the fleet (ready times or ``None``) and the maintenance history (moves,
removals, a metric change followed by ``resync``), retrieval must keep
every vehicle the exact location test keeps, and
``reachable_vehicles`` through the index must equal the full scan.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateIndex, build_candidate_index
from repro.core.instance import URRInstance
from repro.core.requests import Rider
from repro.core.scoring import SolverState
from repro.core.vehicles import Vehicle
from repro.perf import CANDIDATE_STATS
from repro.roadnet.areas import build_areas
from repro.roadnet.generators import grid_city
from repro.roadnet.landmarks import LandmarkIndex
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import INF

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _network(seed: int, directed: bool):
    net = grid_city(5, 5, seed=seed, removal_fraction=0.0, arterial_every=None)
    if not directed:
        return net
    # keep one direction of every other edge: a strongly directed metric
    # where some centres cannot reach some nodes
    from repro.roadnet.graph import RoadNetwork

    directed_net = RoadNetwork(undirected=False)
    for node in net.nodes():
        directed_net.add_node(node)
    for k, (u, v, w) in enumerate(sorted(net.edges())):
        if u < v or k % 3 == 0:
            directed_net.add_edge(u, v, w)
    return directed_net


def _index(net, oracle, mode, off_area: bool) -> CandidateIndex:
    if not off_area:
        return build_candidate_index(net, oracle=oracle, mode=mode, audit=True)
    # areas over a sub-network: the dropped nodes belong to no area
    nodes = sorted(net.nodes())
    areas = build_areas(net.subgraph(nodes[: len(nodes) * 2 // 3]), k=3)
    landmarks = (
        LandmarkIndex(net, num_landmarks=4)
        if mode == "spatiotemporal" and net.undirected
        else None
    )
    return CandidateIndex(
        net, areas, oracle, landmarks=landmarks, mode=mode, audit=True
    )


@st.composite
def scenarios(draw):
    directed = draw(st.booleans())
    net = _network(draw(st.integers(0, 2)), directed)
    nodes = sorted(net.nodes())
    node = st.sampled_from(nodes)
    ready = st.one_of(st.none(), st.floats(0.0, 15.0))
    fleet = draw(st.lists(st.tuples(node, ready), min_size=1, max_size=10))
    riders = draw(
        st.lists(
            st.tuples(node, node, st.floats(0.0, 25.0)), min_size=1, max_size=6
        )
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["move", "remove", "perturb"]),
                st.integers(0, 9),
                node,
                ready,
            ),
            max_size=4,
        )
    )
    return {
        "net": net,
        "mode": draw(st.sampled_from(["spatial", "spatiotemporal"])),
        "tier": draw(st.sampled_from([0, 2] if directed else [0, 1, 2])),
        "off_area": draw(st.booleans()),
        "start": draw(st.floats(0.0, 10.0)),
        "fleet": fleet,
        "riders": riders,
        "ops": ops,
    }


def _riders(spec, start):
    out = []
    for i, (s, d, slack) in enumerate(spec):
        if s == d:
            continue
        out.append(
            Rider(
                rider_id=i, source=s, destination=d,
                pickup_deadline=start + slack, dropoff_deadline=start + 500.0,
            )
        )
    return out


def _reference_prune(index, rider, vehicles, start):
    """The per-vehicle loop the kernel replaced, on the same two bounds."""
    deadline = rider.pickup_deadline + 1e-9
    landmarks = index._landmarks if index.mode == "spatiotemporal" else None
    keep = []
    for vehicle in vehicles:
        loc = vehicle.location
        try:
            center = index.areas.center_of(loc)
            d_cl = index.oracle.costs_from(center).get(loc, INF)
        except KeyError:
            center, d_cl = None, INF
        ready = vehicle.ready_time
        t0 = start if ready is None or ready < start else ready
        if center is not None and d_cl != INF:
            d_cs = index.oracle.costs_from(center).get(rider.source, INF)
            if d_cs == INF or t0 + d_cs - d_cl > deadline:
                continue
        if landmarks is not None and (
            t0 + landmarks.heuristic(loc, rider.source) > deadline
        ):
            continue
        keep.append(vehicle)
    return keep


def _check(index, oracle, net, vehicles, riders, start):
    by_id = {v.vehicle_id: v for v in vehicles}
    instance = URRInstance(
        network=net, riders=riders, vehicles=vehicles, oracle=oracle,
        start_time=start,
    )
    pruned_instance = URRInstance(
        network=net, riders=riders, vehicles=vehicles, oracle=oracle,
        candidates=index, start_time=start,
    )
    plain = SolverState(instance)
    pruned = SolverState(pruned_instance)
    for rider in riders:
        exact = [
            v for v in vehicles
            if max(start, v.ready_time if v.ready_time is not None else start)
            + oracle.cost(v.location, rider.source)
            <= rider.pickup_deadline + 1e-9
        ]
        tracked = index.prune(
            rider, vehicles, start, vehicles_by_id=by_id, assume_tracked=True
        )
        subset = index.prune(rider, vehicles, start)
        # same bounds, same float evaluation order: the same verdicts
        assert subset == _reference_prune(index, rider, vehicles, start)
        assert [v.vehicle_id for v in tracked] == [
            v.vehicle_id for v in subset
        ]
        for kept in (tracked, subset):
            assert set(v.vehicle_id for v in exact) <= set(
                v.vehicle_id for v in kept
            )
        assert pruned.reachable_vehicles(rider, vehicles) == (
            plain.reachable_vehicles(rider, vehicles)
        )


class TestKernelSoundness:
    @given(spec=scenarios())
    @_SETTINGS
    def test_kernel_keeps_exact_set_and_matches_full_scan(self, spec):
        net = spec["net"].copy()
        oracle = DistanceOracle(net, tier=spec["tier"])
        index = _index(net, oracle, spec["mode"], spec["off_area"])
        vehicles = [
            Vehicle(vehicle_id=j, location=loc, capacity=3, ready_time=ready)
            for j, (loc, ready) in enumerate(spec["fleet"])
        ]
        for v in vehicles:
            index.insert(v.vehicle_id, v.location, v.ready_time)
        start = spec["start"]
        riders = _riders(spec["riders"], start)
        errors_before = CANDIDATE_STATS.pruned_in_error
        _check(index, oracle, net, vehicles, riders, start)
        for op, pick, location, ready in spec["ops"]:
            if op == "move" and vehicles:
                j = pick % len(vehicles)
                vehicles[j] = Vehicle(
                    vehicle_id=vehicles[j].vehicle_id, location=location,
                    capacity=3, ready_time=ready,
                )
                index.update(vehicles[j].vehicle_id, location, ready)
            elif op == "remove" and len(vehicles) > 1:
                index.remove(vehicles.pop(pick % len(vehicles)).vehicle_id)
            elif op == "perturb":
                # shorten every edge out of one node: stale bounds would
                # now be unsound, so resync must re-derive them
                for v2 in list(net.adjacency[location]):
                    net.adjacency[location][v2] *= 0.25
                    if net.undirected:
                        net.adjacency[v2][location] *= 0.25
                oracle.invalidate()
                index.resync(
                    (v.vehicle_id, v.location, v.ready_time) for v in vehicles
                )
            _check(index, oracle, net, vehicles, riders, start)
        assert CANDIDATE_STATS.pruned_in_error == errors_before
