"""The oracle's bound in front of every reachability test.

:meth:`SolverState.reachable_vehicles` drops a vehicle at ``l`` with
``t0 + LB(l, s) > rt^- + eps`` (``LB`` = :meth:`DistanceOracle.lower_bounds`:
the landmark bound at tier 1, the exact table entry at tier 0) before
any exact ``cost()``.  The gate must never change the answer, must
save the exact queries it claims to save, and must keep the candidate
counters consistent in every candidate mode.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.candidates import build_candidate_index
from repro.core.dispatch import Dispatcher
from repro.core.instance import URRInstance
from repro.core.requests import Rider
from repro.core.scoring import SolverState
from repro.core.vehicles import Vehicle
from repro.perf import CANDIDATE_STATS
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle

_EPS = 1e-9
_WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75, 2.5, 4.0])


@st.composite
def _networks(draw, max_nodes=10):
    """Undirected networks with sparse ids, islands and zero weights."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    stride = draw(st.sampled_from([1, 3, 7]))
    ids = [i * stride for i in range(n)]
    net = RoadNetwork()
    for node in ids:
        net.add_node(node)
    for u, v, w in draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids), _WEIGHTS),
        min_size=1, max_size=3 * n,
    )):
        if u != v and not net.has_edge(u, v):
            net.add_edge(u, v, w)
    return net


@st.composite
def _cases(draw):
    net = draw(_networks())
    node = st.sampled_from(sorted(net.nodes()))
    ready = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5, 6.0]))
    fleet = draw(st.lists(st.tuples(node, ready), min_size=1, max_size=8))
    riders = draw(st.lists(
        st.tuples(node, node, st.sampled_from([0.0, 0.25, 1.0, 2.0, 4.0, 9.0])),
        min_size=1, max_size=6,
    ))
    return {
        "net": net,
        "tier": draw(st.sampled_from([0, 1, 2])),
        "start": draw(st.sampled_from([0.0, 1.0, 2.5])),
        "fleet": [
            Vehicle(vehicle_id=j, location=loc, capacity=2, ready_time=r)
            for j, (loc, r) in enumerate(fleet)
        ],
        "riders": [
            Rider(rider_id=i, source=s, destination=d,
                  pickup_deadline=slack, dropoff_deadline=slack + 100.0)
            for i, (s, d, slack) in enumerate(riders) if s != d
        ],
    }


class TestGateKeepsTheExactAnswer:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_cases())
    def test_equals_a_per_vehicle_cost_loop(self, case):
        net, fleet = case["net"], case["fleet"]
        oracle = DistanceOracle(net, tier=case["tier"])
        start = case["start"]
        instance = URRInstance(
            network=net, riders=case["riders"], vehicles=fleet,
            oracle=oracle, start_time=start,
        )
        state = SolverState(instance)
        half = fleet[::2]
        for rider in case["riders"]:
            for roster in (fleet, half, fleet):  # cached, replaced, rebuilt
                expect = [
                    v for v in roster
                    if max(start, v.ready_time if v.ready_time is not None else start)
                    + oracle.cost(v.location, rider.source)
                    <= rider.pickup_deadline + _EPS
                ]
                assert state.reachable_vehicles(rider, roster) == expect
                assert state.reachable_vehicles(rider, iter(roster)) == expect


def _city():
    return grid_city(8, 8, seed=2, removal_fraction=0.0, arterial_every=None)


def _frame(city):
    """Vehicles on one half of the city, riders with distinct stops on the
    other, and pickup deadlines most of the fleet cannot make."""
    nodes = sorted(city.nodes())
    homes = nodes[: len(nodes) // 2]
    stops = nodes[len(nodes) // 2:]
    rng = np.random.default_rng(3)
    fleet = [
        Vehicle(vehicle_id=j, location=int(loc), capacity=3)
        for j, loc in enumerate(rng.choice(homes, 12, replace=False))
    ]
    picked = [int(x) for x in rng.choice(stops, 16, replace=False)]
    riders = [
        Rider(rider_id=i, source=picked[2 * i], destination=picked[2 * i + 1],
              pickup_deadline=float(rng.uniform(2.0, 9.0)),
              dropoff_deadline=60.0)
        for i in range(8)
    ]
    return fleet, riders


class TestNoExactQueryBehindTheGate:
    def test_full_mode_frame_asks_only_gate_survivors(self, monkeypatch):
        city = _city()
        fleet, riders = _frame(city)
        oracle = DistanceOracle(city, tier=1)
        late = {
            frozenset((v.location, r.source))
            for r in riders for v in fleet
            if oracle.lower_bound(v.location, r.source) > r.pickup_deadline + _EPS
        }
        kept = {
            frozenset((v.location, r.source))
            for r in riders for v in fleet
        } - late
        assert late and kept
        asked = set()
        cost = DistanceOracle.cost

        def spy(self, u, v):
            asked.add(frozenset((u, v)))
            return cost(self, u, v)

        monkeypatch.setattr(DistanceOracle, "cost", spy)
        monkeypatch.setattr(DistanceOracle, "__call__", spy)
        d = Dispatcher(city, fleet, method="eg", oracle=oracle, seed=1)
        assert d.config.candidate_mode == "full"
        d.dispatch_frame(riders)
        assert kept <= asked  # the survivors are still tested exactly
        assert not (late & asked)


class TestCandidateCounters:
    @pytest.mark.parametrize("mode, tier", [
        ("full", 0), ("full", 1), ("spatial", 0), ("spatial", 1),
        ("spatiotemporal", 0), ("spatiotemporal", 1),
    ])
    def test_consistent_in_every_mode(self, mode, tier):
        city = _city()
        fleet, riders = _frame(city)
        oracle = DistanceOracle(city, tier=tier)
        kwargs = {}
        if mode != "full":
            kwargs["candidate_index"] = build_candidate_index(
                city, oracle=oracle, audit=True
            )
        d = Dispatcher(
            city, fleet, method="eg", oracle=oracle, seed=1,
            candidate_mode=mode, **kwargs,
        )
        before = CANDIDATE_STATS.snapshot()
        report = d.dispatch_frame(riders)
        stats = CANDIDATE_STATS.delta(before)
        assert report.num_served > 0
        assert stats.retrievals >= len(riders)
        assert 0 < stats.pairs_pruned <= stats.pairs_considered
        assert stats.pruned_in_error == 0
        if mode == "full" or tier == 0:
            # the gate alone: no spatial bound without an area cover, and
            # none in front of the exact table entry
            assert stats.pairs_pruned_spatial == 0
            assert stats.pairs_pruned_temporal > 0
        elif tier == 1:
            assert stats.pairs_pruned_temporal > 0

    @pytest.mark.parametrize("tier", [2])
    def test_full_mode_has_no_gate_without_landmark_rows(self, tier):
        # tier 2 has neither landmark rows nor a table: no bound to gate by
        city = _city()
        fleet, riders = _frame(city)
        d = Dispatcher(
            city, fleet, method="eg", oracle=DistanceOracle(city, tier=tier),
            seed=1,
        )
        before = CANDIDATE_STATS.snapshot()
        d.dispatch_frame(riders)
        assert CANDIDATE_STATS.delta(before).retrievals == 0
