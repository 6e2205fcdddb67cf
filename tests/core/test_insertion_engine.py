"""Zero-copy insertion engine vs the reference implementation.

The fast path (:func:`plan_insertion` / :func:`arrange_single_rider`)
evaluates candidate pairs analytically against the existing event arrays;
:func:`arrange_single_rider_reference` is the original copy-and-recompute
Algorithm 1 kept as the executable specification.  These tests pin them
together **exactly** — same positions, same delta cost, identical arrays of
the materialised sequence — on randomized schedules, and guard the Lemma
3.2 early break of :func:`valid_insertions` against a no-break brute force.
They also pin the utility the solvers score a pair with
(``UtilityModel.insertion_utility``, no sequence built) to the utility of
the materialised sequence, and a solve to one materialisation per commit.
"""

import random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import run_efficient_greedy
from repro.core.insertion import (
    InsertionCandidate,
    InsertionPlan,
    InsertionResult,
    arrange_single_rider,
    arrange_single_rider_reference,
    inserted_leg_costs,
    plan_insertion,
    valid_insertions,
)
from repro.core.requests import Rider
from repro.core.schedule import Stop, TransferSequence
from repro.core.scoring import SolverState
from repro.core.utility import UtilityModel
from repro.core.utility_ext import (
    ExtendedUtilityModel,
    UtilityComponent,
    punctuality_component,
)
from repro.core.vehicles import Vehicle
from repro.perf import INSERTION_STATS
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle
from repro.workload import InstanceConfig, build_instance

NET = grid_city(5, 5, seed=11, removal_fraction=0.0, arterial_every=None)
COST = DistanceOracle(NET).fast_cost_fn()
NODES = sorted(NET.nodes())
EPS = 1e-9


# ----------------------------------------------------------------------
# randomized workload
# ----------------------------------------------------------------------
def _random_rider(rng: random.Random, anchor: int, t0: float, rider_id: int,
                  slack: float) -> Rider:
    """Random rider; ``slack`` scales how loose the deadlines are."""
    while True:
        source, destination = rng.choice(NODES), rng.choice(NODES)
        if source == destination:
            continue
        to_source = COST(anchor, source)
        direct = COST(source, destination)
        pickup_deadline = t0 + slack * (to_source + 0.3 * direct) + rng.uniform(0.1, 2.0)
        dropoff_deadline = pickup_deadline + slack * direct + rng.uniform(0.1, 2.0)
        return Rider(
            rider_id=rider_id,
            source=source,
            destination=destination,
            pickup_deadline=pickup_deadline,
            dropoff_deadline=dropoff_deadline,
        )


def _grow_schedule(rng: random.Random, target_stops: int, capacity: int,
                   slack: float,
                   seq: Optional[TransferSequence] = None) -> TransferSequence:
    """Grow a schedule via the *reference* path (never assumes the fast one),
    from an empty one at a random origin unless ``seq`` is given."""
    if seq is None:
        seq = TransferSequence(
            origin=rng.choice(NODES), start_time=0.0, capacity=capacity, cost=COST
        )
    origin = seq.origin
    rider_id = 100
    for _ in range(200):
        if len(seq) >= target_stops:
            break
        if len(seq):
            at = rng.randrange(len(seq))
            anchor, t0 = seq.stops[at].location, seq.arrive[at]
        else:
            anchor, t0 = origin, 0.0
        result = arrange_single_rider_reference(
            seq, _random_rider(rng, anchor, t0, rider_id, slack)
        )
        if result is not None:
            seq = result.sequence
            rider_id += 1
    return seq


def _probe(rng: random.Random, seq: TransferSequence, slack: float) -> Rider:
    if len(seq) and rng.random() < 0.8:
        at = rng.randrange(len(seq))
        anchor, t0 = seq.stops[at].location, seq.arrive[at]
    else:
        anchor, t0 = seq.origin, seq.start_time
    return _probe_rider(rng, anchor, t0, slack)


def _probe_rider(rng: random.Random, anchor: int, t0: float, slack: float) -> Rider:
    return _random_rider(rng, anchor, t0, rider_id=0, slack=slack)


def assert_fast_matches_reference(seq: TransferSequence, rider: Rider) -> None:
    """Fast path == reference: feasibility, positions, delta, arrays."""
    plan = plan_insertion(seq, rider)
    reference = arrange_single_rider_reference(seq, rider)
    if reference is None:
        assert plan is None, (
            f"fast path found {plan} where the reference found nothing"
        )
        return
    assert plan is not None, "fast path missed a valid insertion"
    assert plan.pickup_position == reference.pickup_position
    assert plan.dropoff_position == reference.dropoff_position
    assert plan.delta_cost == reference.delta_cost  # identical float ops
    assert plan.delta_cost == plan.pickup_delta + plan.dropoff_delta

    fast_seq = arrange_single_rider(seq, rider).sequence
    ref_seq = reference.sequence
    assert [(s.kind, s.location, s.rider.rider_id) for s in fast_seq.stops] == [
        (s.kind, s.location, s.rider.rider_id) for s in ref_seq.stops
    ]
    # both sides run one real _recompute over identical stop lists, so every
    # derived array must be bit-for-bit equal — not just approximately
    assert fast_seq.arrive == ref_seq.arrive
    assert fast_seq.latest == ref_seq.latest
    assert fast_seq.flexible == ref_seq.flexible
    assert fast_seq.load_before == ref_seq.load_before
    assert fast_seq.leg_costs == ref_seq.leg_costs
    assert fast_seq.total_cost == ref_seq.total_cost
    assert fast_seq.is_valid()


# ----------------------------------------------------------------------
# property tests: fast path == reference
# ----------------------------------------------------------------------
class TestFastPathEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random_sweep(self, seed):
        """Exhaustive seeded sweep over schedule sizes, capacities, slacks."""
        rng = random.Random(seed)
        for case in range(60):
            capacity = rng.randint(1, 4)
            target = rng.randint(0, 12)
            slack = rng.choice([0.6, 1.0, 2.5])  # tight AND loose regimes
            seq = _grow_schedule(rng, target, capacity, slack=2.5)
            probe_slack = rng.choice([0.4, 1.0, 3.0])
            assert_fast_matches_reference(seq, _probe(rng, seq, probe_slack))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_hypothesis_equivalence(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**31), label="rng_seed"))
        capacity = data.draw(st.integers(1, 3), label="capacity")
        target = data.draw(st.integers(0, 8), label="target_stops")
        seq = _grow_schedule(rng, target, capacity, slack=2.0)
        slack = data.draw(
            st.floats(0.3, 3.0, allow_nan=False, allow_infinity=False),
            label="probe_slack",
        )
        assert_fast_matches_reference(seq, _probe(rng, seq, slack))

    def test_empty_schedule(self):
        seq = TransferSequence(origin=NODES[0], start_time=0.0, capacity=2, cost=COST)
        rng = random.Random(3)
        for _ in range(20):
            assert_fast_matches_reference(seq, _probe(rng, seq, slack=1.5))

    def test_append_only_schedule(self):
        """Tail appends (no next event: condition c not applicable)."""
        rng = random.Random(4)
        seq = _grow_schedule(rng, 6, capacity=2, slack=2.0)
        rider = _random_rider(
            rng, seq.stops[-1].location if len(seq) else seq.origin,
            seq.arrive[-1] if len(seq) else 0.0, 0, slack=4.0,
        )
        assert_fast_matches_reference(seq, rider)


# ----------------------------------------------------------------------
# Lemma 3.2 early break never skips a valid position
# ----------------------------------------------------------------------
def _valid_insertions_no_break(sequence, location, deadline, count_capacity,
                               min_position=0):
    """valid_insertions with the Lemma 3.2 ``break`` removed (brute force)."""
    cost = sequence.cost
    n = len(sequence)
    candidates = []
    for p in range(max(min_position, 0), n + 1):
        earliest_start = sequence.earliest_start(p) if p < n else (
            sequence.arrive[n - 1] if n else sequence.start_time
        )
        start_loc = sequence.origin if p == 0 else sequence.stops[p - 1].location
        to_x = cost(start_loc, location)
        if earliest_start + to_x > deadline + EPS:
            continue
        if p < n:
            end_loc = sequence.stops[p].location
            delta = to_x + cost(location, end_loc) - cost(start_loc, end_loc)
            if delta > sequence.flexible[p] + EPS:
                continue
            if count_capacity and sequence.load_before[p] + 1 > sequence.capacity:
                continue
        else:
            delta = to_x
            if count_capacity and n and sequence.load_end + 1 > sequence.capacity:
                continue
        candidates.append(InsertionCandidate(position=p, delta_cost=delta))
    return candidates


class TestLemma32EarlyBreak:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("count_capacity", [True, False])
    def test_break_skips_nothing(self, seed, count_capacity):
        rng = random.Random(seed)
        for _ in range(40):
            seq = _grow_schedule(rng, rng.randint(1, 10), rng.randint(1, 3), 2.0)
            rider = _probe(rng, seq, rng.choice([0.5, 1.5, 3.0]))
            location, deadline = (
                (rider.source, rider.pickup_deadline)
                if count_capacity
                else (rider.destination, rider.dropoff_deadline)
            )
            with_break = valid_insertions(seq, location, deadline, count_capacity)
            brute = _valid_insertions_no_break(seq, location, deadline, count_capacity)
            assert with_break == brute

    def test_earliest_starts_nondecreasing(self):
        """The monotonicity Lemma 3.2 relies on, on a random schedule."""
        rng = random.Random(9)
        seq = _grow_schedule(rng, 10, capacity=3, slack=2.0)
        starts = [seq.earliest_start(p) for p in range(len(seq))]
        assert starts == sorted(starts)


# ----------------------------------------------------------------------
# engine counters + lazy materialisation
# ----------------------------------------------------------------------
class TestEngineCounters:
    def test_plan_counts(self):
        rng = random.Random(12)
        seq = _grow_schedule(rng, 6, capacity=3, slack=2.0)
        INSERTION_STATS.reset()
        plan_insertion(seq, _probe(rng, seq, 2.0))
        assert INSERTION_STATS.plans == 1
        assert INSERTION_STATS.materializations == 0

    def test_materialisation_is_lazy_and_cached(self):
        rng = random.Random(13)
        seq = _grow_schedule(rng, 4, capacity=3, slack=2.5)
        result = None
        while result is None:
            result = arrange_single_rider(seq, _probe(rng, seq, 3.0))
        INSERTION_STATS.reset()
        first = result.sequence
        second = result.sequence
        assert first is second
        assert INSERTION_STATS.materializations == 1

    def test_solve_materialises_once_per_commit(self):
        """Scoring a pair builds no schedule; only a commit does."""
        instance = build_instance(
            grid_city(8, 8, seed=5),
            InstanceConfig(num_riders=40, num_vehicles=6, capacity=3, seed=6),
        )
        state = SolverState(instance)
        INSERTION_STATS.reset()
        committed = run_efficient_greedy(state, instance.riders)
        assert INSERTION_STATS.plans > 2 * len(committed) > 0  # pairs scored
        assert INSERTION_STATS.materializations <= len(committed)

    def test_reference_counts(self):
        rng = random.Random(14)
        seq = _grow_schedule(rng, 4, capacity=3, slack=2.5)
        INSERTION_STATS.reset()
        arrange_single_rider_reference(seq, _probe(rng, seq, 2.0))
        assert INSERTION_STATS.reference_calls == 1
        assert INSERTION_STATS.plans == 0

    def test_input_sequence_untouched(self):
        rng = random.Random(15)
        seq = _grow_schedule(rng, 6, capacity=3, slack=2.5)
        stops_before = list(seq.stops)
        arrive_before = list(seq.arrive)
        result = None
        for _ in range(50):
            result = arrange_single_rider(seq, _probe(rng, seq, 3.0))
            if result is not None:
                result.sequence
                break
        assert seq.stops == stops_before
        assert seq.arrive == arrive_before


# ----------------------------------------------------------------------
# plan-scored utility == utility of the materialised schedule
# ----------------------------------------------------------------------
#: (alpha, beta) pairs, the Eq. 1 corners included: alpha = 1, beta = 1
#: (both gamma = 0), alpha = beta = 0 (gamma = 1), and beta = 0
WEIGHTS = [(1 / 3, 1 / 3), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.4, 0.0),
           (0.5, 0.5), (0.2, 0.7)]


def _model(alpha: float, beta: float) -> UtilityModel:
    # uneven values, so a sum taken in another order differs in its last bits
    return UtilityModel(
        alpha, beta,
        vehicle_utility=lambda r, v: ((r.rider_id * 7919 + v.vehicle_id * 31) % 97) / 97,
        similarity=lambda a, b: ((a * 131 + b * 71) % 89) / 89,
        cost=COST,
    )


def _carried_schedule(rng: random.Random, onboard: int, target_stops: int,
                      capacity: int) -> TransferSequence:
    """A schedule starting with ``onboard`` riders in the car (drop-offs in
    random order), grown by insertions, some of them then committed."""
    origin = rng.choice(NODES)
    riders = [_random_rider(rng, origin, 0.0, 50 + k, slack=4.0) for k in range(onboard)]
    drops = [Stop.dropoff(r) for r in riders]
    rng.shuffle(drops)
    seq = TransferSequence(origin, 0.0, capacity, COST, stops=drops,
                           initial_onboard=riders)
    seq = _grow_schedule(rng, onboard + target_stops, capacity, 2.5, seq=seq)
    committed = [s.rider.rider_id for s in seq.stops if rng.random() < 0.3]
    return TransferSequence(origin, 0.0, capacity, COST, stops=seq.stops,
                            initial_onboard=riders, committed=committed)


def _on_route_rider(rng: random.Random, seq: TransferSequence) -> Rider:
    """A rider whose endpoints are schedule locations: zero-cost legs."""
    locations = [seq.origin] + seq.locations()
    source = rng.choice(locations)
    destination = rng.choice([n for n in locations + NODES if n != source])
    return Rider(rider_id=0, source=source, destination=destination,
                 pickup_deadline=1e6, dropoff_deadline=2e6)


def assert_plan_scored_utility_exact(model, vehicle, seq, rider) -> None:
    """``insertion_utility`` == ``schedule_utility`` of the built schedule,
    for Algorithm 1's pick and for every (pickup, drop-off) position pair:
    appends (``p == n``), adjacent stops (``q == p + 1``) and drop-offs
    after the last stop (``q == n + 1``) included."""
    result = arrange_single_rider(seq, rider)
    if result is not None:
        scored = model.insertion_utility(vehicle, seq, rider, result)
        assert scored == model.schedule_utility(vehicle, result.sequence)
    n = len(seq)
    for p in range(n + 1):
        for q in range(p + 1, n + 2):
            plan = InsertionPlan(p, q, 0.0, 0.0, 0.0)
            built = InsertionResult.deferred(seq, rider, plan).sequence
            assert inserted_leg_costs(seq, rider, plan) == built.leg_costs
            assert model.insertion_utility(vehicle, seq, rider, plan) == (
                model.schedule_utility(vehicle, built)
            ), (p, q)


class TestPlanScoredUtility:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_equals_materialised_utility(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**31), label="rng_seed"))
        capacity = data.draw(st.integers(1, 6), label="capacity")
        onboard = data.draw(st.integers(0, capacity), label="onboard")
        target = data.draw(st.integers(0, 8), label="target_stops")
        alpha, beta = data.draw(st.sampled_from(WEIGHTS), label="weights")
        seq = _carried_schedule(rng, onboard, target, capacity)
        vehicle = Vehicle(rng.randrange(40), seq.origin, capacity)
        if data.draw(st.booleans(), label="on_route"):
            rider = _on_route_rider(rng, seq)
        else:
            rider = _probe(rng, seq, data.draw(st.floats(0.5, 4.0), label="slack"))
        assert_plan_scored_utility_exact(_model(alpha, beta), vehicle, seq, rider)

    @pytest.mark.parametrize("alpha, beta", WEIGHTS)
    def test_many_riders_onboard(self, alpha, beta):
        """Six riders share legs, so the onboard sets outgrow a small set's
        eight slots and their iteration order rests on the walk's history."""
        rng = random.Random(21)
        seq = _carried_schedule(rng, onboard=5, target_stops=2, capacity=6)
        assert len(seq.initial_onboard) == 5
        vehicle = Vehicle(3, seq.origin, 6)
        for _ in range(3):
            assert_plan_scored_utility_exact(
                _model(alpha, beta), vehicle, seq, _on_route_rider(rng, seq)
            )

    def test_extended_model_scores_the_whole_sequence(self):
        """An extended model's components read the built sequence (here
        ``arrive``), so its evaluations must score the materialised one."""
        instance = build_instance(
            grid_city(6, 6, seed=4),
            InstanceConfig(num_riders=12, num_vehicles=2, capacity=3, seed=8),
        )
        model = ExtendedUtilityModel(
            0.2, 0.2, instance.vehicle_utility, instance.similarity, instance.cost,
            components=[UtilityComponent("punctual", 0.4, punctuality_component(2.0))],
        )
        state = SolverState(instance, model=model)
        scored = 0
        for rider in instance.riders:
            for vehicle in instance.vehicles:
                evaluation = state.evaluate(rider, vehicle)
                if evaluation is None:
                    continue
                built = evaluation.insertion.sequence
                assert evaluation.new_utility == model.schedule_utility(vehicle, built)
                assert evaluation.delta_utility == (
                    evaluation.new_utility - state.utility(vehicle.vehicle_id)
                )
                scored += 1
                state.commit(evaluation)
                assert state.utility(vehicle.vehicle_id) == model.schedule_utility(
                    vehicle, state.schedule(vehicle.vehicle_id)
                )
                break
        assert scored >= 4
