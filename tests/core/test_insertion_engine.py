"""Zero-copy insertion engine vs the reference implementation.

The fast path (:func:`plan_insertion` / :func:`arrange_single_rider`)
evaluates candidate pairs analytically against the existing event arrays;
:func:`arrange_single_rider_reference` is the original copy-and-recompute
Algorithm 1 kept as the executable specification.  These tests pin them
together **exactly** — same positions, same delta cost, identical arrays of
the materialised sequence — on randomized schedules, and guard the Lemma
3.2 early break of :func:`valid_insertions` against a no-break brute force.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.insertion import (
    InsertionCandidate,
    arrange_single_rider,
    arrange_single_rider_reference,
    plan_insertion,
    valid_insertions,
)
from repro.core.requests import Rider
from repro.core.schedule import Stop, TransferSequence
from repro.perf import INSERTION_STATS
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle

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
                   slack: float) -> TransferSequence:
    """Grow a schedule via the *reference* path (never assumes the fast one)."""
    origin = rng.choice(NODES)
    seq = TransferSequence(origin=origin, start_time=0.0, capacity=capacity, cost=COST)
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
