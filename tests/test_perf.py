"""Tests for repro.perf and its wiring into oracle, solver state, instance,
and dispatcher."""

import pytest

from repro.core.scoring import SolverState
from repro.perf import (
    INSERTION_STATS,
    InsertionStats,
    OracleStats,
    PerfReport,
    PerfSnapshot,
    ValidationStats,
    WatchdogStats,
    report,
    reset_insertion_stats,
)
from repro.roadnet.oracle import DistanceOracle


class TestInsertionStats:
    def test_reset(self):
        stats = InsertionStats(plans=3, pairs_evaluated=40, materializations=1,
                               reference_calls=2)
        stats.reset()
        assert stats.as_dict() == {
            "plans": 0,
            "pairs_evaluated": 0,
            "materializations": 0,
            "reference_calls": 0,
        }

    def test_snapshot_is_independent(self):
        reset_insertion_stats()
        INSERTION_STATS.plans = 5
        snap = INSERTION_STATS.snapshot()
        INSERTION_STATS.plans = 9
        assert snap.plans == 5
        reset_insertion_stats()


class TestOracleStats:
    def test_from_oracle_apsp(self, small_grid):
        oracle = DistanceOracle(small_grid)
        oracle.cost(0, 7)
        stats = OracleStats.from_oracle(oracle)
        assert stats.mode == "apsp"
        assert stats.query_count == 1
        assert stats.hit_rate == 1.0
        # the table is filled by the batched pass; fallbacks count once
        assert stats.searches == (
            stats.dijkstra_count + stats.batch_rows - stats.batch_fallbacks
        )

    def test_hit_rate_lru(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0, cache_sources=0)
        oracle.cost(0, 7)
        oracle.cost(0, 7)
        stats = OracleStats.from_oracle(oracle)
        assert stats.mode == "lru"
        assert stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_no_queries(self, small_grid):
        oracle = DistanceOracle(small_grid)
        assert OracleStats.from_oracle(oracle).hit_rate == 0.0

    def test_hit_rate_counts_dijkstras_as_misses(self, small_grid):
        """Regression: hit_rate only subtracted bidirectional searches, so
        a Dijkstra-serving LRU oracle reported ~1.0 even when every
        point query had just paid a full single-source run."""
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        oracle.costs_from(0)  # one full Dijkstra
        oracle.cost(0, 7)     # served from the source cache
        stats = OracleStats.from_oracle(oracle)
        assert stats.mode == "lru"
        assert stats.dijkstra_count == 1 and stats.bidirectional_count == 0
        # 1 query, 1 search: nothing was answered for free
        assert stats.hit_rate == 0.0

    def test_hit_rate_mixed_search_kinds(self, small_grid):
        """Both search kinds count as misses; cache-served repeats as hits."""
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        oracle.costs_from(0)
        oracle.cost(0, 7)   # source-cache hit, but pays for the Dijkstra
        oracle.cost(3, 9)   # bidirectional search (miss)
        oracle.cost(3, 9)   # pair-cache hit
        oracle.cost(0, 12)  # source-cache hit
        stats = OracleStats.from_oracle(oracle)
        assert stats.searches == 2
        # 4 counted queries, 2 searches -> half answered without graph work
        assert stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_clamped_at_zero(self, small_grid):
        """costs_from-heavy phases can run more Dijkstras than counted
        point queries; the rate clamps rather than going negative."""
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        oracle.costs_from(0)
        oracle.costs_from(1)
        oracle.cost(0, 7)
        assert OracleStats.from_oracle(oracle).hit_rate == 0.0

    def test_hit_rate_apsp_mode(self, small_grid):
        """In APSP mode every query after the build is a table read: the
        build's Dijkstras are precomputation, not per-query misses."""
        oracle = DistanceOracle(small_grid)
        oracle.cost(0, 7)  # triggers the build (25 batched rows)
        oracle.cost(3, 9)
        stats = OracleStats.from_oracle(oracle)
        assert stats.mode == "apsp"
        assert stats.batch_rows == len(small_grid)
        assert stats.dijkstra_count == stats.batch_fallbacks
        assert stats.searches == len(small_grid)
        assert stats.hit_rate == 1.0

    def test_delta(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        oracle.cost(0, 7)
        before = OracleStats.from_oracle(oracle)
        oracle.cost(3, 9)
        oracle.cost(3, 9)
        delta = OracleStats.from_oracle(oracle).delta(before)
        assert delta.query_count == 2
        assert delta.bidirectional_count == 1
        assert delta.pair_cache_hits == 1
        assert delta.dijkstra_count == 0
        # non-monotonic fields reflect the later state, not a difference
        assert delta.mode == "lru"
        assert delta.nodes == len(small_grid)

    def test_as_dict_includes_derived(self, small_grid):
        oracle = DistanceOracle(small_grid)
        oracle.cost(0, 7)
        data = OracleStats.from_oracle(oracle).as_dict()
        assert "searches" in data and "hit_rate" in data


class TestWatchdogStats:
    def test_record_tier_accounting(self):
        stats = WatchdogStats()
        stats.record("eg", 0, False)
        stats.record("cf", 1, False)
        stats.record("cf", 1, True)
        stats.record("baseline", 2, True)
        assert stats.frames == 4
        assert stats.fallbacks == 3  # every tier_index > 0
        assert stats.budget_exceeded == 2
        assert stats.tier_uses == {"eg": 1, "cf": 2, "baseline": 1}

    def test_record_primary_tier_is_not_a_fallback(self):
        stats = WatchdogStats()
        stats.record("eg", 0, False)
        stats.record("eg", 0, False)
        assert stats.fallbacks == 0
        assert stats.tier_uses == {"eg": 2}

    def test_delta_drops_zero_tiers(self):
        stats = WatchdogStats()
        stats.record("eg", 0, False)
        before = stats.snapshot()
        stats.record("cf", 1, True)
        delta = stats.delta(before)
        assert delta.frames == 1
        assert delta.fallbacks == 1
        assert delta.budget_exceeded == 1
        # 'eg' saw no new uses in the interval: absent, not 0
        assert delta.tier_uses == {"cf": 1}

    def test_delta_of_identical_snapshots_is_empty(self):
        stats = WatchdogStats()
        stats.record("eg", 0, False)
        delta = stats.snapshot().delta(stats.snapshot())
        assert delta.frames == 0 and delta.tier_uses == {}


class TestDeltas:
    def test_insertion_delta(self):
        before = InsertionStats(plans=3, pairs_evaluated=40,
                                materializations=1, reference_calls=0)
        after = InsertionStats(plans=10, pairs_evaluated=100,
                               materializations=4, reference_calls=2)
        delta = after.delta(before)
        assert delta.as_dict() == {
            "plans": 7,
            "pairs_evaluated": 60,
            "materializations": 3,
            "reference_calls": 2,
        }

    def test_validation_delta(self):
        before = ValidationStats(assignments=1, schedules=4, stops=20,
                                 violations=0)
        after = ValidationStats(assignments=3, schedules=9, stops=55,
                                violations=2)
        delta = after.delta(before)
        assert (delta.assignments, delta.schedules,
                delta.stops, delta.violations) == (2, 5, 35, 2)


class TestPerfSnapshot:
    def test_since_isolates_an_interval(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        oracle.cost(0, 7)  # pre-interval work
        INSERTION_STATS.plans += 5
        before = PerfSnapshot.capture(oracle)
        oracle.cost(3, 9)
        INSERTION_STATS.plans += 2
        after = PerfSnapshot.capture(oracle)
        rep = after.since(before)
        assert isinstance(rep, PerfReport)
        assert rep.oracle.query_count == 1
        assert rep.insertion.plans == 2
        INSERTION_STATS.plans -= 7  # undo the synthetic bumps

    def test_capture_without_oracle(self):
        snap = PerfSnapshot.capture()
        assert snap.oracle is None
        assert snap.since(snap).oracle is None


class TestReport:
    def test_report_without_oracle(self):
        reset_insertion_stats()
        rep = report()
        assert rep.oracle is None
        assert rep.as_dict()["oracle"] is None
        assert rep.insertion.plans == 0

    def test_report_with_oracle(self, small_grid):
        oracle = DistanceOracle(small_grid)
        oracle.cost(0, 3)
        rep = report(oracle)
        assert isinstance(rep, PerfReport)
        assert rep.oracle.query_count == 1


class TestWiring:
    def test_solver_state(self, line_instance):
        state = SolverState(line_instance)
        rider = line_instance.riders[0]
        vehicle = line_instance.vehicles[0]
        reset_insertion_stats()
        plan = state.plan(rider, vehicle)
        assert plan is not None
        assert plan.delta_cost >= 0.0
        rep = state.perf_report()
        assert rep.oracle is not None
        assert rep.insertion.plans == 1
        assert rep.insertion.materializations == 0  # probe stays zero-copy

    def test_instance_report(self, line_instance):
        rep = line_instance.perf_report()
        assert rep.oracle.nodes == 5

    def test_dispatcher_report(self, line_instance, line_network):
        from repro.core.dispatch import Dispatcher
        from repro.core.vehicles import Vehicle

        dispatcher = Dispatcher(
            network=line_network,
            fleet=[Vehicle(vehicle_id=0, location=0, capacity=2)],
        )
        dispatcher.dispatch_frame(line_instance.riders)
        rep = dispatcher.perf_report()
        assert rep.oracle is not None
        # solvers go through fast_cost_fn (uncounted reads by design), but
        # the APSP build itself is counted as Dijkstra work
        assert rep.oracle.searches > 0
        assert rep.insertion.plans > 0


class TestShardAccounting:
    """Per-frame deltas must still partition the run when frames are
    split into shards: every shard solve ticks the counters inside its
    frame's snapshot bracket, so ``sum(frame deltas) == run total``.
    """

    @staticmethod
    def _requests(frame):
        from tests.conftest import make_rider

        start = frame * 10.0
        base = frame * 10
        specs = [(1, 18), (6, 22), (23, 2), (15, 9)]
        return [
            make_rider(base + i, source=src, destination=dst,
                       pickup_deadline=start + 15.0,
                       dropoff_deadline=start + 60.0)
            for i, (src, dst) in enumerate(specs)
        ]

    def _dispatcher(self, small_grid):
        from repro.core.dispatch import Dispatcher
        from repro.core.vehicles import Vehicle

        fleet = [
            Vehicle(vehicle_id=i, location=loc, capacity=2)
            for i, loc in enumerate([0, 4, 20, 24])
        ]
        return Dispatcher(
            small_grid, fleet, method="eg", frame_length=10.0, seed=3,
            shard_workers=1, shard_count=4,
        )

    def test_sharded_frame_deltas_partition_the_run(self, small_grid):
        dispatcher = self._dispatcher(small_grid)
        try:
            r1 = dispatcher.dispatch_frame(self._requests(0))
            r2 = dispatcher.dispatch_frame(self._requests(1))
            total = dispatcher.perf_report()
        finally:
            dispatcher.close()
        assert r1.perf.insertion.plans > 0
        assert (
            r1.perf.insertion.plans + r2.perf.insertion.plans
            == total.insertion.plans
        )
        for name in ("query_count", "dijkstra_count", "bidirectional_count",
                     "pair_cache_hits", "source_cache_hits"):
            assert (
                getattr(r1.perf.oracle, name) + getattr(r2.perf.oracle, name)
                == getattr(total.oracle, name)
            ), name
        for name in ("frames_sharded", "shards_solved", "riders_sharded",
                     "vehicles_sharded", "boundary_riders",
                     "reconciled_riders"):
            assert (
                getattr(r1.perf.shards, name) + getattr(r2.perf.shards, name)
                == getattr(total.shards, name)
            ), name
        assert total.shards.frames_sharded == 2
        assert total.shards.shards_solved >= 2
