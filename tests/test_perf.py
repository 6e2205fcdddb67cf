"""Tests for repro.perf and its wiring into oracle, solver and dispatcher."""

import pytest

from repro.core.scoring import SolverState
from repro.core.solver import BASELINE_TIER, solve_anytime
from repro.perf import (
    INSERTION_STATS,
    ORACLE_STATS,
    REGISTRY,
    WATCHDOG_STATS,
    PerfReport,
)
from repro.roadnet.oracle import DistanceOracle

#: every family's ``as_dict`` keys, derived values included: traces,
#: ``repro.obs summary`` and the benchmark read them by these names
AS_DICT_KEYS = {
    "insertion": {"plans", "pairs_evaluated", "materializations",
                  "reference_calls"},
    "validation": {"assignments", "schedules", "stops", "violations"},
    "watchdog": {"frames", "fallbacks", "budget_exceeded", "tier_uses"},
    "candidates": {"retrievals", "pairs_considered", "pairs_pruned_spatial",
                   "pairs_pruned_temporal", "pruned_in_error",
                   "pairs_pruned", "candidates_returned", "mean_candidates"},
    "shards": {"frames_sharded", "shards_solved", "riders_sharded",
               "vehicles_sharded", "boundary_riders", "reconciled_riders"},
    "workload": {"trips_generated", "dest_cache_hits", "dest_cache_misses",
                 "dest_cache_evictions", "unreachable_sources",
                 "skipped_missing_transition", "skipped_missing_duration"},
    "oracle": {"mode", "nodes", "query_count", "dijkstra_count",
               "bidirectional_count", "pair_cache_hits", "pair_cache_size",
               "source_cache_hits", "source_cache_size", "row_cache_size",
               "pinned_sources", "fast_path", "epoch", "ch_query_count",
               "ch_space_searches",
               "tier", "batch_rows", "batch_fallbacks", "landmark_rows",
               "nodes_recontracted", "searches",
               "hit_rate"},
}

FAMILIES = REGISTRY + (ORACLE_STATS,)


def _changed(value):
    """A gauge value different from ``value``, of the same type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "x"
    return value + 7


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_family_contract(family):
    """snapshot / delta / reset / as_dict / load, once per family."""
    assert set(AS_DICT_KEYS) == {f.name for f in FAMILIES}
    live = family.snapshot()  # a private copy: the global stays untouched
    live.reset()
    empty = live.as_dict()
    assert set(empty) == AS_DICT_KEYS[family.name]
    for key in live.per_key:
        getattr(live, key)["old"] = 1
    before = live.snapshot()
    before_dict = before.as_dict()

    for step, key in enumerate(live.counters, start=1):
        setattr(live, key, getattr(live, key) + step)
    for key in live.per_key:
        getattr(live, key)["new"] = 2
    for key, value in live.gauges.items():
        setattr(live, key, _changed(value))

    # the snapshot is independent of later increments (dicts included)
    assert before.as_dict() == before_dict
    delta = live.delta(before)
    for step, key in enumerate(live.counters, start=1):
        assert getattr(delta, key) == step, key
    for key in live.per_key:
        assert getattr(delta, key) == {"new": 2}  # zero keys dropped
    for key, value in live.gauges.items():
        assert getattr(delta, key) == _changed(value), key
    delta_dict = delta.as_dict()
    assert set(delta_dict) == AS_DICT_KEYS[family.name]
    for key in live.derived:
        assert getattr(delta, key) == delta_dict[key], key

    values = {key: delta_dict[key] for key in family.keys()}
    assert family.load(values).as_dict() == delta_dict
    with pytest.raises(KeyError):
        family.load({**values, "renamed": 0})

    live.reset()
    assert live.as_dict() == empty


class TestOracleStats:
    def test_from_oracle_apsp(self, small_grid):
        oracle = DistanceOracle(small_grid)
        oracle.cost(0, 7)
        stats = PerfReport.capture(oracle).oracle
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
        stats = PerfReport.capture(oracle).oracle
        assert stats.mode == "lru"
        assert stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_no_queries(self, small_grid):
        oracle = DistanceOracle(small_grid)
        assert PerfReport.capture(oracle).oracle.hit_rate == 0.0

    def test_hit_rate_counts_dijkstras_as_misses(self, small_grid):
        """A Dijkstra-serving LRU oracle pays a search per point query
        here, so its hit rate is 0, not ~1."""
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        oracle.costs_from(0)  # one full Dijkstra
        oracle.cost(0, 7)     # served from the source cache
        stats = PerfReport.capture(oracle).oracle
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
        stats = PerfReport.capture(oracle).oracle
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
        assert PerfReport.capture(oracle).oracle.hit_rate == 0.0

    def test_hit_rate_apsp_mode(self, small_grid):
        """In APSP mode every query after the build is a table read: the
        build's Dijkstras are precomputation, not per-query misses."""
        oracle = DistanceOracle(small_grid)
        oracle.cost(0, 7)  # triggers the build (25 batched rows)
        oracle.cost(3, 9)
        stats = PerfReport.capture(oracle).oracle
        assert stats.mode == "apsp"
        assert stats.batch_rows == len(small_grid)
        assert stats.dijkstra_count == stats.batch_fallbacks
        assert stats.searches == len(small_grid)
        assert stats.hit_rate == 1.0

    def test_delta(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        oracle.cost(0, 7)
        before = PerfReport.capture(oracle)
        oracle.cost(3, 9)
        oracle.cost(3, 9)
        delta = PerfReport.capture(oracle).since(before).oracle
        assert delta.query_count == 2
        assert delta.bidirectional_count == 1
        assert delta.pair_cache_hits == 1
        assert delta.dijkstra_count == 0
        assert delta.searches == 1
        assert delta.hit_rate == pytest.approx(0.5)
        # non-monotonic fields reflect the later state, not a difference
        assert delta.mode == "lru"
        assert delta.nodes == len(small_grid)

    def test_as_dict_includes_derived(self, small_grid):
        # repro.obs summary reads these from the frame.perf payload
        oracle = DistanceOracle(small_grid)
        oracle.cost(0, 7)
        data = PerfReport.capture(oracle).oracle.as_dict()
        assert "searches" in data and "hit_rate" in data


class TestWatchdogStats:
    """``solve_anytime`` records every guarded solve in WATCHDOG_STATS."""

    @staticmethod
    def _reject_eg(assignment):
        return "rejected" if assignment.solver_name == "eg" else None

    def test_record_tier_accounting(self, line_instance):
        before = WATCHDOG_STATS.snapshot()
        solve_anytime(line_instance, method="eg")
        solve_anytime(line_instance, method="eg", fallbacks=("cf",),
                      accept=self._reject_eg)
        solve_anytime(line_instance, method="eg", budget=0.0)
        stats = WATCHDOG_STATS.delta(before)
        assert stats.frames == 3
        assert stats.fallbacks == 2  # every tier below the configured one
        assert stats.budget_exceeded == 1
        assert stats.tier_uses == {"eg": 1, "cf": 1, BASELINE_TIER: 1}

    def test_record_primary_tier_is_not_a_fallback(self, line_instance):
        before = WATCHDOG_STATS.snapshot()
        solve_anytime(line_instance, method="eg")
        solve_anytime(line_instance, method="eg")
        stats = WATCHDOG_STATS.delta(before)
        assert stats.fallbacks == 0
        assert stats.tier_uses == {"eg": 2}

    def test_delta_drops_zero_tiers(self):
        stats = WATCHDOG_STATS.snapshot()
        stats.reset()
        stats.frames += 1
        stats.tier_uses["eg"] = 1
        before = stats.snapshot()
        stats.frames += 1
        stats.fallbacks += 1
        stats.budget_exceeded += 1
        stats.tier_uses["cf"] = 1
        delta = stats.delta(before)
        assert delta.frames == 1
        assert delta.fallbacks == 1
        assert delta.budget_exceeded == 1
        # 'eg' saw no new uses in the interval: absent, not 0
        assert delta.tier_uses == {"cf": 1}

    def test_delta_of_identical_snapshots_is_empty(self):
        stats = WATCHDOG_STATS.snapshot()
        stats.tier_uses["eg"] = stats.tier_uses.get("eg", 0) + 1
        delta = stats.snapshot().delta(stats.snapshot())
        assert delta.frames == 0 and delta.tier_uses == {}


class TestReport:
    def test_since_isolates_an_interval(self, small_grid):
        oracle = DistanceOracle(small_grid, apsp_threshold=0)
        oracle.cost(0, 7)  # pre-interval work
        INSERTION_STATS.plans += 5
        before = PerfReport.capture(oracle)
        oracle.cost(3, 9)
        INSERTION_STATS.plans += 2
        after = PerfReport.capture(oracle)
        rep = after.since(before)
        assert isinstance(rep, PerfReport)
        assert rep.oracle.query_count == 1
        assert rep.insertion.plans == 2
        INSERTION_STATS.plans -= 7  # undo the synthetic bumps

    def test_report_without_oracle(self):
        snap = PerfReport.capture()
        assert snap.oracle is None
        assert snap.since(snap).oracle is None
        assert snap.as_dict()["oracle"] is None
        assert snap.since(snap).insertion.plans == 0

    def test_report_with_oracle(self, small_grid):
        oracle = DistanceOracle(small_grid)
        oracle.cost(0, 3)
        rep = PerfReport.capture(oracle)
        assert rep.oracle.query_count == 1
        # an oracle captured only at the end is reported cumulatively
        assert rep.since(PerfReport.capture()).oracle.query_count == 1
        assert set(rep.as_dict()) == set(AS_DICT_KEYS)


class TestWiring:
    def test_solver_state(self, line_instance):
        state = SolverState(line_instance)
        rider = line_instance.riders[0]
        vehicle = line_instance.vehicles[0]
        before = INSERTION_STATS.snapshot()
        plan = state.plan(rider, vehicle)
        assert plan is not None
        assert plan.delta_cost >= 0.0
        stats = INSERTION_STATS.delta(before)
        assert stats.plans == 1
        assert stats.materializations == 0  # probe stays zero-copy

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
