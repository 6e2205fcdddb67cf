"""The array-backed mu_v table against the eager reference builders.

``synthetic_vehicle_utilities`` draws each frame's preferences as two
arrays and the dispatcher layers its pinned rows over them by
reference; :mod:`repro.check.utilities` keeps the per-pair dict
construction this replaced.  Every read the solvers, the serializer and
the shard slicer make must agree with it, and the generator must be left
in the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.utilities import (
    eager_frame_utilities,
    eager_pinned_rows,
    eager_shard_utilities,
    eager_vehicle_utilities,
)
from repro.core.instance import URRInstance
from repro.core import shards
from repro.core.vehicles import Vehicle
from repro.workload.instances import (
    InstanceConfig,
    VehicleUtilityTable,
    build_instance,
    synthetic_vehicle_utilities,
)
from tests.conftest import make_rider


def subset_of(draw, pool, max_size=None):
    """A unique sub-list of ``pool`` (empty when ``pool`` is)."""
    if not pool:
        return []
    return draw(st.lists(st.sampled_from(pool), max_size=max_size, unique=True))


@st.composite
def frames(draw):
    """One frame's inputs: a batch, a fleet, and pinned rows.

    Pinned rows name riders in the batch (carried riders are re-offered
    with their pinned row), riders outside it (onboard / committed), and
    vehicles a breakdown has since removed from the fleet.
    """
    rider_ids = draw(st.lists(st.integers(0, 40), max_size=7, unique=True))
    fleet_ids = draw(st.lists(st.integers(0, 12), max_size=6, unique=True))
    gone_ids = draw(st.lists(st.integers(13, 16), max_size=2, unique=True))
    outside = draw(st.lists(st.integers(41, 50), max_size=3, unique=True))
    values = st.floats(0.0, 1.0, allow_nan=False)
    pinned = {}
    for rid in subset_of(draw, rider_ids + outside, max_size=5):
        vids = subset_of(draw, fleet_ids + gone_ids)
        pinned[rid] = {vid: draw(values) for vid in vids}
    riders = [make_rider(rid, source=0, destination=1) for rid in rider_ids]
    fleet = [Vehicle(vid, 0, 2) for vid in fleet_ids]
    seed = draw(st.integers(0, 2**32 - 1))
    return riders, fleet, pinned, seed, gone_ids + outside


def table_and_oracle(riders, fleet, pinned, seed, synthetic=True):
    if synthetic:
        table_rng = np.random.default_rng(seed)
        base = synthetic_vehicle_utilities(riders, fleet, table_rng)
        oracle_rng = np.random.default_rng(seed)
    else:
        table_rng = oracle_rng = None
        base = VehicleUtilityTable(
            (), [v.vehicle_id for v in fleet], np.empty((0, len(fleet)))
        )
    table = base.layered(pinned)
    oracle = eager_frame_utilities(riders, fleet, pinned, oracle_rng)
    return table, oracle, table_rng, oracle_rng


def assert_same_mapping(table, oracle, probes=()):
    assert len(table) == len(oracle)
    # same pairs in the same (insertion) order, same values
    assert list(table.items()) == list(oracle.items())
    assert list(table) == list(oracle)
    assert table == oracle and oracle == table
    for key, value in oracle.items():
        assert table[key] == value
        assert table.get(key) == value
        assert key in table
    for key in probes:
        if key in oracle:
            continue
        assert key not in table
        assert table.get(key) is None
        assert table.get(key, 0.5) == 0.5
        with pytest.raises(KeyError):
            table[key]


def probe_keys(riders, fleet, extra_ids):
    rids = [r.rider_id for r in riders] + list(extra_ids) + [99]
    vids = [v.vehicle_id for v in fleet] + list(extra_ids) + [99]
    return [(rid, vid) for rid in rids for vid in vids]


class TestTableMatchesEagerBuilder:
    @settings(max_examples=150, deadline=None)
    @given(frames(), st.booleans())
    def test_mapping_protocol_agrees(self, frame, synthetic):
        riders, fleet, pinned, seed, extra = frame
        table, oracle, _, _ = table_and_oracle(
            riders, fleet, pinned, seed, synthetic
        )
        assert_same_mapping(table, oracle, probe_keys(riders, fleet, extra))

    @settings(max_examples=60, deadline=None)
    @given(frames())
    def test_generator_state_after_draw(self, frame):
        riders, fleet, pinned, seed, _ = frame
        _, _, table_rng, oracle_rng = table_and_oracle(
            riders, fleet, pinned, seed
        )
        assert (
            table_rng.bit_generator.state == oracle_rng.bit_generator.state
        )
        # and the stream continues identically
        assert table_rng.random(4).tolist() == oracle_rng.random(4).tolist()

    @pytest.mark.parametrize("seed", range(20))
    def test_city_scale_draw_is_bit_identical(self, seed):
        riders = [make_rider(i, source=0, destination=1) for i in range(40)]
        fleet = [Vehicle(j, 0, 2) for j in range(60)]
        table = synthetic_vehicle_utilities(
            riders, fleet, np.random.default_rng(seed)
        )
        oracle = eager_vehicle_utilities(
            riders, fleet, np.random.default_rng(seed)
        )
        assert list(table.items()) == list(oracle.items())

    @settings(max_examples=60, deadline=None)
    @given(frames())
    def test_row_matches_eager_pinning(self, frame):
        riders, fleet, pinned, seed, _ = frame
        table, oracle, _, _ = table_and_oracle(riders, fleet, pinned, seed)
        fleet_ids = [v.vehicle_id for v in fleet]
        live = {r.rider_id for r in riders} | set(pinned)
        expected = eager_pinned_rows(live, pinned, oracle, fleet_ids)
        got = {
            rid: pinned[rid] if rid in pinned else table.row(rid)
            for rid in sorted(live)
        }
        assert got == expected
        for rid in got:
            assert list(got[rid].items()) == list(expected[rid].items())

    def test_instance_builder_uses_the_table(self, small_grid):
        instance = build_instance(
            small_grid, InstanceConfig(num_riders=6, num_vehicles=3, seed=2)
        )
        assert isinstance(instance.vehicle_utilities, VehicleUtilityTable)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            VehicleUtilityTable([0, 1], [0], np.zeros((1, 1)))


class TestShardView:
    @settings(max_examples=100, deadline=None)
    @given(frames(), st.data())
    def test_view_equals_filtered_copy(self, frame, data):
        riders, fleet, pinned, seed, extra = frame
        table, oracle, _, _ = table_and_oracle(riders, fleet, pinned, seed)
        all_vids = [v.vehicle_id for v in fleet] + extra
        subset = subset_of(data.draw, all_vids)
        view = table.restrict(subset)
        expected = eager_shard_utilities(oracle, subset)
        assert_same_mapping(view, expected, probe_keys(riders, fleet, extra))
        # a view of a view narrows further
        narrower = subset[: len(subset) // 2]
        assert view.restrict(narrower) == eager_shard_utilities(
            oracle, narrower
        )

    def test_view_slices_own_columns_and_shares_overlay(self):
        riders = [make_rider(i, source=0, destination=1) for i in range(5)]
        fleet = [Vehicle(j, 0, 2) for j in range(8)]
        pinned = {
            0: {j: 0.25 for j in range(8)},  # a carried rider's row
            70: {j: 0.75 for j in range(10)},  # onboard, incl. removed 8, 9
        }
        table = synthetic_vehicle_utilities(
            riders, fleet, np.random.default_rng(3)
        ).layered(pinned)
        view = table.restrict([1, 6, 9])
        assert view._values.shape == (5, 2)  # vehicles 1 and 6
        assert view[(0, 6)] == 0.25 and view[(70, 9)] == 0.75
        assert (70, 2) not in view
        # the live view shares the dispatcher's rows, it does not copy
        assert view._overlay is pinned

    def test_solve_sharded_hands_out_the_view(self, small_grid, monkeypatch):
        class TwoShards:
            """Nodes below 3 form shard 0, the rest shard 1."""

            shard_count = 2

            @staticmethod
            def shard_of(node):
                return 0 if node < 3 else 1

        riders = [
            make_rider(i, source=4 if i < 2 else 0, destination=1)
            for i in range(4)
        ]
        fleet = [Vehicle(j, j, 2) for j in range(6)]
        pinned = {2: {0: 0.1, 5: 0.9}, 30: {3: 0.4}}
        table = synthetic_vehicle_utilities(
            riders, fleet, np.random.default_rng(11)
        ).layered(pinned)
        oracle = eager_frame_utilities(
            riders, fleet, pinned, np.random.default_rng(11)
        )
        solved = []
        real_solve = shards.solve

        def recording_solve(instance, **kwargs):
            solved.append(instance)
            return real_solve(instance, **kwargs)

        monkeypatch.setattr(shards, "solve", recording_solve)
        for utilities in (table, dict(oracle)):
            # a plain-dict instance is wrapped, not special-cased
            instance = URRInstance(
                network=small_grid, riders=riders, vehicles=fleet,
                vehicle_utilities=utilities,
            )
            solved.clear()
            shards.solve_sharded(instance, TwoShards(), "eg")
            assert [
                [v.vehicle_id for v in sub.vehicles] for sub in solved
            ] == [[0, 1, 2], [3, 4, 5]]
            for sub, vids in zip(solved, ([0, 1, 2], [3, 4, 5])):
                assert isinstance(sub.vehicle_utilities, VehicleUtilityTable)
                assert sub.vehicle_utilities == eager_shard_utilities(
                    oracle, vids
                )
