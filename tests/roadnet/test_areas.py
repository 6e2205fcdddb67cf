"""Unit tests for repro.roadnet.areas (Algorithm 4)."""

import pytest

from repro.roadnet.areas import Area, build_areas
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle


class TestArea:
    def test_center_is_member(self):
        area = Area(center=5)
        assert 5 in area
        assert len(area) == 1

    def test_membership(self):
        area = Area(center=1, members={1, 2, 3})
        assert 2 in area
        assert 9 not in area


class TestBuildAreas:
    def test_every_node_assigned(self, small_grid):
        index = build_areas(small_grid, k=3)
        for node in small_grid.nodes():
            area = index.area_of(node)
            assert node in area

    def test_explicit_cover(self, line_network):
        index = build_areas(line_network, k=3, cover=[0, 4])
        assert index.num_areas == 2
        assert index.center_of(1) == 0
        assert index.center_of(3) == 4

    def test_center_of_center_is_itself(self, small_grid):
        index = build_areas(small_grid, k=3)
        for center in index.centers:
            assert index.center_of(center) == center
            assert index.distance_to_center(center) == 0.0

    def test_members_partition_nodes(self, small_grid):
        index = build_areas(small_grid, k=3)
        seen = set()
        for area in index.areas:
            overlap = seen & area.members
            assert not overlap, f"areas overlap on {overlap}"
            seen |= area.members
        assert seen == set(small_grid.nodes())

    def test_attachment_is_nearest_center(self, line_network):
        index = build_areas(line_network, k=2, cover=[0, 4])
        oracle = DistanceOracle(line_network)
        for node in line_network.nodes():
            assigned = index.center_of(node)
            best = min(index.centers, key=lambda c: oracle.cost(c, node))
            assert oracle.cost(assigned, node) == pytest.approx(
                oracle.cost(best, node)
            )

    def test_radius(self, line_network):
        index = build_areas(line_network, k=2, cover=[0, 4])
        assert index.radius == pytest.approx(2.0)  # node 2 is 2 from node 0

    def test_unreachable_node_becomes_singleton(self):
        net = RoadNetwork()
        net.add_edge(0, 1, 1.0)
        net.add_node(9)
        index = build_areas(net, k=2, cover=[0])
        assert index.center_of(9) == 9
        assert index.distance_to_center(9) == 0.0

    def test_cover_not_in_network_rejected(self, line_network):
        with pytest.raises(ValueError, match="not in network"):
            build_areas(line_network, k=2, cover=[99])

    def test_empty_cover_rejected(self, line_network):
        with pytest.raises(ValueError, match=r"at least one key vertex \(k=2\)"):
            build_areas(line_network, k=2, cover=[])

    def test_unknown_mode_rejected(self, line_network):
        with pytest.raises(ValueError, match="mode"):
            build_areas(line_network, k=2, mode="bogus")

    def test_modes_both_produce_partitions(self, small_grid):
        for mode in ("shortest", "all"):
            index = build_areas(small_grid, k=3, mode=mode)
            total = sum(len(a) for a in index.areas)
            assert total == small_grid.num_nodes

    def test_shortest_mode_fewer_or_equal_areas(self, small_grid):
        spc = build_areas(small_grid, k=3, mode="shortest")
        apc = build_areas(small_grid, k=3, mode="all")
        assert spc.num_areas <= apc.num_areas


class TestAreaIndexEdgeCases:
    """Edge cases the candidate index leans on (see repro.core.candidates)."""

    def test_empty_area_never_materializes(self, small_grid):
        # every area produced by build_areas has at least its center;
        # the candidate index may hold *buckets* with zero vehicles, but
        # the partition itself never yields an empty area
        index = build_areas(small_grid, k=3)
        for area in index.areas:
            assert len(area) >= 1
            assert area.center in area

    def test_island_component_self_owns(self):
        # nodes unreachable from any area seed become singleton areas
        # whose center is themselves, so center_of() stays total
        net = RoadNetwork()
        for i in range(4):
            net.add_edge(i, i + 1, 1.0)
        net.add_edge(10, 11, 1.0)
        index = build_areas(net, k=2, cover=[0])
        for island in (10, 11):
            assert index.center_of(island) == island
            assert index.distance_to_center(island) == 0.0
        members = set()
        for area in index.areas:
            members |= area.members
        assert members == set(net.nodes())

    def test_straddling_edge_endpoints_stay_consistent(self, small_grid):
        # a vehicle mid-edge is anchored at one endpoint; when the edge
        # straddles two areas, each endpoint must resolve to its own
        # area's center with a finite distance bound
        index = build_areas(small_grid, k=4)
        oracle = DistanceOracle(small_grid)
        straddlers = [
            (u, v)
            for u, v, _cost in small_grid.edges()
            if index.center_of(u) != index.center_of(v)
        ]
        assert straddlers, "k=4 on a 5x5 grid must produce boundary edges"
        for u, v in straddlers:
            for node in (u, v):
                center = index.center_of(node)
                assert node in index.area_of(node)
                assert index.distance_to_center(node) == pytest.approx(
                    oracle.cost(center, node)
                )

    def test_single_node_network(self):
        net = RoadNetwork()
        net.add_node(7)
        index = build_areas(net, k=1)
        assert index.num_areas == 1
        assert index.center_of(7) == 7

    def test_unknown_node_raises(self, small_grid):
        index = build_areas(small_grid, k=3)
        with pytest.raises(KeyError):
            index.center_of(10_000)
