"""Unit tests for repro.roadnet.io (DIMACS format)."""

import math

import pytest

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.io import read_dimacs, write_dimacs
from repro.roadnet.oracle import DistanceOracle


@pytest.fixture
def sample_gr(tmp_path):
    path = tmp_path / "net.gr"
    path.write_text(
        "c sample network\n"
        "p sp 3 4\n"
        "a 1 2 100\n"
        "a 2 1 100\n"
        "a 2 3 250\n"
        "a 3 2 250\n"
    )
    return path


@pytest.fixture
def sample_co(tmp_path):
    path = tmp_path / "net.co"
    path.write_text(
        "c coordinates\n"
        "p aux sp co 3\n"
        "v 1 -74.0 40.7\n"
        "v 2 -74.1 40.8\n"
        "v 3 -74.2 40.9\n"
    )
    return path


class TestRead:
    def test_reads_arcs(self, sample_gr):
        net = read_dimacs(sample_gr)
        assert net.num_nodes == 3
        assert net.edge_cost(1, 2) == pytest.approx(100.0)
        assert net.edge_cost(2, 3) == pytest.approx(250.0)

    def test_reads_coordinates(self, sample_gr, sample_co):
        net = read_dimacs(sample_gr, sample_co)
        assert net.position(1) == (-74.0, 40.7)

    def test_skips_comments_and_problem_lines(self, sample_gr):
        net = read_dimacs(sample_gr)
        assert 0 not in net  # nothing spurious from 'p sp 3 4'

    def test_self_loops_skipped(self, tmp_path):
        path = tmp_path / "loop.gr"
        path.write_text("p sp 2 2\na 1 1 5\na 1 2 7\n")
        net = read_dimacs(path)
        assert not net.has_edge(1, 1)
        assert net.has_edge(1, 2)

    def test_malformed_arc_raises(self, tmp_path):
        path = tmp_path / "bad.gr"
        path.write_text("p sp 2 1\na 1 2\n")
        with pytest.raises(ValueError, match="malformed arc"):
            read_dimacs(path)

    def test_malformed_coordinate_raises(self, sample_gr, tmp_path):
        co = tmp_path / "bad.co"
        co.write_text("v 1 2\n")
        with pytest.raises(ValueError, match="malformed coordinate"):
            read_dimacs(sample_gr, co)

    def test_undirected_option_mirrors(self, tmp_path):
        path = tmp_path / "oneway.gr"
        path.write_text("p sp 2 1\na 1 2 10\n")
        net = read_dimacs(path, undirected=True)
        assert net.has_edge(2, 1)

    def test_undirected_option_keeps_one_cost_per_edge(self, tmp_path):
        # the two directions disagree: the later arc line sets both
        path = tmp_path / "asymmetric.gr"
        path.write_text("p sp 2 2\na 1 2 10\na 2 1 4\n")
        net = read_dimacs(path, undirected=True)
        assert net.edge_cost(1, 2) == net.edge_cost(2, 1) == 4.0


class TestStrictParsing:
    """Regression tests: truncated/corrupted files must fail loudly."""

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "headerless.gr"
        path.write_text("a 1 2 10\n")
        with pytest.raises(ValueError, match="problem line"):
            read_dimacs(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.gr"
        path.write_text("")
        with pytest.raises(ValueError, match="missing 'p sp"):
            read_dimacs(path)

    def test_unknown_line_type_raises(self, tmp_path):
        path = tmp_path / "junk.gr"
        path.write_text("p sp 2 1\nq garbage\na 1 2 10\n")
        with pytest.raises(ValueError, match="unknown line type 'q'"):
            read_dimacs(path)

    def test_whitespace_prefixed_arc_still_parsed(self, tmp_path):
        # previously ' a ...' fell through the startswith dispatch and was
        # dropped silently; stripping must recover it (and count it)
        path = tmp_path / "ws.gr"
        path.write_text("p sp 2 1\n  a 1 2 10\n")
        net = read_dimacs(path)
        assert net.has_edge(1, 2)

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "trunc.gr"
        path.write_text("p sp 3 4\na 1 2 10\na 2 3 10\n")
        with pytest.raises(ValueError, match="declares 4 arc"):
            read_dimacs(path)

    def test_extra_arcs_raise(self, tmp_path):
        path = tmp_path / "extra.gr"
        path.write_text("p sp 2 1\na 1 2 10\na 2 1 10\n")
        with pytest.raises(ValueError, match="declares 1 arc"):
            read_dimacs(path)

    def test_node_count_exceeded_raises(self, tmp_path):
        path = tmp_path / "nodes.gr"
        path.write_text("p sp 2 2\na 1 2 10\na 3 4 10\n")
        with pytest.raises(ValueError, match="declares only 2"):
            read_dimacs(path)

    def test_duplicate_header_raises(self, tmp_path):
        path = tmp_path / "dup.gr"
        path.write_text("p sp 2 1\np sp 2 1\na 1 2 10\n")
        with pytest.raises(ValueError, match="duplicate problem line"):
            read_dimacs(path)

    def test_malformed_header_raises(self, tmp_path):
        path = tmp_path / "badp.gr"
        path.write_text("p max 2 1\na 1 2 10\n")
        with pytest.raises(ValueError, match="malformed problem line"):
            read_dimacs(path)

    def test_arc_before_header_raises(self, tmp_path):
        path = tmp_path / "order.gr"
        path.write_text("a 1 2 10\np sp 2 1\n")
        with pytest.raises(ValueError, match="arc before"):
            read_dimacs(path)

    def test_crlf_and_bom_tolerated(self, tmp_path):
        path = tmp_path / "dos.gr"
        path.write_bytes(
            b"\xef\xbb\xbfc dos file\r\np sp 2 2\r\na 1 2 10\r\na 2 1 10\r\n"
        )
        net = read_dimacs(path)
        assert net.has_edge(1, 2)
        assert net.has_edge(2, 1)

    def test_coordinate_count_mismatch_raises(self, sample_gr, tmp_path):
        co = tmp_path / "short.co"
        co.write_text("p aux sp co 3\nv 1 -74.0 40.7\n")
        with pytest.raises(ValueError, match="declares 3 coordinate"):
            read_dimacs(sample_gr, co)

    def test_coordinate_unknown_line_raises(self, sample_gr, tmp_path):
        co = tmp_path / "junk.co"
        co.write_text("x 1 2 3\n")
        with pytest.raises(ValueError, match="unknown line type 'x'"):
            read_dimacs(sample_gr, co)

    def test_headerless_coordinates_accepted(self, sample_gr, tmp_path):
        # early DIMACS tools omitted the aux header; stay compatible
        co = tmp_path / "old.co"
        co.write_text("v 1 -74.0 40.7\n")
        net = read_dimacs(sample_gr, co)
        assert net.position(1) == (-74.0, 40.7)


class TestRoundTrip:
    def test_write_read_preserves_topology(self, small_grid, tmp_path):
        gr = tmp_path / "grid.gr"
        co = tmp_path / "grid.co"
        write_dimacs(small_grid, gr, co)
        loaded = read_dimacs(gr, co)
        assert loaded.num_nodes == small_grid.num_nodes
        assert loaded.num_edges == small_grid.num_edges

    def test_write_read_preserves_distances_scaled(self, small_grid, tmp_path):
        """Costs are written x1000; shortest paths scale linearly."""
        gr = tmp_path / "grid.gr"
        write_dimacs(small_grid, gr)
        loaded = read_dimacs(gr)
        orig = DistanceOracle(small_grid)
        new = DistanceOracle(loaded, apsp_threshold=0)
        nodes = sorted(small_grid.nodes())
        for u, v in [(nodes[0], nodes[-1]), (nodes[2], nodes[5])]:
            assert new.cost(u, v) == pytest.approx(orig.cost(u, v) * 1000, rel=2e-3)

    def test_coordinates_roundtrip(self, small_grid, tmp_path):
        gr = tmp_path / "g.gr"
        co = tmp_path / "g.co"
        write_dimacs(small_grid, gr, co)
        loaded = read_dimacs(gr, co)
        node = next(iter(small_grid.nodes()))
        assert loaded.position(node) == pytest.approx(small_grid.position(node))

    def test_undirected_roundtrip_readable(self, small_grid, tmp_path):
        """write_dimacs emits both directions; strict read must accept the
        declared count (num_edges counts directed arcs)."""
        gr = tmp_path / "u.gr"
        write_dimacs(small_grid, gr)
        loaded = read_dimacs(gr, undirected=True)
        assert loaded.num_nodes == small_grid.num_nodes
