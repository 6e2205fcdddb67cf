"""DIMACS 9th-challenge road-network file IO.

The paper's real networks come from the 9th DIMACS implementation challenge
(``.gr`` graph files with ``a <u> <v> <cost>`` arc lines, ``.co`` coordinate
files with ``v <id> <lon> <lat>`` lines).  These readers let real files drop
straight into the reproduction when available; the writers make it easy to
persist generated networks in the same format.

Parsing is strict: the ``p sp <n> <m>`` problem line is required, must come
before any arc, and is verified against the parsed node/edge counts, and any
line whose type marker is not ``c``/``p``/``a`` (``v`` for ``.co`` files)
raises.  A truncated or corrupted file therefore fails loudly instead of
yielding a silently wrong graph.  Byte-order marks and CRLF line endings
(both common in redistributed DIMACS archives) are tolerated.

DIMACS node ids are 1-based; we keep them as-is (the solvers do not care).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Set, Union

from repro.roadnet.graph import RoadNetwork

PathLike = Union[str, Path]


def read_dimacs(
    gr_path: PathLike, co_path: Optional[PathLike] = None, undirected: bool = False
) -> RoadNetwork:
    """Read a DIMACS ``.gr`` file (and optional ``.co`` coordinates).

    Parameters
    ----------
    gr_path:
        Graph file with one ``p sp <nodes> <arcs>`` problem line and
        ``a u v cost`` arc lines.
    co_path:
        Optional coordinate file with ``v id x y`` lines.
    undirected:
        DIMACS road graphs list both directions explicitly, so the default
        treats the file as directed.  With ``True`` every arc line sets
        both directions to its cost, so where the file gives the two
        directions different costs the later line wins for both.

    Raises
    ------
    ValueError
        On unknown line types, a missing/duplicate/malformed problem line,
        arcs appearing before the problem line, or a header whose declared
        node/arc counts disagree with the file contents.
    """
    net = RoadNetwork(undirected=undirected)
    declared_nodes: Optional[int] = None
    declared_arcs: Optional[int] = None
    arc_lines = 0
    seen_nodes: Set[int] = set()
    # utf-8-sig strips a leading BOM; .strip() tolerates CRLF endings
    with open(gr_path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            kind = line.split(maxsplit=1)[0]
            if kind == "c":
                continue
            if kind == "p":
                parts = line.split()
                if len(parts) != 4 or parts[1] != "sp":
                    raise ValueError(
                        f"{gr_path}:{lineno}: malformed problem line: {raw!r}"
                    )
                if declared_nodes is not None:
                    raise ValueError(
                        f"{gr_path}:{lineno}: duplicate problem line: {raw!r}"
                    )
                declared_nodes = int(parts[2])
                declared_arcs = int(parts[3])
            elif kind == "a":
                if declared_nodes is None:
                    raise ValueError(
                        f"{gr_path}:{lineno}: arc before the "
                        f"'p sp <n> <m>' problem line"
                    )
                parts = line.split()
                if len(parts) != 4:
                    raise ValueError(
                        f"{gr_path}:{lineno}: malformed arc line: {raw!r}"
                    )
                _, u, v, cost = parts
                u_id, v_id = int(u), int(v)
                arc_lines += 1
                seen_nodes.add(u_id)
                seen_nodes.add(v_id)
                if u_id == v_id:
                    continue  # DIMACS files occasionally contain self loops
                net.add_edge(u_id, v_id, float(cost))
            else:
                raise ValueError(
                    f"{gr_path}:{lineno}: unknown line type {kind!r}: {raw!r}"
                )
    if declared_nodes is None:
        raise ValueError(f"{gr_path}: missing 'p sp <n> <m>' problem line")
    if arc_lines != declared_arcs:
        raise ValueError(
            f"{gr_path}: problem line declares {declared_arcs} arc(s) but "
            f"the file contains {arc_lines} (truncated or corrupted file?)"
        )
    if len(seen_nodes) > declared_nodes:
        raise ValueError(
            f"{gr_path}: arcs reference {len(seen_nodes)} distinct node(s) "
            f"but the problem line declares only {declared_nodes}"
        )
    if co_path is not None:
        _read_coordinates(net, co_path)
    return net


def _read_coordinates(net: RoadNetwork, co_path: PathLike) -> None:
    """Strictly parse a ``.co`` coordinate file into ``net.coordinates``.

    The ``p aux sp co <n>`` header is optional (early DIMACS tools omitted
    it) but, when present, is verified against the coordinate-line count.
    """
    declared: Optional[int] = None
    v_lines = 0
    with open(co_path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            kind = line.split(maxsplit=1)[0]
            if kind == "c":
                continue
            if kind == "p":
                parts = line.split()
                if len(parts) != 5 or parts[1:4] != ["aux", "sp", "co"]:
                    raise ValueError(
                        f"{co_path}:{lineno}: malformed problem line: {raw!r}"
                    )
                if declared is not None:
                    raise ValueError(
                        f"{co_path}:{lineno}: duplicate problem line: {raw!r}"
                    )
                declared = int(parts[4])
            elif kind == "v":
                parts = line.split()
                if len(parts) != 4:
                    raise ValueError(
                        f"{co_path}:{lineno}: malformed coordinate line: "
                        f"{raw!r}"
                    )
                _, node, x, y = parts
                v_lines += 1
                node_id = int(node)
                if node_id in net:
                    net.coordinates[node_id] = (float(x), float(y))
            else:
                raise ValueError(
                    f"{co_path}:{lineno}: unknown line type {kind!r}: {raw!r}"
                )
    if declared is not None and v_lines != declared:
        raise ValueError(
            f"{co_path}: problem line declares {declared} coordinate(s) but "
            f"the file contains {v_lines}"
        )


def write_dimacs(
    network: RoadNetwork, gr_path: PathLike, co_path: Optional[PathLike] = None,
    comment: str = "generated by repro",
) -> None:
    """Write a network in DIMACS format.

    Costs are written as integers scaled by 1000 (DIMACS uses integer costs);
    :func:`read_dimacs` consumers should divide by 1000 to recover minutes,
    or simply treat the unit as milliminutes — shortest paths are invariant
    under positive scaling.
    """
    with open(gr_path, "w") as fh:
        fh.write(f"c {comment}\n")
        fh.write(f"p sp {network.num_nodes} {network.num_edges}\n")
        for u, v, cost in network.edges():
            fh.write(f"a {u} {v} {max(1, round(cost * 1000))}\n")
    if co_path is not None:
        with open(co_path, "w") as fh:
            fh.write(f"c {comment}\n")
            fh.write(f"p aux sp co {network.num_nodes}\n")
            for node in network.nodes():
                x, y = network.coordinates.get(node, (0.0, 0.0))
                fh.write(f"v {node} {x:.6f} {y:.6f}\n")
