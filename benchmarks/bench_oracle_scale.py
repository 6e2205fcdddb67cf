#!/usr/bin/env python
"""Oracle-scale benchmark: tiered point-to-point queries at DIMACS scale.

Generates a city-scale grid network (>= 100k nodes), round-trips it
through the DIMACS exchange format (``write_dimacs`` -> strict
``read_dimacs``), and compares point-to-point ``cost(u, v)`` latency on
the imported network across the :class:`repro.roadnet.oracle.DistanceOracle`
tiers:

- ``tier 1`` — Contraction Hierarchy queries (exact, bit-identical to
  Dijkstra) with the pair LRU on top;
- ``tier 2`` — the LRU/bidirectional-Dijkstra fallback that city-scale
  networks would otherwise be stuck with (the flat APSP table of tier 0
  needs ``n^2`` floats and is out of reach at this size).

Every timed query uses a fresh node pair, so the pair LRU never serves a
measured query and the numbers reflect the underlying search, not cache
policy.  A correctness leg pins sampled tier-1 answers bit-for-bit
against plain Dijkstra and tier-2 answers to within float tolerance.

A batched-pinning leg warms sampled sources on the tier-1 oracle, which
fills their rows with the batched many-source pass (PHAST, exact
re-accumulation, verification), then re-solves every row with plain
Dijkstra: it reports both timings and exits non-zero on any bit mismatch,
in ``--smoke`` runs too.

A repeated-endpoint leg queries every pair of 20 sources × 50 targets
whose upward search spaces the tier-1 hierarchy has not cached yet,
source by source, as a dispatch stream does with recurring pickups and
vehicle positions.  It reports the p50 of the first queries (those that
searched a space) and of the cached ones (those that searched nothing),
and exits non-zero if any answer differs from plain Dijkstra run from
the pair's smaller node id, in ``--smoke`` runs too.

A metric-change leg then does what a disruption does mid-run: it
lengthens 8 arcs by 1.5x and closes 3 roads (the ``ops_chaos``
perturbation and closure) and invalidates the tier-1 oracle, which
rebuilds inside ``invalidate()`` (the partial contraction from the
outgoing hierarchy's record, which re-runs only the witness searches the
change can reach, plus the landmark rows' re-fill); that call is timed.
It then times three contractions of the changed network: a fresh one, a
full one in the kept order, and the partial one from the outgoing
record.  It reports how many nodes the partial rebuild re-contracted,
and exits non-zero if either partial hierarchy differs in structure from
the kept-order one or any sampled answer differs from Dijkstra, in
``--smoke`` runs too.

The headline gate is the tiering claim: tier-1 p50 query latency must
beat tier-2 by >= 10x on the imported network.  Preprocessing is
reported, not gated — the CH build is a one-off cost the dispatcher
amortizes over a whole horizon, and a mid-run metric change rebuilds
from the record.

Usage::

    PYTHONPATH=src python benchmarks/bench_oracle_scale.py
    PYTHONPATH=src python benchmarks/bench_oracle_scale.py --smoke

Writes machine-readable results to ``BENCH_oracle_scale.json`` at the
repo root (override with ``--out``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.obs import start_trace, stop_trace
from repro.obs import trace as _trace
from repro.roadnet.contraction import ContractionHierarchy
from repro.roadnet.generators import grid_city
from repro.roadnet.io import read_dimacs, write_dimacs
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import dijkstra

INF = float("inf")


def _import_network(rows: int, cols: int, seed: int) -> Tuple[object, dict]:
    """Generate, export to DIMACS, and strictly re-import the network."""
    t0 = time.perf_counter()
    generated = grid_city(
        rows, cols, seed=seed, removal_fraction=0.0, arterial_every=None
    )
    generate_s = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "city.gr"
        t0 = time.perf_counter()
        write_dimacs(generated, path)
        write_s = time.perf_counter() - t0
        size_bytes = path.stat().st_size
        t0 = time.perf_counter()
        network = read_dimacs(path, undirected=True)
        read_s = time.perf_counter() - t0
    if network.num_nodes != generated.num_nodes:
        raise AssertionError(
            f"DIMACS round-trip changed the node count: "
            f"{generated.num_nodes} -> {network.num_nodes}"
        )
    meta = {
        "generator": "grid_city",
        "rows": rows,
        "cols": cols,
        "seed": seed,
        "nodes": network.num_nodes,
        "directed_arcs": network.num_edges,
        "generate_s": round(generate_s, 3),
        "dimacs_write_s": round(write_s, 3),
        "dimacs_read_s": round(read_s, 3),
        "dimacs_bytes": size_bytes,
    }
    return network, meta


def _query_pairs(
    rng: np.random.Generator, nodes: List[int], count: int
) -> List[Tuple[int, int]]:
    """Distinct-endpoint pairs; every measured query is cache-cold."""
    pairs: List[Tuple[int, int]] = []
    seen = set()
    while len(pairs) < count:
        u = int(nodes[int(rng.integers(len(nodes)))])
        v = int(nodes[int(rng.integers(len(nodes)))])
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        pairs.append((u, v))
    return pairs


def _stats(times: List[float], costs: List[float]) -> Dict[str, object]:
    arr = np.array(times)
    return {
        "queries": len(times),
        "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 4),
        "p90_ms": round(float(np.percentile(arr, 90)) * 1e3, 4),
        "mean_ms": round(float(arr.mean()) * 1e3, 4),
        "total_s": round(float(arr.sum()), 3),
        "costs": costs,
    }


def _time_tiers_interleaved(
    tier1: DistanceOracle,
    pairs1: List[Tuple[int, int]],
    tier2: DistanceOracle,
    pairs2: List[Tuple[int, int]],
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Time both tiers round-robin rather than back to back.

    The headline is a *ratio* of p50s; on a shared machine, minutes-apart
    measurement windows can see different CPU conditions and skew the two
    medians in opposite directions.  Interleaving pins both tiers to the
    same conditions so drift cancels out of the ratio.
    """
    times1: List[float] = []
    costs1: List[float] = []
    times2: List[float] = []
    costs2: List[float] = []
    stride = max(1, len(pairs1) // len(pairs2))
    i1 = 0
    for u, v in pairs2:
        for _ in range(stride):
            if i1 < len(pairs1):
                a, b = pairs1[i1]
                i1 += 1
                t0 = time.perf_counter()
                costs1.append(tier1.cost(a, b))
                times1.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        costs2.append(tier2.cost(u, v))
        times2.append(time.perf_counter() - t0)
    while i1 < len(pairs1):
        a, b = pairs1[i1]
        i1 += 1
        t0 = time.perf_counter()
        costs1.append(tier1.cost(a, b))
        times1.append(time.perf_counter() - t0)
    return _stats(times1, costs1), _stats(times2, costs2)


def _check_exactness(
    network,
    tier1: DistanceOracle,
    rng: np.random.Generator,
    num_sources: int,
    dsts_per_source: int,
) -> int:
    """Pin sampled tier-1 answers bit-for-bit against plain Dijkstra."""
    nodes = sorted(network.nodes())
    checked = 0
    for _ in range(num_sources):
        src = int(nodes[int(rng.integers(len(nodes)))])
        truth = dijkstra(network, src)
        for _ in range(dsts_per_source):
            dst = int(nodes[int(rng.integers(len(nodes)))])
            expected = truth.get(dst, INF)
            got = tier1.cost(src, dst)
            if got != expected and not (
                math.isinf(got) and math.isinf(expected)
            ):
                raise AssertionError(
                    f"tier-1 cost({src}, {dst}) = {got!r} diverges from "
                    f"Dijkstra {expected!r}"
                )
            checked += 1
    return checked


def _repeated_endpoints(
    network,
    tier1: DistanceOracle,
    rng: np.random.Generator,
    num_sources: int,
    num_targets: int,
) -> dict:
    """Time every source × target query over nodes with no cached upward
    space, split into first and cached queries, and check each answer
    bit-for-bit against Dijkstra from the pair's smaller id (the oracle
    answers every pair in that direction)."""
    cached = tier1._ensure_ch()._spaces
    fresh = [int(n) for n in rng.permutation(sorted(network.nodes()))
             if int(n) not in cached]
    sources = fresh[:num_sources]
    targets = fresh[num_sources:num_sources + num_targets]
    searches = tier1.ch_space_searches
    first: List[float] = []
    again: List[float] = []
    by_low: Dict[int, List[Tuple[int, float]]] = {}
    for s in sources:
        for t in targets:
            t0 = time.perf_counter()
            d = tier1.cost(s, t)
            elapsed = time.perf_counter() - t0
            if tier1.ch_space_searches > searches:
                searches = tier1.ch_space_searches
                first.append(elapsed)
            else:
                again.append(elapsed)
            by_low.setdefault(min(s, t), []).append((max(s, t), d))
    mismatched = 0
    for low, answers in by_low.items():
        truth = dijkstra(network, low)
        mismatched += sum(truth.get(high, INF) != d for high, d in answers)
    return {
        "sources": len(sources),
        "targets": len(targets),
        "first_queries": len(first),
        "first_p50_ms": round(float(np.percentile(first, 50)) * 1e3, 4),
        "cached_queries": len(again),
        "cached_p50_ms": round(float(np.percentile(again, 50)) * 1e3, 4),
        "mismatched": mismatched,
    }


def _structural_differences(
    a: ContractionHierarchy, b: ContractionHierarchy
) -> List[str]:
    """The parts of two hierarchies that differ: ranks, shortcut count,
    search graph, shortcut middles."""
    parts = {
        "rank": (a.rank, b.rank),
        "num_shortcuts": (a.num_shortcuts, b.num_shortcuts),
        "graph": (a._graph, b._graph),
        "middle": (a._middle, b._middle),
    }
    return [name for name, (x, y) in parts.items() if x != y]


def _metric_change(
    network,
    tier1: DistanceOracle,
    rng: np.random.Generator,
    exact_sources: int,
    exact_dsts: int,
) -> dict:
    """Lengthen 8 arcs and close 3 roads on a tier-1 oracle; time the
    oracle's own rebuild (inside ``invalidate()``) and a fresh, a
    kept-order and a partial contraction, compare the partial
    hierarchies with the kept-order one, and check fresh answers
    against Dijkstra."""
    nodes = sorted(network.nodes())
    tier1.unpin()  # the pinning leg's rows would be re-filled, untimed here
    edges = sorted(
        (u, v) for u in nodes for v in network.adjacency[u] if u < v
    )
    picks = [edges[int(i)] for i in rng.choice(len(edges), size=11, replace=False)]
    for u, v in picks[:8]:
        for a, b in ((u, v), (v, u)):
            cost = network.adjacency[a][b] * 1.5
            network.adjacency[a][b] = cost
            network.reverse_adjacency[b][a] = cost
    for u, v in picks[8:]:
        network.remove_edge(u, v)
        network.remove_edge(v, u)
    # what the oracle's rebuild starts from: the outgoing record
    record = tier1._record
    with _trace.span("bench.oracle.contract", order="oracle"):
        t0 = time.perf_counter()
        tier1.invalidate()  # the oracle's own rebuild, landmark rows included
        invalidate_s = time.perf_counter() - t0
    timed: Dict[str, float] = {}

    def contract(name: str, **kwargs) -> ContractionHierarchy:
        with _trace.span("bench.oracle.contract", order=name):
            t0 = time.perf_counter()
            hierarchy = ContractionHierarchy(network, **kwargs)
            timed[name] = time.perf_counter() - t0
        print(f"  {name} contraction: {timed[name]:.2f}s", flush=True)
        return hierarchy

    fresh_shortcuts = contract("fresh").num_shortcuts
    reference = contract("kept", order=record.order)
    partial = contract("partial", record=record)
    differences = _structural_differences(partial, reference)
    differences += _structural_differences(tier1._ch, reference)
    if tier1._ch.rank != {node: i for i, node in enumerate(record.order)}:
        raise AssertionError("the rebuild did not keep the contraction order")
    checked = _check_exactness(network, tier1, rng, exact_sources, exact_dsts)
    return {
        "lengthened_arcs": 8,
        "closed_roads": 3,
        "changed_arcs": len(record.changed_arcs(network)),
        "invalidate_s": round(invalidate_s, 3),
        "fresh_contraction_s": round(timed["fresh"], 2),
        "fresh_shortcuts": fresh_shortcuts,
        "kept_order_contraction_s": round(timed["kept"], 2),
        "kept_order_shortcuts": reference.num_shortcuts,
        "speedup": round(timed["fresh"] / max(timed["kept"], 1e-9), 2),
        "partial_contraction_s": round(timed["partial"], 2),
        "nodes_recontracted": partial.recontracted,
        "partial_speedup": round(timed["kept"] / max(timed["partial"], 1e-9), 2),
        "structural_differences": differences,
        "exact_checked": checked,
    }


def _batched_pinning(
    network, tier1: DistanceOracle, rng: np.random.Generator, num_sources: int
) -> dict:
    """Pin sampled sources through the batched pass; compare every row
    bit-for-bit with a fresh Dijkstra and time both."""
    nodes = sorted(network.nodes())
    picks = sorted(
        {int(nodes[int(i)]) for i in rng.integers(len(nodes), size=num_sources)}
    )
    before = tier1.stats()
    t0 = time.perf_counter()
    tier1.warm(picks)
    batched_s = time.perf_counter() - t0
    after = tier1.stats()
    block = tier1.pinned_block()
    dijkstra_s = 0.0
    mismatches = 0
    for source in picks:
        t0 = time.perf_counter()
        truth = dijkstra(network, source)
        dijkstra_s += time.perf_counter() - t0
        expect = np.full(len(nodes), INF)
        expect[tier1.columns(truth.keys())] = list(truth.values())
        mismatches += int(np.count_nonzero(block[tier1.pinned_row(source)] != expect))
    return {
        "sources": len(picks),
        "batched_s": round(batched_s, 3),
        "dijkstra_s": round(dijkstra_s, 3),
        "speedup": round(dijkstra_s / max(batched_s, 1e-9), 1),
        "fallbacks": after["batch_fallbacks"] - before["batch_fallbacks"],
        "mismatched_cells": mismatches,
    }


def bench(
    seed: int,
    rows: int,
    cols: int,
    tier1_pairs: int,
    tier2_pairs: int,
    exact_sources: int,
    exact_dsts: int,
    pin_sources: int,
) -> dict:
    network, net_meta = _import_network(rows, cols, seed)
    nodes = sorted(network.nodes())
    print(
        f"imported {net_meta['nodes']} nodes / "
        f"{net_meta['directed_arcs']} arcs from DIMACS "
        f"({net_meta['dimacs_bytes'] / 1e6:.1f} MB, "
        f"read {net_meta['dimacs_read_s']}s)",
        flush=True,
    )

    auto_tier = DistanceOracle(network).tier

    tier1 = DistanceOracle(network, tier=1)
    with _trace.span("bench.oracle.build", tier=1):
        t0 = time.perf_counter()
        tier1.cost(nodes[0], nodes[-1])  # force the CH build, untimed below
        build_s = time.perf_counter() - t0
    print(f"tier-1 CH build: {build_s:.1f}s", flush=True)

    tier2 = DistanceOracle(network, tier=2)

    rng = np.random.default_rng(seed)
    # tier 2 pays a full bidirectional search per fresh pair, so it gets
    # a smaller (but still p50-stable) sample than tier 1
    pairs1 = _query_pairs(rng, nodes, tier1_pairs)
    pairs2 = _query_pairs(rng, nodes, tier2_pairs)

    with _trace.span("bench.oracle.queries", interleaved=True):
        run1, run2 = _time_tiers_interleaved(tier1, pairs1, tier2, pairs2)
    print(
        f"tier 1: p50 {run1['p50_ms']} ms, p90 {run1['p90_ms']} ms "
        f"over {run1['queries']} fresh pairs",
        flush=True,
    )
    print(
        f"tier 2: p50 {run2['p50_ms']} ms, p90 {run2['p90_ms']} ms "
        f"over {run2['queries']} fresh pairs",
        flush=True,
    )

    # the two tiers must agree on the overlapping sample: tier 1 is
    # bit-identical to Dijkstra, tier 2 within float tolerance of it
    overlap = min(len(pairs1), len(pairs2))
    for (u, v), c2 in zip(pairs2[:overlap], run2["costs"][:overlap]):
        c1 = tier1.cost(u, v)
        if math.isinf(c1) and math.isinf(c2):
            continue
        if abs(c1 - c2) > 1e-6 * max(1.0, abs(c1)):
            raise AssertionError(
                f"tiers disagree on cost({u}, {v}): tier1={c1!r} "
                f"tier2={c2!r}"
            )
    exact_checked = _check_exactness(
        network, tier1, rng, exact_sources, exact_dsts
    )
    print(
        f"correctness: {exact_checked} tier-1 answers bit-identical to "
        f"Dijkstra, {overlap} tier-2 answers within tolerance",
        flush=True,
    )

    with _trace.span("bench.oracle.pinning", sources=pin_sources):
        pinning = _batched_pinning(network, tier1, rng, pin_sources)
    print(
        f"batched pinning: {pinning['sources']} rows in "
        f"{pinning['batched_s']}s vs {pinning['dijkstra_s']}s of Dijkstra "
        f"({pinning['fallbacks']} fallbacks, "
        f"{pinning['mismatched_cells']} mismatched cells)",
        flush=True,
    )

    with _trace.span("bench.oracle.repeated_endpoints"):
        repeated = _repeated_endpoints(network, tier1, rng, 20, 50)
    print(
        f"repeated endpoints: first queries p50 {repeated['first_p50_ms']} ms "
        f"({repeated['first_queries']}), cached p50 "
        f"{repeated['cached_p50_ms']} ms ({repeated['cached_queries']}), "
        f"{repeated['mismatched']} differ from Dijkstra",
        flush=True,
    )

    ch_shortcuts = tier1._ch.num_shortcuts
    with _trace.span("bench.oracle.metric_change"):
        change = _metric_change(network, tier1, rng, exact_sources, exact_dsts)
    print(
        f"metric change: invalidate() with its rebuild {change['invalidate_s']}s, "
        f"fresh contraction {change['fresh_contraction_s']}s, "
        f"kept order {change['kept_order_contraction_s']}s "
        f"({change['speedup']}x), partial {change['partial_contraction_s']}s "
        f"({change['partial_speedup']}x over kept order, "
        f"{change['nodes_recontracted']} of {len(nodes)} nodes re-contracted, "
        f"structural differences: {change['structural_differences'] or 'none'})",
        flush=True,
    )

    run1.pop("costs")
    run2.pop("costs")
    speedup = round(run2["p50_ms"] / max(run1["p50_ms"], 1e-9), 1)
    return {
        "network": net_meta,
        "auto_selected_tier": auto_tier,
        "tier1": {
            "build_s": round(build_s, 2),
            "ch_shortcuts": ch_shortcuts,
            **run1,
        },
        "tier2": run2,
        "exact_checked": exact_checked,
        "batched_pinning": pinning,
        "repeated_endpoints": repeated,
        "metric_change": change,
        "p50_speedup": speedup,
    }


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid and few queries (CI wiring check; gate not enforced)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_oracle_scale.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="record a JSONL trace of the run (inspect with "
             "'python -m repro.obs summary PATH')",
    )
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)

    if args.smoke:
        rows = cols = 20
        tier1_pairs, tier2_pairs = 50, 10
        exact_sources, exact_dsts = 2, 10
        pin_sources = 60
    else:
        rows = cols = 320          # 102,400 nodes — past the paper's 100k bar
        tier1_pairs, tier2_pairs = 200, 40
        exact_sources, exact_dsts = 3, 12
        pin_sources = 16

    if args.trace:
        start_trace(
            args.trace,
            meta={
                "tool": "bench_oracle_scale",
                "seed": args.seed,
                "smoke": args.smoke,
            },
        )
    with _trace.span("bench.oracle", seed=args.seed, smoke=args.smoke):
        result = bench(
            args.seed, rows, cols, tier1_pairs, tier2_pairs,
            exact_sources, exact_dsts, pin_sources,
        )
    if args.trace:
        stop_trace()
        print(f"trace written to {args.trace}")

    speedup = result["p50_speedup"]
    report = {
        "benchmark": "oracle_scale",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "config": {
            "smoke": args.smoke,
            "seed": args.seed,
            "tier1_pairs": tier1_pairs,
            "tier2_pairs": tier2_pairs,
            "pin_sources": pin_sources,
        },
        **result,
        "headline": {
            "metric": (
                f"p50 point-to-point query latency on a DIMACS import of "
                f"{result['network']['nodes']} nodes, tier 1 (CH) vs "
                f"tier 2 (LRU/bidirectional Dijkstra)"
            ),
            "speedup": speedup,
            "speedup_threshold": 10.0,
            "pass": bool(speedup >= 10.0),
        },
    }

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"headline: {speedup}x tier-1 p50 speedup on "
        f"{result['network']['nodes']} nodes "
        f"(threshold >=10x; pass={report['headline']['pass']})"
    )
    print(f"wrote {args.out}")
    if result["repeated_endpoints"]["mismatched"]:
        print("FAIL: repeated-endpoint answers differ from Dijkstra")
        return 1
    if result["batched_pinning"]["mismatched_cells"]:
        print("FAIL: batched pinned rows differ from Dijkstra")
        return 1
    if result["metric_change"]["structural_differences"]:
        print("FAIL: the partial rebuild differs from the kept-order contraction")
        return 1
    if not args.smoke and not report["headline"]["pass"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
