#!/usr/bin/env python3
"""Graph500 BFS through Mimir (the paper's map-only iterative workload).

Generates a Kronecker (R-MAT) graph with the Graph500 parameters, runs
the two-phase BFS (graph partitioning, then level-synchronous
traversal) across 8 simulated ranks, and cross-checks the result
against networkx.

Run:  python examples/bfs_graph500.py
"""

import networkx as nx

from repro.apps.bfs import bfs_plan
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets import edges_to_bytes, kronecker_edges
from repro.mpi import COMET

SCALE = 10       # 2**10 = 1024 vertices
EDGEFACTOR = 16  # average degree


def main():
    edges = kronecker_edges(SCALE, EDGEFACTOR, seed=1)
    cluster = Cluster(COMET, nprocs=8, memory_limit=None)
    cluster.pfs.store("input/edges.bin", edges_to_bytes(edges))

    config = MimirConfig(page_size="32K", comm_buffer_size="32K")
    result = cluster.run(
        lambda env: bfs_plan(env, "input/edges.bin", config,
                             hint=True, compress=True))

    root = result.returns[0].root
    visited = sum(r.visited_local for r in result.returns)
    levels = result.returns[0].levels

    print(f"Kronecker graph: scale {SCALE} "
          f"({1 << SCALE} vertices, {len(edges)} edges)")
    print(f"BFS from vertex {root}: visited {visited} vertices "
          f"in {levels} level(s)")
    print(f"peak node memory : {result.node_peak_bytes} bytes")
    print(f"virtual job time : {result.elapsed:.3f} s")

    # Ground truth.
    graph = nx.Graph(e for e in edges.tolist() if e[0] != e[1])
    reachable = len(nx.node_connected_component(graph, root))
    print(f"\nnetworkx reachable component: {reachable} vertices "
          f"({'MATCH' if reachable == visited else 'MISMATCH'})")
    assert reachable == visited


if __name__ == "__main__":
    main()
