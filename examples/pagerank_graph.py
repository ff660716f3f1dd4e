#!/usr/bin/env python3
"""PageRank over a Kronecker web graph, verified against networkx.

Iterative MapReduce with control-plane allreduces (dangling mass,
convergence detection) - the shape of most scientific iterative
analytics on top of Mimir.

Run:  python examples/pagerank_graph.py
"""

import networkx as nx

from repro.apps.pagerank import pagerank_plan
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets import edges_to_bytes, kronecker_edges
from repro.mpi import COMET

SCALE = 8  # 256 vertices
CFG = MimirConfig(page_size="16K", comm_buffer_size="16K")


def main():
    edges = kronecker_edges(SCALE, edgefactor=8, seed=2)
    cluster = Cluster(COMET, nprocs=8, memory_limit=None)
    cluster.pfs.store("edges.bin", edges_to_bytes(edges))

    result = cluster.run(
        lambda env: pagerank_plan(env, "edges.bin", CFG, hint=True,
                                  compress=True, iterations=100,
                                  tolerance=1e-10))
    scores = {}
    for part in result.returns:
        scores.update(part.ranks)
    iterations = result.returns[0].iterations

    print(f"Kronecker graph: scale {SCALE}, {len(edges)} edges, "
          f"{len(scores)} vertices")
    print(f"converged after {iterations} iterations "
          f"(virtual time {result.elapsed:.3f}s)\n")

    top = sorted(scores.items(), key=lambda kv: -kv[1])[:5]
    print("top vertices by PageRank:")
    for vertex, score in top:
        print(f"  vertex {vertex:>5}  {score:.6f}")

    graph = nx.DiGraph()
    graph.add_edges_from(edges.tolist())
    reference = nx.pagerank(graph, alpha=0.85, tol=1e-12, max_iter=200)
    worst = max(abs(scores[v] - reference[v]) for v in scores)
    print(f"\nmax |difference| vs networkx: {worst:.2e} "
          f"({'MATCH' if worst < 1e-6 else 'MISMATCH'})")
    assert worst < 1e-6


if __name__ == "__main__":
    main()
