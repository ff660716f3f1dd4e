"""The paper's three evaluation benchmarks, on both frameworks.

- WordCount (WC): single-pass MapReduce (Section IV-A).
- Octree clustering (OC): iterative multi-stage MapReduce over 3-D
  points (Estrada et al.'s ligand-classification algorithm).
- Breadth-first search (BFS): iterative map-only traversal of a
  Graph500 Kronecker graph.

Every Mimir app is one dataflow Plan, ``<name>_plan(env, ...,
runner=None)``; the paper's three also keep ``<name>_mrmpi(env, ...)``,
the same logical algorithm on the MR-MPI baseline, which is what the
figure-reproduction benches sweep.  Two drivers stay outside the Plan
API: ``terasort_mimir``, because ``global_sort`` is not a Plan op, and
``pagerank_mimir``, because a bare runner recomputes PageRank's cached
adjacency every iteration.

Further classic MapReduce workloads (PageRank, k-means, connected
components, the inverted index) extend the suite beyond the paper's
three benchmarks; ``Plan.join`` is the equi-join.
"""

from repro.apps.bfs import bfs_mrmpi, bfs_plan
from repro.apps.components import components_plan
from repro.apps.inverted_index import inverted_index_plan
from repro.apps.kmeans import kmeans_plan
from repro.apps.octree import octree_mrmpi, octree_plan
from repro.apps.pagerank import pagerank_mimir, pagerank_plan
from repro.apps.terasort import terasort_mimir
from repro.apps.wordcount import wordcount_mrmpi, wordcount_plan

__all__ = [
    "bfs_mrmpi",
    "bfs_plan",
    "components_plan",
    "inverted_index_plan",
    "kmeans_plan",
    "octree_mrmpi",
    "octree_plan",
    "pagerank_mimir",
    "pagerank_plan",
    "terasort_mimir",
    "wordcount_mrmpi",
    "wordcount_plan",
]
