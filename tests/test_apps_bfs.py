"""BFS: traversal correctness against networkx, framework agreement."""

import networkx as nx
import numpy as np
import pytest

from repro.apps.bfs import (
    BFS_HINT_LAYOUT,
    bfs_mrmpi,
    bfs_plan,
    vertex_partitioner,
)
from repro.cluster import Cluster
from repro.core import MimirConfig, pack_u64
from repro.datasets import edges_to_bytes, kronecker_edges
from repro.mpi import COMET
from repro.mrmpi import MRMPIConfig

MIMIR_CFG = MimirConfig(page_size=8192, comm_buffer_size=8192,
                        input_chunk_size=4096)
MRMPI_CFG = MRMPIConfig(page_size=128 * 1024, input_chunk_size=4096)


def reference_bfs(edges):
    """networkx ground truth: root, reachable count, eccentricity."""
    graph = nx.Graph()
    for u, v in edges.tolist():
        if u != v:
            graph.add_edge(u, v)
    root = min(graph.nodes)
    lengths = nx.single_source_shortest_path_length(graph, root)
    return root, len(lengths), max(lengths.values())


def run_bfs(runner, edges, nprocs=4, **kwargs):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("edges.bin", edges_to_bytes(edges))
    result = cluster.run(
        lambda env: runner(env, "edges.bin", keep_parents=True, **kwargs))
    roots = {r.root for r in result.returns}
    levels = {r.levels for r in result.returns}
    assert len(roots) == 1 and len(levels) == 1
    parents = {}
    for r in result.returns:
        for vertex, parent in r.parents.items():
            assert vertex not in parents
            parents[vertex] = parent
    return roots.pop(), levels.pop(), parents, result


@pytest.fixture(scope="module")
def edges():
    return kronecker_edges(scale=7, edgefactor=8, seed=5)


class TestTraversalCorrectness:
    def test_mimir_visits_entire_component(self, edges):
        ref_root, ref_visited, ref_depth = reference_bfs(edges)
        root, levels, parents, _ = run_bfs(bfs_plan, edges,
                                           config=MIMIR_CFG)
        assert root == ref_root
        assert len(parents) == ref_visited
        # Frontier rounds beyond the eccentricity do nothing.
        assert levels == ref_depth + 1 or levels == ref_depth

    def test_mrmpi_matches_mimir(self, edges):
        _, _, mimir_parents, _ = run_bfs(bfs_plan, edges, config=MIMIR_CFG)
        _, _, mrmpi_parents, _ = run_bfs(bfs_mrmpi, edges, config=MRMPI_CFG)
        assert set(mimir_parents) == set(mrmpi_parents)

    def test_parents_form_a_tree(self, edges):
        graph = nx.Graph()
        for u, v in edges.tolist():
            if u != v:
                graph.add_edge(u, v)
        root, _, parents, _ = run_bfs(bfs_plan, edges, config=MIMIR_CFG)
        assert parents[root] == root
        for vertex, parent in parents.items():
            if vertex != root:
                assert graph.has_edge(vertex, parent)
                assert parent in parents  # parent was visited first

    @pytest.mark.parametrize("opts", [
        {"hint": True},
        {"compress": True},
        {"hint": True, "compress": True},
    ])
    def test_mimir_optimizations_preserve_reachability(self, edges, opts):
        _, ref_visited, _ = reference_bfs(edges)[0], \
            reference_bfs(edges)[1], reference_bfs(edges)[2]
        _, _, parents, _ = run_bfs(bfs_plan, edges, config=MIMIR_CFG, **opts)
        assert len(parents) == reference_bfs(edges)[1]

    def test_mrmpi_compress_preserves_reachability(self, edges):
        _, _, parents, _ = run_bfs(bfs_mrmpi, edges, config=MRMPI_CFG,
                                   compress=True)
        assert len(parents) == reference_bfs(edges)[1]

    def test_serial_equals_parallel(self, edges):
        _, _, p1, _ = run_bfs(bfs_plan, edges, nprocs=1, config=MIMIR_CFG)
        _, _, p8, _ = run_bfs(bfs_plan, edges, nprocs=8, config=MIMIR_CFG)
        assert set(p1) == set(p8)


class TestSmallGraphs:
    def test_path_graph(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]], dtype="<u8")
        root, levels, parents, _ = run_bfs(bfs_plan, edges, nprocs=2,
                                           config=MIMIR_CFG)
        assert root == 0
        assert len(parents) == 4
        assert levels >= 3

    def test_two_components_only_roots_component(self):
        edges = np.array([[0, 1], [2, 3]], dtype="<u8")
        _, _, parents, _ = run_bfs(bfs_plan, edges, nprocs=2,
                                   config=MIMIR_CFG)
        assert set(parents) == {0, 1}

    def test_self_loops_ignored(self):
        edges = np.array([[0, 0], [0, 1]], dtype="<u8")
        _, _, parents, _ = run_bfs(bfs_plan, edges, nprocs=2,
                                   config=MIMIR_CFG)
        assert set(parents) == {0, 1}

    def test_edgeless_graph_raises(self):
        edges = np.array([[5, 5]], dtype="<u8")  # only a self-loop
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("edges.bin", edges_to_bytes(edges))
        from repro.mpi import RankFailedError
        with pytest.raises(RankFailedError):
            cluster.run(lambda env: bfs_plan(env, "edges.bin",
                                             config=MIMIR_CFG))


class TestPartitioner:
    def test_owner_is_mod(self):
        assert vertex_partitioner(pack_u64(10), 4) == 2
        assert vertex_partitioner(pack_u64(7), 4) == 3

    def test_hint_layout(self):
        assert BFS_HINT_LAYOUT.key_len == 8
        assert BFS_HINT_LAYOUT.val_len == 8
        assert BFS_HINT_LAYOUT.header_size == 0


class TestMemoryShape:
    def test_peak_is_in_partition_phase_not_traversal(self, edges):
        """Paper: BFS peak memory occurs during graph partitioning, so
        compression (which only shrinks traversal traffic) cannot help."""
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)
        cluster.pfs.store("edges.bin", edges_to_bytes(edges))

        def job(env):
            peak_before = env.tracker.peak  # ~0
            result = bfs_plan(env, "edges.bin", MIMIR_CFG)
            return peak_before, env.tracker.peak, result.visited_local

        plain = cluster.run(job)

        cluster2 = Cluster(COMET, nprocs=4, memory_limit=None)
        cluster2.pfs.store("edges.bin", edges_to_bytes(edges))
        compressed = cluster2.run(
            lambda env: bfs_plan(env, "edges.bin", MIMIR_CFG,
                                 compress=True) and env.tracker.peak)
        # Paper: "Mimir has the same memory usage with and without
        # compression" for BFS - the peak is in the partition phase,
        # which compression does not touch.
        plain_peak = sum(plain.peak_bytes)
        cps_peak = sum(compressed.peak_bytes)
        assert abs(plain_peak - cps_peak) <= 0.25 * plain_peak

    def test_edge_pages_are_freed_while_the_adjacency_grows(self):
        # Pinned from PR 13's direct driver; a Plan path that holds the
        # edge container whole while the table builds peaks 22 % higher.
        tiny = MimirConfig(page_size=512, comm_buffer_size=512,
                           input_chunk_size=512)
        *_, result = run_bfs(bfs_plan, kronecker_edges(6, 8, seed=0),
                             config=tiny)
        assert result.peak_bytes == [6456, 10744, 7416, 8128]
