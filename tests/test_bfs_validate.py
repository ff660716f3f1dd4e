"""Graph500 validation checks, and certification of our BFS results."""

import numpy as np
import pytest

from repro.apps.bfs import bfs_mrmpi, bfs_plan
from repro.apps.bfs_validate import validate_bfs
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets import edges_to_bytes, kronecker_edges
from repro.mpi import COMET
from repro.mrmpi import MRMPIConfig

PATH_EDGES = np.array([[0, 1], [1, 2], [2, 3]], dtype="<u8")


class TestValidatorDetectsErrors:
    def test_accepts_correct_tree(self):
        report = validate_bfs(PATH_EDGES, 0, {0: 0, 1: 0, 2: 1, 3: 2})
        assert report.valid, report.violations
        assert report.levels == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_rejects_bad_root(self):
        report = validate_bfs(PATH_EDGES, 0, {0: 1, 1: 0})
        assert not report.valid

    def test_rejects_cycle(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]], dtype="<u8")
        report = validate_bfs(edges, 0, {0: 0, 1: 2, 2: 1})
        assert not report.valid
        assert any("cycle" in v for v in report.violations)

    def test_rejects_phantom_tree_edge(self):
        report = validate_bfs(PATH_EDGES, 0, {0: 0, 1: 0, 2: 1, 3: 1})
        assert not report.valid  # (3, 1) is not a graph edge

    def test_rejects_level_skip(self):
        edges = np.array([[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]],
                         dtype="<u8")
        # Claim 4 hangs off 0 via a fake short chain: (4,3) valid edge
        # but 3's level is wrong.
        report = validate_bfs(edges, 0, {0: 0, 1: 0, 2: 0, 3: 1, 4: 3})
        assert report.valid  # this one is actually a correct BFS tree
        report = validate_bfs(edges, 0, {0: 0, 1: 0, 2: 0, 3: 0, 4: 3})
        assert not report.valid  # (3, 0) is not a graph edge

    def test_rejects_incomplete_coverage(self):
        report = validate_bfs(PATH_EDGES, 0, {0: 0, 1: 0, 2: 1})
        assert not report.valid
        assert any("reachable" in v for v in report.violations)

    def test_rejects_foreign_vertices(self):
        edges = np.array([[0, 1], [5, 6]], dtype="<u8")
        report = validate_bfs(edges, 0, {0: 0, 1: 0, 5: 0})
        assert not report.valid

    def test_rejects_frontier_crossing(self):
        edges = np.array([[0, 1], [1, 2]], dtype="<u8")
        # 2 unvisited but adjacent to visited 1 -> frontier violation
        # (also an incomplete-coverage violation).
        report = validate_bfs(edges, 0, {0: 0, 1: 0})
        assert not report.valid
        assert any("frontier" in v for v in report.violations)


class TestCertifyOurBFS:
    @pytest.fixture(scope="class")
    def edges(self):
        return kronecker_edges(scale=7, edgefactor=8, seed=13)

    def _run(self, edges, runner, config, **kwargs):
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)
        cluster.pfs.store("edges.bin", edges_to_bytes(edges))
        result = cluster.run(
            lambda env: runner(env, "edges.bin", config,
                               keep_parents=True, **kwargs))
        parents = {}
        for r in result.returns:
            parents.update(r.parents)
        return result.returns[0].root, parents

    def test_mimir_bfs_is_graph500_valid(self, edges):
        config = MimirConfig(page_size=8192, comm_buffer_size=8192)
        root, parents = self._run(edges, bfs_plan, config)
        report = validate_bfs(edges, root, parents)
        assert report.valid, report.violations

    def test_mimir_bfs_with_optimizations_valid(self, edges):
        config = MimirConfig(page_size=8192, comm_buffer_size=8192)
        root, parents = self._run(edges, bfs_plan, config,
                                  hint=True, compress=True)
        report = validate_bfs(edges, root, parents)
        assert report.valid, report.violations

    def test_mrmpi_bfs_is_graph500_valid(self, edges):
        config = MRMPIConfig(page_size=128 * 1024)
        root, parents = self._run(edges, bfs_mrmpi, config)
        report = validate_bfs(edges, root, parents)
        assert report.valid, report.violations
