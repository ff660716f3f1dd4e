"""Octree clustering: Morton codes, convergence, framework agreement."""

import numpy as np
import pytest

from repro.apps.octree import (
    OC_HINT_LAYOUT,
    make_key,
    morton_codes,
    octree_plan,
    octree_mrmpi,
    parse_key,
)
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets import normal_points, points_to_bytes
from repro.mpi import COMET
from repro.mrmpi import MRMPIConfig

MIMIR_CFG = MimirConfig(page_size=8192, comm_buffer_size=8192,
                        input_chunk_size=4096)
MRMPI_CFG = MRMPIConfig(page_size=64 * 1024, input_chunk_size=4096)


def brute_force_clusters(points, density, max_level):
    """Reference implementation: dense octants of the deepest dense level."""
    threshold = max(1, int(density * len(points)))
    dense_parents = None
    best = []
    for level in range(1, max_level + 1):
        codes = morton_codes(points, level)
        if dense_parents is not None:
            codes = codes[np.isin(codes >> np.uint64(3),
                                  np.fromiter(dense_parents, dtype=np.uint64))]
        uniq, counts = np.unique(codes, return_counts=True)
        dense = uniq[counts >= threshold]
        if len(dense) == 0:
            return level - 1, best
        best = sorted((level, int(c), int(n))
                      for c, n in zip(uniq, counts) if n >= threshold)
        dense_parents = set(int(c) for c in dense)
    return max_level, best


class TestMortonCodes:
    def test_level_one_octants(self):
        pts = np.array([[0.1, 0.1, 0.1], [0.9, 0.1, 0.1],
                        [0.1, 0.9, 0.1], [0.9, 0.9, 0.9]], dtype="<f4")
        codes = morton_codes(pts, 1)
        assert codes.tolist() == [0, 1, 2, 7]

    def test_parent_is_prefix(self):
        pts = normal_points(500, seed=1)
        child = morton_codes(pts, 3)
        parent = morton_codes(pts, 2)
        assert np.array_equal(child >> np.uint64(3), parent)

    def test_codes_in_range(self):
        pts = normal_points(1000, seed=2)
        for level in (1, 2, 5):
            codes = morton_codes(pts, level)
            assert codes.max() < (1 << (3 * level))

    def test_invalid_level(self):
        pts = normal_points(4, seed=0)
        with pytest.raises(ValueError):
            morton_codes(pts, 0)
        with pytest.raises(ValueError):
            morton_codes(pts, 22)

    def test_key_roundtrip(self):
        key = make_key(5, 123456)
        assert parse_key(key) == (5, 123456)
        assert len(key) == 9

    def test_hint_layout_matches_key(self):
        assert OC_HINT_LAYOUT.key_len == len(make_key(1, 0))
        assert OC_HINT_LAYOUT.val_len == 8


def run_octree(runner, points, nprocs=4, density=0.01, max_level=4, **kwargs):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("pts.bin", points_to_bytes(points))
    result = cluster.run(
        lambda env: runner(env, "pts.bin", density=density,
                           max_level=max_level, **kwargs))
    merged = sorted(c for r in result.returns for c in r.clusters)
    levels = {r.levels_run for r in result.returns}
    assert len(levels) == 1
    return merged, levels.pop(), result


@pytest.fixture(scope="module")
def points():
    return normal_points(4000, seed=42)


class TestClusteringCorrectness:
    def test_mimir_matches_brute_force(self, points):
        clusters, levels, _ = run_octree(octree_plan, points,
                                         config=MIMIR_CFG)
        ref_levels, ref_clusters = brute_force_clusters(points, 0.01, 4)
        assert levels == ref_levels
        assert clusters == ref_clusters

    def test_mrmpi_matches_brute_force(self, points):
        clusters, levels, _ = run_octree(octree_mrmpi, points,
                                         config=MRMPI_CFG)
        ref_levels, ref_clusters = brute_force_clusters(points, 0.01, 4)
        assert levels == ref_levels
        assert clusters == ref_clusters

    @pytest.mark.parametrize("opts", [
        {"hint": True},
        {"compress": True},
        {"partial": True},
        {"hint": True, "compress": True, "partial": True},
    ])
    def test_mimir_optimizations_preserve_answer(self, points, opts):
        clusters, levels, _ = run_octree(octree_plan, points,
                                         config=MIMIR_CFG, **opts)
        ref_levels, ref_clusters = brute_force_clusters(points, 0.01, 4)
        assert (levels, clusters) == (ref_levels, ref_clusters)

    def test_mrmpi_compress_preserves_answer(self, points):
        clusters, levels, _ = run_octree(octree_mrmpi, points,
                                         config=MRMPI_CFG, compress=True)
        ref_levels, ref_clusters = brute_force_clusters(points, 0.01, 4)
        assert (levels, clusters) == (ref_levels, ref_clusters)

    def test_serial_equals_parallel(self, points):
        serial, l1, _ = run_octree(octree_plan, points, nprocs=1,
                                   config=MIMIR_CFG)
        parallel, l2, _ = run_octree(octree_plan, points, nprocs=6,
                                     config=MIMIR_CFG)
        assert (l1, serial) == (l2, parallel)


class TestClusteringBehaviour:
    def test_uniform_points_have_no_dense_octants_at_depth(self):
        rng = np.random.default_rng(0)
        pts = rng.random((2000, 3)).astype("<f4")
        # With 0.05 density and uniform data, refinement stops early.
        clusters, levels, _ = run_octree(octree_plan, pts, density=0.05,
                                         max_level=6, config=MIMIR_CFG)
        ref_levels, ref_clusters = brute_force_clusters(pts, 0.05, 6)
        assert levels == ref_levels
        assert clusters == ref_clusters

    def test_tight_cluster_refines_to_max_level(self):
        pts = (np.full((500, 3), 0.3) +
               np.random.default_rng(1).normal(0, 1e-4, (500, 3))
               ).astype("<f4")
        clusters, levels, _ = run_octree(octree_plan, pts, density=0.5,
                                         max_level=3, config=MIMIR_CFG)
        assert levels == 3
        assert len(clusters) == 1
        level, code, count = clusters[0]
        assert level == 3
        assert count == 500


class TestPinnedCost:
    def test_plan_costs_what_the_direct_driver_cost(self, points):
        # Pinned from the direct Mimir driver this Plan replaced: six
        # paper figures run octree, so its cost must not drift.
        *_, result = run_octree(octree_plan, points, config=MIMIR_CFG)
        assert result.elapsed == pytest.approx(1.4501857013333335,
                                               rel=1e-12)
        assert result.peak_bytes == [50320, 48844, 48771, 50320]
