"""k-means: convergence and agreement with a NumPy Lloyd reference."""

import numpy as np
import pytest

from repro.apps.kmeans import (
    KM_HINT_LAYOUT,
    km_combine,
    kmeans_plan,
    pack_agg,
    unpack_agg,
)
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets import points_to_bytes
from repro.mpi import COMET, RankFailedError

CFG = MimirConfig(page_size=8192, comm_buffer_size=8192,
                  input_chunk_size=4096)


def three_blobs(n_per_blob=120, seed=0):
    """Well-separated clusters so k-means has one global optimum."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.15, 0.15, 0.15],
                        [0.8, 0.2, 0.7],
                        [0.3, 0.85, 0.5]])
    pts = np.concatenate([
        rng.normal(c, 0.03, size=(n_per_blob, 3)) for c in centers])
    return np.clip(pts, 0, 0.999).astype("<f4"), centers


def run_kmeans(points, k, nprocs=4, **kwargs):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("pts.bin", points_to_bytes(points))
    result = cluster.run(
        lambda env: kmeans_plan(env, "pts.bin", k, CFG, **kwargs))
    # All ranks converge to identical centroids.
    reference = result.returns[0]
    for r in result.returns[1:]:
        assert np.allclose(r.centroids, reference.centroids)
        assert r.iterations == reference.iterations
    return reference


def lloyd_reference(points, init, max_iterations=50, tolerance=1e-6):
    pts = points.astype(np.float64)
    centroids = init.copy()
    for _ in range(max_iterations):
        diff = pts[:, None, :] - centroids[None, :, :]
        assignment = np.argmin((diff * diff).sum(axis=2), axis=1)
        new = np.array([
            pts[assignment == c].mean(axis=0) if (assignment == c).any()
            else centroids[c]
            for c in range(len(centroids))])
        if np.abs(new - centroids).max() <= tolerance:
            return new
        centroids = new
    return centroids


class TestKMeans:
    def test_finds_the_blobs(self):
        points, centers = three_blobs()
        result = run_kmeans(points, k=3)
        # Each true center has a centroid within blob radius.
        for center in centers:
            dist = np.linalg.norm(result.centroids - center, axis=1).min()
            assert dist < 0.05

    def test_sizes_sum_to_points(self):
        points, _ = three_blobs()
        result = run_kmeans(points, k=3)
        assert sum(result.sizes) == len(points)
        assert all(size > 0 for size in result.sizes)

    def test_serial_equals_parallel(self):
        points, _ = three_blobs(seed=3)
        serial = run_kmeans(points, k=3, nprocs=1)
        parallel = run_kmeans(points, k=3, nprocs=6)
        # Same init (seeded from rank 0's block) only when rank 0 holds
        # everything in the serial case; compare converged inertia
        # instead of raw centroids.
        assert serial.inertia == pytest.approx(parallel.inertia, rel=0.15)

    def test_converges_before_cap(self):
        points, _ = three_blobs()
        result = run_kmeans(points, k=3, max_iterations=100)
        assert result.iterations < 100

    def test_without_optimizations_same_answer(self):
        points, _ = three_blobs(seed=5)
        a = run_kmeans(points, k=3, hint=True, compress=True)
        b = run_kmeans(points, k=3, hint=False, compress=False)
        assert np.allclose(a.centroids, b.centroids)

    def test_k_larger_than_points_raises(self):
        points = np.zeros((4, 3), dtype="<f4")
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("pts.bin", points_to_bytes(points))
        with pytest.raises(RankFailedError):
            cluster.run(lambda env: kmeans_plan(env, "pts.bin", 10, CFG))

    def test_invalid_k(self):
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)
        cluster.pfs.store("pts.bin", b"")
        with pytest.raises(RankFailedError):
            cluster.run(lambda env: kmeans_plan(env, "pts.bin", 0, CFG))

    def test_memory_released(self):
        points, _ = three_blobs()
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("pts.bin", points_to_bytes(points))

        def job(env):
            kmeans_plan(env, "pts.bin", 3, CFG)
            return env.tracker.current

        assert cluster.run(job).returns == [0, 0]


class TestAggCodec:
    def test_roundtrip(self):
        sums, count = unpack_agg(pack_agg(np.array([1.5, -2.0, 0.25]), 7))
        assert np.allclose(sums, [1.5, -2.0, 0.25])
        assert count == 7

    def test_combine_sums(self):
        a = pack_agg(np.array([1.0, 2.0, 3.0]), 2)
        b = pack_agg(np.array([0.5, 0.5, 0.5]), 3)
        sums, count = unpack_agg(km_combine(b"0", a, b))
        assert np.allclose(sums, [1.5, 2.5, 3.5])
        assert count == 5

    def test_hint_layout(self):
        assert KM_HINT_LAYOUT.key_len == 4
        assert KM_HINT_LAYOUT.val_len == 32
