#!/usr/bin/env python3
"""Distributed k-means over a point cloud on the simulated PFS.

Iterative MapReduce with map-side combining of partial centroid sums
and control-plane convergence detection.

Run:  python examples/kmeans_clustering.py
"""

import numpy as np

from repro.apps.kmeans import kmeans_plan
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets import points_to_bytes
from repro.mpi import COMET

K = 4
POINTS_PER_BLOB = 800


def make_blobs(seed=11):
    rng = np.random.default_rng(seed)
    centers = rng.random((K, 3)) * 0.8 + 0.1
    points = np.concatenate([
        rng.normal(c, 0.035, size=(POINTS_PER_BLOB, 3)) for c in centers])
    return np.clip(points, 0, 0.999).astype("<f4"), centers


def main():
    points, true_centers = make_blobs()
    cluster = Cluster(COMET, nprocs=8, memory_limit=None)
    cluster.pfs.store("pts.bin", points_to_bytes(points))

    config = MimirConfig(page_size="16K", comm_buffer_size="16K")
    result = cluster.run(
        lambda env: kmeans_plan(env, "pts.bin", K, config, seed=1))
    outcome = result.returns[0]

    print(f"k-means: {len(points)} points, k={K}, "
          f"{outcome.iterations} iterations, "
          f"inertia={outcome.inertia:.3f}, "
          f"{result.elapsed:.3f} virtual s\n")
    print(f"{'found centroid':<28} {'nearest true center':<28} {'dist':>7}")
    for centroid, size in zip(outcome.centroids, outcome.sizes):
        dists = np.linalg.norm(true_centers - centroid, axis=1)
        nearest = true_centers[dists.argmin()]
        fmt = lambda p: "(" + ", ".join(f"{x:.3f}" for x in p) + ")"
        print(f"{fmt(centroid):<28} {fmt(nearest):<28} "
              f"{dists.min():>7.4f}   [{size} pts]")
        assert dists.min() < 0.05


if __name__ == "__main__":
    main()
