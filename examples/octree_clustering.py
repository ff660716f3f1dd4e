#!/usr/bin/env python3
"""Octree clustering of 3-D points (the paper's OC benchmark).

Generates the paper's point distribution (Normal(0.5, 0.5) clipped to
the unit cube), runs the iterative MapReduce clustering through Mimir
with the full optimization stack, and prints the dense octants found
at the deepest dense refinement level.

Run:  python examples/octree_clustering.py
"""

from repro.apps.octree import octree_plan
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets import normal_points, points_to_bytes
from repro.mpi import COMET

NPOINTS = 50_000
DENSITY = 0.02  # an octant is dense if it holds >= 2 % of all points


def describe_octant(level, code):
    """Decode a Morton code into the octant's spatial bounding box."""
    x = y = z = 0
    for bit in range(level):
        x |= ((code >> (3 * bit)) & 1) << bit
        y |= ((code >> (3 * bit + 1)) & 1) << bit
        z |= ((code >> (3 * bit + 2)) & 1) << bit
    side = 1.0 / (1 << level)
    return (x * side, y * side, z * side), side


def main():
    cluster = Cluster(COMET, nprocs=8, memory_limit=None)
    cluster.pfs.store("input/points.bin",
                      points_to_bytes(normal_points(NPOINTS, seed=3)))

    config = MimirConfig(page_size="16K", comm_buffer_size="16K")
    result = cluster.run(
        lambda env: octree_plan(env, "input/points.bin", config,
                                density=DENSITY, max_level=6,
                                hint=True, partial=True, compress=True))

    clusters = sorted(c for r in result.returns for c in r.clusters)
    levels = result.returns[0].levels_run
    print(f"{NPOINTS} points, density threshold {DENSITY:.0%}, "
          f"refined {levels} level(s)")
    print(f"found {len(clusters)} dense octant(s):\n")
    for level, code, count in clusters:
        corner, side = describe_octant(level, code)
        print(f"  level {level}  corner=({corner[0]:.3f}, {corner[1]:.3f}, "
              f"{corner[2]:.3f})  side={side:.3f}  points={count} "
              f"({count / NPOINTS:.1%})")
    print(f"\npeak node memory : {result.node_peak_bytes} bytes")
    print(f"virtual job time : {result.elapsed:.3f} s")


if __name__ == "__main__":
    main()
