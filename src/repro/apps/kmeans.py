"""k-means clustering as iterative MapReduce.

The other canonical iterative analytics workload: per iteration, map
assigns every point to its nearest centroid and emits
``(centroid_id, (sum_xyz, count))`` partial aggregates (combined
map-side - the textbook use of a combiner); the partial reduce sums
them; new centroids are broadcast through the control plane.
Converges when no centroid moves more than ``tolerance``.

Verified against a plain NumPy Lloyd's-algorithm reference in the
tests; exercises combine + partial reduction with *structured* values
(packed float sums).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.cluster import RankEnv
from repro.core import KVLayout, MimirConfig
from repro.datasets.points import POINT_RECORD_SIZE
from repro.sched.executor import PlanRunner
from repro.sched.plan import Plan

#: Value layout: three float64 coordinate sums + one u64 count.
_AGG = struct.Struct("<dddQ")
#: KV-hint: fixed 4-byte centroid id key, fixed 32-byte aggregate.
KM_HINT_LAYOUT = KVLayout(key_len=4, val_len=_AGG.size)

_U32 = struct.Struct("<I")


def pack_agg(sums: np.ndarray, count: int) -> bytes:
    return _AGG.pack(float(sums[0]), float(sums[1]), float(sums[2]), count)


def unpack_agg(data: bytes) -> tuple[np.ndarray, int]:
    x, y, z, count = _AGG.unpack(data)
    return np.array([x, y, z]), count


def km_combine(key: bytes, a: bytes, b: bytes) -> bytes:
    sa, ca = unpack_agg(a)
    sb, cb = unpack_agg(b)
    return pack_agg(sa + sb, ca + cb)


@dataclass
class KMeansResult:
    """Converged clustering (identical on every rank)."""

    centroids: np.ndarray          # (k, 3)
    iterations: int
    #: Points per centroid in the final assignment.
    sizes: list[int]
    inertia: float                 # sum of squared distances (global)


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid index per point (vectorised)."""
    # (n, k) squared distances via broadcasting.
    diff = points[:, None, :] - centroids[None, :, :]
    return np.argmin((diff * diff).sum(axis=2), axis=1)


def _load_points(env: RankEnv, path: str,
                 config: MimirConfig) -> np.ndarray:
    """This rank's block of points, charged to the tracker."""
    from repro.io.readers import iter_binary_chunks

    blocks = list(iter_binary_chunks(env, path, POINT_RECORD_SIZE,
                                     config.input_chunk_size))
    points = (np.frombuffer(b"".join(blocks), dtype="<f4")
              .reshape(-1, 3).astype(np.float64))
    env.tracker.allocate(points.nbytes, "kmeans_points")
    return points


def _init_centroids(env: RankEnv, points: np.ndarray, k: int,
                    seed: int) -> np.ndarray:
    """Deterministic global initialisation: every rank contributes a
    sample; all ranks then run the same farthest-point selection over
    the pooled samples (k-means++-style), so the initial centroids
    span the whole dataset rather than one rank's contiguous block.
    """
    comm = env.comm
    rng = np.random.default_rng(seed)
    nsample = min(max(4 * k, 8), len(points)) if len(points) else 0
    local_sample = points[
        rng.choice(len(points), size=nsample, replace=False)
    ] if nsample else np.zeros((0, 3))
    pooled = np.array([row for part in comm.allgather(local_sample.tolist())
                       for row in part])
    chosen = [int(np.random.default_rng(seed).integers(len(pooled)))]
    while len(chosen) < k:
        dists = np.min(
            ((pooled[:, None, :] - pooled[chosen][None, :, :]) ** 2
             ).sum(axis=2), axis=1)
        dists[chosen] = -1.0
        chosen.append(int(np.argmax(dists)))
    return pooled[chosen].copy()


def _update_centroids(env: RankEnv, records, centroids: np.ndarray,
                      k: int) -> tuple[np.ndarray, list[int], float]:
    """Merge per-centroid aggregates globally (small control data:
    ``k`` entries) and recompute centroids everywhere."""
    local = {int(_U32.unpack(key)[0]): unpack_agg(value)
             for key, value in records}
    merged = env.comm.allgather(
        [(cid, sums.tolist(), count)
         for cid, (sums, count) in local.items()])
    new_centroids = centroids.copy()
    sizes = [0] * k
    for part in merged:
        for cid, sums, count in part:
            new_centroids[cid] = np.array(sums) / count
            sizes[cid] = count
    shift = float(np.abs(new_centroids - centroids).max())
    return new_centroids, sizes, shift


def kmeans_plan(env: RankEnv, path: str, k: int,
                config: MimirConfig | None = None, *,
                max_iterations: int = 50, tolerance: float = 1e-6,
                hint: bool = True, compress: bool = True, seed: int = 0,
                runner=None) -> KMeansResult:
    """Cluster the points in a binary PFS file into ``k`` groups.

    The app's one pipeline, as a dataflow Plan; ``runner(plan)`` builds
    the :class:`PlanRunner` (see
    :func:`repro.apps.wordcount.wordcount_plan`).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    config = config or MimirConfig()
    if hint:
        config = config.with_layout(KM_HINT_LAYOUT)
    comm = env.comm
    plan = Plan("kmeans", config)
    runner = runner(plan) if runner else PlanRunner(env, plan)

    # Load this rank's block of points once (iterative jobs re-read
    # from memory, like the paper's multistage inputs).
    points = _load_points(env, path, config)
    total = comm.allsum(len(points))
    if total < k:
        env.tracker.free(points.nbytes, "kmeans_points")
        raise ValueError(f"k={k} exceeds the {total} available points")
    centroids = _init_centroids(env, points, k, seed)

    def body(r, _i, state):
        centroids, _sizes, _shift = state
        assignment = _assign(points, centroids) if len(points) else \
            np.zeros(0, dtype=np.int64)

        def map_fn(pctx, _item, _assignment=assignment):
            for cid in range(k):
                mask = _assignment == cid
                count = int(mask.sum())
                if count:
                    pctx.emit(_U32.pack(cid),
                              pack_agg(points[mask].sum(axis=0), count))

        summed = (r.plan.source([None], name="assignments")
                  .map(map_fn, combine_fn=km_combine if compress else None,
                       name="aggregate")
                  .partial_reduce(km_combine, out_layout=config.layout,
                                  name="centroids"))
        return _update_centroids(env, r.stream(summed), centroids, k)

    (centroids, sizes, _shift), iterations = runner.iterate(
        (centroids, [], float("inf")), body,
        until=lambda state: state[2] <= tolerance,
        max_iters=max_iterations)

    assignment = _assign(points, centroids) if len(points) else \
        np.zeros(0, dtype=np.int64)
    local_inertia = float(
        ((points - centroids[assignment]) ** 2).sum()) if len(points) else 0.0
    inertia = comm.allsum(local_inertia)
    env.tracker.free(points.nbytes, "kmeans_points")
    return KMeansResult(centroids, iterations, sizes, inertia)


def kmeans_mimir(env: RankEnv, path: str, k: int,
                 config: MimirConfig | None = None, *,
                 max_iterations: int = 50, tolerance: float = 1e-6,
                 hint: bool = True, compress: bool = True,
                 seed: int = 0) -> KMeansResult:
    """k-means through Mimir: :func:`kmeans_plan`, no services."""
    return kmeans_plan(env, path, k, config, max_iterations=max_iterations,
                       tolerance=tolerance, hint=hint, compress=compress,
                       seed=seed)
