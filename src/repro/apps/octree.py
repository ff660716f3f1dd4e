"""Octree clustering (OC): iterative multi-stage MapReduce.

The MapReduce classification algorithm of Estrada et al.: points live
in the unit cube; at refinement level L each point falls into one of
8**L octants (a 3L-bit Morton code).  Per level, map emits
``(octant, 1)`` for every point whose parent octant was dense at the
previous level; reduce counts; octants holding at least ``density``
of all points stay dense and are refined further.  The algorithm stops
when no octant is dense (the previous level's dense octants are the
clusters) or at ``max_level``.

Key = 1 level byte + 8-byte Morton code (fixed 9 bytes - the KV-hint
case for fixed-length graph/geometry keys the paper calls out);
value = 64-bit count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.cluster import RankEnv
from repro.core import KVLayout, MimirConfig, pack_u64, unpack_u64
from repro.datasets.points import POINT_RECORD_SIZE
from repro.mrmpi import MRMPI, MRMPIConfig
from repro.sched.executor import PlanRunner
from repro.sched.plan import Plan

#: KV-hint layout for OC: 9-byte key (level + Morton), 8-byte count.
OC_HINT_LAYOUT = KVLayout(key_len=9, val_len=8)

_KEY = struct.Struct("<BQ")
_ONE = pack_u64(1)


def morton_codes(points: np.ndarray, level: int) -> np.ndarray:
    """Vectorised 3-D Morton codes at ``level`` (3*level bits)."""
    if level <= 0 or level > 21:
        raise ValueError(f"level must be in 1..21, got {level}")
    side = 1 << level
    cells = np.minimum((points * side).astype(np.uint64), side - 1)
    codes = np.zeros(len(points), dtype=np.uint64)
    ix, iy, iz = cells[:, 0], cells[:, 1], cells[:, 2]
    for bit in range(level):
        codes |= ((ix >> np.uint64(bit)) & np.uint64(1)) << np.uint64(3 * bit)
        codes |= ((iy >> np.uint64(bit)) & np.uint64(1)) << np.uint64(3 * bit + 1)
        codes |= ((iz >> np.uint64(bit)) & np.uint64(1)) << np.uint64(3 * bit + 2)
    return codes


def make_key(level: int, code: int) -> bytes:
    return _KEY.pack(level, code)


def parse_key(key: bytes) -> tuple[int, int]:
    return _KEY.unpack(key)


def oc_combine(key: bytes, a: bytes, b: bytes) -> bytes:
    return pack_u64(unpack_u64(a) + unpack_u64(b))


@dataclass
class OctreeResult:
    """Per-rank clustering outcome."""

    levels_run: int
    #: Dense octants of the deepest dense level, owned by this rank:
    #: ``(level, morton_code, count)``.
    clusters: list[tuple[int, int, int]]
    total_points: int


def _map_level(ctx, chunk: bytes, level: int,
               dense_parents: set[int] | None) -> None:
    """Emit (octant key, 1) for points whose parent octant is dense."""
    points = np.frombuffer(chunk, dtype="<f4").reshape(-1, 3)
    codes = morton_codes(points, level)
    if dense_parents is not None:
        keep = np.isin(codes >> np.uint64(3),
                       np.fromiter(dense_parents, dtype=np.uint64,
                                   count=len(dense_parents)))
        codes = codes[keep]
    pack = _KEY.pack
    for code in codes.tolist():
        ctx.emit(pack(level, code), _ONE)


def _advance(comm, counts: list[tuple[bytes, bytes]], threshold: int,
             clusters: list[tuple[int, int, int]],
             ) -> tuple[set[int] | None, bool]:
    """Share dense octants; returns (dense codes, finished flag)."""
    local_dense = [(parse_key(k)[0], parse_key(k)[1], unpack_u64(v))
                   for k, v in counts if unpack_u64(v) >= threshold]
    gathered = comm.allgather(local_dense)
    all_dense = [entry for part in gathered for entry in part]
    if not all_dense:
        return None, True
    clusters[:] = all_dense
    return {code for _, code, _ in all_dense}, False


def _count_reduce(ctx, key: bytes, values: list[bytes]) -> None:
    ctx.emit(key, pack_u64(sum(unpack_u64(v) for v in values)))


def octree_plan(env: RankEnv, path: str,
                config: MimirConfig | None = None, *,
                density: float = 0.01, max_level: int = 8,
                hint: bool = False, compress: bool = False,
                partial: bool = False, runner=None) -> OctreeResult:
    """Octree clustering: one salted ``read_binary -> map -> reduce``
    (or ``partial_reduce``) block per level, whose dense octants steer
    the next level's map.  ``runner`` as in ``wordcount_plan``."""
    config = config or MimirConfig()
    if hint:
        config = config.with_layout(OC_HINT_LAYOUT)
    plan = Plan("octree", config)
    runner = runner(plan) if runner else PlanRunner(env, plan)
    comm = env.comm

    total_points = env.pfs.size(path) // POINT_RECORD_SIZE
    threshold = max(1, int(density * total_points))
    clusters: list[tuple[int, int, int]] = []
    dense: set[int] | None = None
    level = 0
    for level in range(1, max_level + 1):
        parents = dense

        def map_fn(ctx, chunk, _level=level, _parents=parents):
            _map_level(ctx, chunk, _level, _parents)

        with plan.salted(f"L{level}"):
            octants = (plan.read_binary(path, POINT_RECORD_SIZE,
                                        name="points")
                       .map(map_fn, name="octants",
                            combine_fn=oc_combine if compress else None))
            if partial:
                counts = octants.partial_reduce(
                    oc_combine, out_layout=config.layout, name="counts")
            else:
                counts = octants.reduce(
                    _count_reduce, out_layout=config.layout, name="counts")
            pairs = runner.collect(counts)
        dense, finished = _advance(comm, pairs, threshold, clusters)
        if finished:
            level -= 1
            break
    mine = [c for c in clusters
            if comm.size == 1 or
            (hash_owner(c[1], comm.size) == comm.rank)]
    return OctreeResult(level, mine, total_points)


def octree_mrmpi(env: RankEnv, path: str,
                 config: MRMPIConfig | None = None, *,
                 density: float = 0.01, max_level: int = 8,
                 compress: bool = False) -> OctreeResult:
    """Run octree clustering through the MR-MPI baseline."""
    comm = env.comm
    total_points = env.pfs.size(path) // POINT_RECORD_SIZE
    threshold = max(1, int(density * total_points))
    clusters: list[tuple[int, int, int]] = []
    dense: set[int] | None = None
    level = 0
    mr = MRMPI(env, config)
    for level in range(1, max_level + 1):
        parents = dense

        def map_fn(ctx, chunk, _level=level, _parents=parents):
            _map_level(ctx, chunk, _level, _parents)

        mr.map_binary_file(path, POINT_RECORD_SIZE, map_fn)
        if compress:
            mr.compress(oc_combine)
        mr.aggregate()
        mr.convert()
        mr.reduce(_count_reduce)
        pairs = mr.collect()
        mr.free()
        dense, finished = _advance(comm, pairs, threshold, clusters)
        if finished:
            level -= 1
            break
    mine = [c for c in clusters
            if comm.size == 1 or
            (hash_owner(c[1], comm.size) == comm.rank)]
    return OctreeResult(level, mine, total_points)


def hash_owner(code: int, nprocs: int) -> int:
    """Deterministic owner of an octant code (for de-duplicated output)."""
    return code % nprocs
