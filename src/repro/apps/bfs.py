"""Breadth-first search (BFS): iterative map-only traversal.

Graph500 kernel 2 as a MapReduce job, the paper's third benchmark:

1. *Graph partitioning*: map over the edge list emitting both
   directions of every edge, shuffled so each vertex's adjacency lands
   on its owner rank (``vertex mod p``).  Each rank then builds a local
   adjacency table.  This is where BFS's peak memory occurs - the
   paper notes KV compression cannot help it.
2. *Traversal*: per level, a map-only job over the current frontier
   emits ``(neighbour, parent)`` to the neighbour's owner; unvisited
   neighbours become the next frontier.  KV compression (keeping one
   candidate parent per neighbour) shrinks traversal traffic only.

Keys and values are 64-bit vertex ids - the KV-hint fixed-length case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import RankEnv
from repro.core import KVLayout, MimirConfig, pack_u64, unpack_u64
from repro.datasets.graph500 import EDGE_RECORD_SIZE
from repro.mrmpi import MRMPI, MRMPIConfig
from repro.sched.executor import PlanRunner
from repro.sched.plan import Plan

#: KV-hint layout for BFS: fixed 8-byte vertex ids on both sides.
BFS_HINT_LAYOUT = KVLayout(key_len=8, val_len=8)

#: Accounting estimate for one adjacency edge / one visited entry.
_ADJ_EDGE_BYTES = 8
_ADJ_VERTEX_BYTES = 64
_VISITED_ENTRY_BYTES = 24


def vertex_partitioner(key: bytes, nprocs: int) -> int:
    """Owner of a vertex: its id modulo the number of ranks."""
    return int.from_bytes(key[:8], "little") % nprocs


def bfs_combine(key: bytes, a: bytes, b: bytes) -> bytes:
    """Keep one candidate parent per neighbour (deduplication)."""
    return a if a <= b else b


@dataclass
class BFSResult:
    """Per-rank traversal outcome."""

    root: int
    levels: int
    visited_local: int
    #: Local slice of the BFS tree: vertex -> parent (root maps to itself).
    parents: dict[int, int] | None = None


def _emit_edges(ctx, chunk: bytes) -> None:
    """Map callback for partitioning: both directions of each edge."""
    edges = np.frombuffer(chunk, dtype="<u8").reshape(-1, 2)
    for u, v in edges.tolist():
        if u == v:
            continue  # self-loops are dropped, as in Graph500 BFS
        ub, vb = pack_u64(u), pack_u64(v)
        ctx.emit(ub, vb)
        ctx.emit(vb, ub)


class _Adjacency:
    """Rank-local adjacency table with tracker accounting."""

    def __init__(self, env: RankEnv):
        self.env = env
        self.table: dict[int, list[int]] = {}
        self.accounted = 0

    def add(self, vertex: int, neighbour: int) -> None:
        bucket = self.table.get(vertex)
        if bucket is None:
            delta = _ADJ_VERTEX_BYTES + _ADJ_EDGE_BYTES
            self.env.tracker.allocate(delta, "adjacency")
            self.accounted += delta
            self.table[vertex] = [neighbour]
        else:
            self.env.tracker.allocate(_ADJ_EDGE_BYTES, "adjacency")
            self.accounted += _ADJ_EDGE_BYTES
            bucket.append(neighbour)

    def neighbours(self, vertex: int) -> list[int]:
        return self.table.get(vertex, [])

    def min_vertex(self) -> int | None:
        return min(self.table) if self.table else None

    def free(self) -> None:
        if self.accounted:
            self.env.tracker.free(self.accounted, "adjacency")
        self.accounted = 0
        self.table.clear()


class _Visited:
    """Rank-local BFS tree (vertex -> parent) with accounting."""

    def __init__(self, env: RankEnv):
        self.env = env
        self.parents: dict[int, int] = {}

    def try_visit(self, vertex: int, parent: int) -> bool:
        if vertex in self.parents:
            return False
        self.env.tracker.allocate(_VISITED_ENTRY_BYTES, "visited")
        self.parents[vertex] = parent
        return True

    def free(self) -> None:
        if self.parents:
            self.env.tracker.free(
                _VISITED_ENTRY_BYTES * len(self.parents), "visited")
        self.parents.clear()


def _pick_root(env: RankEnv, adj: _Adjacency) -> int:
    """Global minimum vertex that has at least one edge."""
    local = adj.min_vertex()
    sentinel = 1 << 62
    root = env.comm.allreduce(sentinel if local is None else local, min)
    if root == sentinel:
        raise ValueError("graph has no edges")
    return root


def _traverse(env: RankEnv, adj: _Adjacency, root: int,
              run_level) -> tuple[int, _Visited]:
    """Shared frontier-expansion loop; ``run_level`` does the shuffle."""
    comm = env.comm
    visited = _Visited(env)
    frontier: list[int] = []
    if vertex_partitioner(pack_u64(root), comm.size) == comm.rank:
        visited.try_visit(root, root)
        frontier.append(root)
    levels = 0
    while comm.allsum(len(frontier)) > 0:
        levels += 1
        arrivals = run_level(frontier)
        frontier = []
        for key, value in arrivals:
            vertex = unpack_u64(key)
            parent = unpack_u64(value)
            if visited.try_visit(vertex, parent):
                frontier.append(vertex)
    return levels, visited


def bfs_plan(env: RankEnv, path: str,
             config: MimirConfig | None = None, *,
             hint: bool = False, compress: bool = False,
             keep_parents: bool = False, runner=None) -> BFSResult:
    """BFS as a dataflow Plan: the app's one pipeline.

    The partitioned edge list (the memory peak) is a cacheable plan
    stage: when the runner carries a stage cache, a repeated traversal
    - or another job over the same graph - streams the materialized
    container instead of re-shuffling every edge; without one it is
    drained page by page as the adjacency table grows.  Each level's
    frontier expansion is a per-level salted source stage.
    ``runner(plan)`` builds the :class:`PlanRunner` (see
    :func:`repro.apps.wordcount.wordcount_plan`).
    """
    config = config or MimirConfig()
    if hint:
        config = config.with_layout(BFS_HINT_LAYOUT)
    plan = Plan("bfs", config)
    runner = runner(plan) if runner else PlanRunner(env, plan)

    # Phase 1: graph partitioning (the memory peak).
    adj_ds = (plan.read_binary(path, EDGE_RECORD_SIZE, name="edges")
              .map(_emit_edges, partitioner=vertex_partitioner,
                   name="partition")
              .cache())
    adj = _Adjacency(env)
    for key, value in runner.stream(adj_ds):
        adj.add(unpack_u64(key), unpack_u64(value))

    root = _pick_root(env, adj)

    # Phase 2: map-only traversal, one salted source stage per level.
    level = {"n": 0}

    def run_level(frontier: list[int]):
        level["n"] += 1
        salt = f"L{level['n']}"

        def expand(pctx, vertex: int):
            vb = pack_u64(vertex)
            for nbr in adj.neighbours(vertex):
                pctx.emit(pack_u64(nbr), vb)

        arrivals = (plan.source(list(frontier), name="frontier", salt=salt)
                    .map(expand, partitioner=vertex_partitioner,
                         combine_fn=bfs_combine if compress else None,
                         name="expand", salt=salt))
        yield from runner.stream(arrivals)

    levels, visited = _traverse(env, adj, root, run_level)
    result = BFSResult(root, levels, len(visited.parents),
                       dict(visited.parents) if keep_parents else None)
    visited.free()
    adj.free()
    return result


def bfs_mrmpi(env: RankEnv, path: str,
              config: MRMPIConfig | None = None, *,
              compress: bool = False,
              keep_parents: bool = False) -> BFSResult:
    """Run BFS through the MR-MPI baseline."""
    mr = MRMPI(env, config, partitioner=vertex_partitioner)

    mr.map_binary_file(path, EDGE_RECORD_SIZE, _emit_edges)
    mr.aggregate()
    adj = _Adjacency(env)
    for key, value in mr.collect():
        adj.add(unpack_u64(key), unpack_u64(value))
    mr.free()

    root = _pick_root(env, adj)

    def run_level(frontier: list[int]):
        def expand(ctx, vertex: int):
            vb = pack_u64(vertex)
            for nbr in adj.neighbours(vertex):
                ctx.emit(pack_u64(nbr), vb)

        mr.map_items(frontier, expand)
        if compress:
            mr.compress(bfs_combine)
        mr.aggregate()
        arrivals = mr.collect()
        mr.free()
        return arrivals

    levels, visited = _traverse(env, adj, root, run_level)
    result = BFSResult(root, levels, len(visited.parents),
                       dict(visited.parents) if keep_parents else None)
    visited.free()
    adj.free()
    return result
