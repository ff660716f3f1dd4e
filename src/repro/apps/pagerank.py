"""PageRank as an iterative MapReduce job.

Beyond the paper's three benchmarks, PageRank is the canonical
iterative MapReduce workload (and a staple of the MR-MPI literature the
paper builds on).  Per iteration: map over the rank-local vertex table
emitting ``rank/out_degree`` contributions to each out-neighbour;
reduce sums contributions; damping and the dangling-vertex mass are
applied with small control-plane allreduces.  Exercises ``map_kvs``
(iterative KV sources), fixed-length KV-hints (8-byte ids, 8-byte
float64 ranks), and partial reduction (summing is invariant).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.apps.bfs import vertex_partitioner
from repro.cluster import RankEnv
from repro.core import (
    KVLayout,
    Mimir,
    MimirConfig,
    batch_kernel,
    pack_u64,
    unpack_u64,
)
from repro.datasets.graph500 import EDGE_RECORD_SIZE
from repro.sched.executor import PlanRunner
from repro.sched.plan import Plan

#: KV-hint for PageRank: fixed 8-byte vertex id and 8-byte float64.
PR_HINT_LAYOUT = KVLayout(key_len=8, val_len=8)

_F64 = struct.Struct("<d")


def pack_f64(value: float) -> bytes:
    return _F64.pack(value)


def unpack_f64(data: bytes) -> float:
    return _F64.unpack(data)[0]


def pr_combine(key: bytes, a: bytes, b: bytes) -> bytes:
    """Sum two partial rank contributions."""
    return _F64.pack(_F64.unpack(a)[0] + _F64.unpack(b)[0])


@batch_kernel
def pr_fold_batch(acc, ids, rows) -> None:
    """Batch form of :func:`pr_combine`, as combine and partial-reduce
    fold alike: add each incoming contribution to its slot's.

    ``add.at`` is unbuffered: it folds in record order with
    ``existing + incoming``, exactly like the per-record path, so the
    float sums are bitwise identical (and like it says nothing of an
    overflow to infinity or an ``inf - inf``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(acc.view("<f8")[:, 0], ids, rows.view("<f8")[:, 0])


@dataclass
class PageRankResult:
    """Per-rank outcome."""

    iterations: int
    #: This rank's vertices and their final scores.
    ranks: dict[int, float]
    #: Global L1 change of the final iteration.
    final_delta: float


def _emit_edges(ctx, chunk: bytes) -> None:
    """Map callback: one ``(source, target)`` record per directed edge."""
    edges = np.frombuffer(chunk, dtype="<u8").reshape(-1, 2)
    for u, v in edges.tolist():
        ctx.emit(pack_u64(u), pack_u64(v))


def _emit_vertices(ctx, chunk: bytes) -> None:
    """Map callback: every id that appears as a source or a target."""
    edges = np.frombuffer(chunk, dtype="<u8").reshape(-1, 2)
    for v in np.unique(edges).tolist():
        ctx.emit(pack_u64(v), b"\x00" * 8)


def _build_adjacency(mimir: Mimir, path: str) -> dict[int, list[int]]:
    """Partition the directed edge list by source-vertex owner."""
    edge_kvs = mimir.map_binary_file(path, EDGE_RECORD_SIZE, _emit_edges,
                                     partitioner=vertex_partitioner)
    collected: dict[int, set[int]] = {}
    for key, value in edge_kvs.consume():
        collected.setdefault(unpack_u64(key), set()).add(unpack_u64(value))
    # Parallel edges collapse to one link (simple-digraph semantics).
    return {v: sorted(targets) for v, targets in collected.items()}


def pagerank_mimir(env: RankEnv, path: str,
                   config: MimirConfig | None = None, *,
                   damping: float = 0.85, iterations: int = 20,
                   tolerance: float = 1e-9, hint: bool = False,
                   compress: bool = False,
                   batch: bool = False) -> PageRankResult:
    """Run PageRank over a directed edge list on the PFS.

    Vertices are every id that appears as a source or target; dangling
    vertices redistribute their mass uniformly, so the scores sum to 1.
    ``batch=True`` emits each vertex's contribution fan-out as one run
    and, when the layout fixes the score at 8 bytes (the hint), folds
    with the batch kernel; scores are bitwise identical.
    """
    config = config or MimirConfig()
    if hint:
        config = config.with_layout(PR_HINT_LAYOUT)
    mimir = Mimir(env, config)
    comm = env.comm
    fold = pr_fold_batch if batch and config.layout.val_len == 8 \
        else pr_combine

    adjacency = _build_adjacency(mimir, path)
    # Batch mode emits pre-packed target keys in one run per vertex.
    packed = ({v: [pack_u64(t) for t in targets]
               for v, targets in adjacency.items()} if batch else None)

    # Vertex universe: sources are local; targets may be unowned here.
    vertex_kvs = mimir.map_binary_file(
        path, EDGE_RECORD_SIZE, _emit_vertices,
        partitioner=vertex_partitioner,
        combine_fn=lambda k, a, b: a)  # dedup
    vertices = sorted({unpack_u64(k) for k, _ in vertex_kvs.consume()})
    nvertices = comm.allsum(len(vertices))
    if nvertices == 0:
        raise ValueError("graph has no vertices")

    scores = {v: 1.0 / nvertices for v in vertices}
    delta = float("inf")
    done = 0
    for done in range(1, iterations + 1):
        # Dangling mass is shared through the control plane.
        dangling = sum(score for v, score in scores.items()
                       if not adjacency.get(v))
        dangling = comm.allsum(dangling)

        if batch:
            def emit_contributions(ctx, items=tuple(scores.items())):
                for v, score in items:
                    targets = packed.get(v)
                    if targets:
                        ctx.emit_run(targets,
                                     _F64.pack(score / len(targets)))
        else:
            def emit_contributions(ctx, items=tuple(scores.items())):
                for v, score in items:
                    targets = adjacency.get(v)
                    if targets:
                        share = _F64.pack(score / len(targets))
                        for t in targets:
                            ctx.emit(pack_u64(t), share)

        contrib_kvs = mimir.map_items(
            [None], lambda ctx, _item: emit_contributions(ctx),
            partitioner=vertex_partitioner,
            combine_fn=fold if compress else None)
        summed = mimir.partial_reduce(contrib_kvs, fold,
                                      out_layout=config.layout)

        base = (1.0 - damping) / nvertices + \
            damping * dangling / nvertices
        new_scores = {v: base for v in vertices}
        for key, value in summed.consume():
            v = unpack_u64(key)
            new_scores[v] = base + damping * unpack_f64(value)

        delta = comm.allsum(sum(abs(new_scores[v] - scores[v])
                                for v in vertices))
        scores = new_scores
        if delta < tolerance:
            break

    return PageRankResult(done, {v: scores[v] for v in vertices}, delta)


def pagerank_plan(env: RankEnv, path: str,
                  config: MimirConfig | None = None, *,
                  damping: float = 0.85, iterations: int = 20,
                  tolerance: float = 1e-9, hint: bool = False,
                  compress: bool = False, runner=None) -> PageRankResult:
    """PageRank on the dataflow Plan API; results match
    :func:`pagerank_mimir` bit for bit.

    The adjacency list becomes a plan stage, numerically sorted so the
    per-iteration contribution map emits in exactly the order the
    dict-driven original does (bitwise-identical float sums), and
    cacheable: when the runner carries a stage cache, iterations (and
    later jobs building the same stage) reread the materialized
    container instead of re-shuffling the edge list.  ``runner(plan)``
    builds the :class:`PlanRunner` that carries the services, e.g. a
    :class:`~repro.sched.scheduler.Scheduler`'s ``ctx.runner`` or
    ``functools.partial(PlanRunner, env, cache=c)``.
    """
    config = config or MimirConfig()
    if hint:
        config = config.with_layout(PR_HINT_LAYOUT)
    comm = env.comm
    # ``contrib`` emits per record, so only the partial reduction, which
    # folds whole pages, takes the batch fold (fixed 8-byte scores only).
    fold = pr_fold_batch if config.layout.val_len == 8 else pr_combine
    plan = Plan("pagerank", config)

    def dedup_targets(rctx, key: bytes, values: list[bytes]) -> None:
        targets = sorted({unpack_u64(v) for v in values})
        rctx.emit(key, b"".join(pack_u64(t) for t in targets))

    edges = plan.read_binary(path, EDGE_RECORD_SIZE, name="edges")
    adjacency = (edges
                 .map(_emit_edges, partitioner=vertex_partitioner,
                      name="edge-shuffle")
                 .reduce(dedup_targets, out_layout=KVLayout(),
                         name="adjacency")
                 .sort_local(key_fn=lambda k, v: unpack_u64(k),
                             name="adjacency-sorted")
                 .cache())
    vertex_ds = edges.map(_emit_vertices, partitioner=vertex_partitioner,
                          combine_fn=lambda k, a, b: a, name="vertices")

    runner = runner(plan) if runner else PlanRunner(env, plan)

    vertices = sorted({unpack_u64(k) for k, _ in runner.stream(vertex_ds)})
    nvertices = comm.allsum(len(vertices))
    if nvertices == 0:
        raise ValueError("graph has no vertices")
    has_out = {unpack_u64(k) for k, _ in runner.stream(adjacency)}

    def body(r, _i, state):
        scores, _delta = state
        dangling = sum(score for v, score in scores.items()
                       if v not in has_out)
        dangling = comm.allsum(dangling)

        def contrib(pctx, key: bytes, value: bytes, _scores=scores) -> None:
            share = _F64.pack(_scores[unpack_u64(key)] / (len(value) // 8))
            for t in np.frombuffer(value, dtype="<u8").tolist():
                pctx.emit(pack_u64(t), share)

        summed = (adjacency
                  .map(contrib, partitioner=vertex_partitioner,
                       combine_fn=pr_combine if compress else None,
                       name="contrib")
                  .partial_reduce(fold, out_layout=config.layout,
                                  name="scores"))

        base = (1.0 - damping) / nvertices + \
            damping * dangling / nvertices
        new_scores = {v: base for v in vertices}
        for key, value in r.stream(summed):
            new_scores[unpack_u64(key)] = base + damping * unpack_f64(value)
        delta = comm.allsum(sum(abs(new_scores[v] - scores[v])
                                for v in vertices))
        return new_scores, delta

    initial = ({v: 1.0 / nvertices for v in vertices}, float("inf"))
    (scores, delta), done = runner.iterate(
        initial, body, until=lambda state: state[1] < tolerance,
        max_iters=iterations)
    return PageRankResult(done, {v: scores[v] for v in vertices}, delta)
