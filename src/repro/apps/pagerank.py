"""PageRank as an iterative MapReduce job.

Beyond the paper's three benchmarks, PageRank is the canonical
iterative MapReduce workload (and a staple of the MR-MPI literature the
paper builds on).  Per iteration: map over the rank-local adjacency
emitting ``rank/out_degree`` contributions to each out-neighbour;
reduce sums contributions; damping and the dangling-vertex mass are
applied with small control-plane allreduces.  Exercises a loop-invariant
stage re-read every iteration, fixed-length KV-hints (8-byte ids,
8-byte float64 ranks), and partial reduction (summing is invariant).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from repro.apps.bfs import vertex_partitioner
from repro.cluster import RankEnv
from repro.core import (
    KVLayout,
    MimirConfig,
    batch_kernel,
    pack_u64,
    unpack_u64,
)
from repro.datasets.graph500 import EDGE_RECORD_SIZE
from repro.sched.executor import PlanRunner
from repro.sched.plan import Dataset, Plan

#: KV-hint for PageRank: fixed 8-byte vertex id and 8-byte float64.
PR_HINT_LAYOUT = KVLayout(key_len=8, val_len=8)

_F64 = struct.Struct("<d")


def pack_f64(value: float) -> bytes:
    return _F64.pack(value)


def unpack_f64(data: bytes) -> float:
    return _F64.unpack(data)[0]


def pr_combine(key: bytes, a: bytes, b: bytes) -> bytes:
    """Sum two partial rank contributions."""
    # A NaN sum is the one quiet NaN, whichever operand's the hardware
    # (or CPython's specialised float add) would pass on.
    total = _F64.unpack(a)[0] + _F64.unpack(b)[0]
    return _F64.pack(total if total == total else math.nan)


@batch_kernel
def pr_fold_batch(acc, ids, rows) -> None:
    """Batch form of :func:`pr_combine`, the partial reduction's fold
    under the hint: add each incoming contribution to its slot's.

    ``add.at`` is unbuffered: it folds in record order with
    ``existing + incoming``, exactly like the per-record path, so the
    float sums are bitwise identical (and like it says nothing of an
    overflow to infinity or an ``inf - inf``).
    """
    sums = acc.view("<f8")[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(sums, ids, rows.view("<f8")[:, 0])
    # A folded NaN is :func:`pr_combine`'s one quiet NaN.
    sums[ids[np.isnan(sums[ids])]] = np.nan


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


#: A vertex record's value: whether the vertex has an out-edge.
_HAS_OUT = (pack_u64(0), pack_u64(1))


def _emit_vertices(ctx, chunk: bytes) -> None:
    """Map callback: every id that appears as a source or a target,
    flagged with whether it is a source in this chunk."""
    edges = np.frombuffer(chunk, dtype="<u8").reshape(-1, 2)
    ids = np.unique(edges)
    for v, out in zip(ids.tolist(), np.isin(ids, edges[:, 0]).tolist()):
        ctx.emit(pack_u64(v), _HAS_OUT[out])


def _any_out(key: bytes, a: bytes, b: bytes) -> bytes:
    """Combine two flags of one vertex: an out-edge if either has one."""
    return max(a, b)


def dedup_targets(rctx, key: bytes, values: list[bytes]) -> None:
    """Reduce callback: a source's distinct targets, numerically sorted."""
    targets = sorted({unpack_u64(v) for v in values})
    rctx.emit(key, b"".join(pack_u64(t) for t in targets))


def by_vertex(key: bytes, _value: bytes) -> int:
    """Sort key of an adjacency record: its source id, numerically."""
    return unpack_u64(key)


def pagerank_plan(env: RankEnv, path: str,
                  config: MimirConfig | None = None, *,
                  damping: float = 0.85, iterations: int = 20,
                  tolerance: float = 1e-9, hint: bool = False,
                  compress: bool = False, runner=None) -> PageRankResult:
    """Run PageRank over a directed edge list on the PFS.

    Vertices are every id that appears as a source or target; dangling
    vertices redistribute their mass uniformly, so the scores sum to 1.
    The adjacency list is a plan stage, deduplicated (parallel edges
    collapse to one link) and numerically sorted, so each iteration's
    contribution map emits in one fixed order and the float sums repeat
    bit for bit.  It is ``cache()``d and read only inside
    :meth:`PlanRunner.iterate`, so even a bare runner shuffles the edge
    list once per run; a stage cache also shares it with later jobs over
    the same graph.  ``runner(plan)`` builds the :class:`PlanRunner`
    that carries the services, e.g. a :class:`~repro.sched.scheduler.
    Scheduler`'s ``ctx.runner`` or ``functools.partial(PlanRunner, env,
    cache=c)``.
    """
    config = config or MimirConfig()
    if hint:
        config = config.with_layout(PR_HINT_LAYOUT)
    plan = Plan("pagerank", config)
    edges = plan.read_binary(path, EDGE_RECORD_SIZE, name="edges")
    adjacency = (edges
                 .map(_emit_edges, partitioner=vertex_partitioner,
                      name="edge-shuffle")
                 .reduce(dedup_targets, out_layout=KVLayout(),
                         name="adjacency")
                 .sort_local(key_fn=by_vertex, name="adjacency-sorted")
                 .cache())
    vertex_ds = edges.map(_emit_vertices, partitioner=vertex_partitioner,
                          combine_fn=_any_out, name="vertices")
    runner = runner(plan) if runner else PlanRunner(env, plan)
    return power_iterate(runner, adjacency, vertex_ds, damping=damping,
                         iterations=iterations, tolerance=tolerance,
                         compress=compress)


def power_iterate(runner: PlanRunner, adjacency: Dataset,
                  vertex_ds: Dataset, *, damping: float = 0.85,
                  iterations: int = 20, tolerance: float = 1e-9,
                  compress: bool = False) -> PageRankResult:
    """The power loop over ``adjacency`` (this rank's sources in
    numeric order, each with its sorted distinct targets) and
    ``vertex_ds`` (each owned vertex flagged, maybe more than once,
    with whether it has an out-edge)."""
    comm = runner.env.comm
    config = runner.plan.config
    # ``contrib`` emits per record, so only the partial reduction, which
    # folds whole pages, takes the batch fold (fixed 8-byte scores only).
    fold = pr_fold_batch if config.layout.val_len == 8 else pr_combine

    # This rank's vertices; each sender's flag for a vertex arrives
    # separately, so a vertex has an out-edge if any flag says so.
    flags = [(unpack_u64(k), flag) for k, flag in runner.stream(vertex_ds)]
    vertices = sorted({v for v, _ in flags})
    has_out = {v for v, flag in flags if flag == _HAS_OUT[True]}
    nvertices = comm.allsum(len(vertices))
    if nvertices == 0:
        raise ValueError("graph has no vertices")

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
