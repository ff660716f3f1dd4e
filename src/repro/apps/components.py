"""Connected components via label-propagation MapReduce.

Another classic iterative workload from the MapReduce-over-MPI
literature: every vertex starts labelled with its own id; each
iteration, vertices send their current label to their neighbours and
adopt the minimum label seen; the job converges when no label changes
anywhere (an ``any_true`` allreduce).  The final label of a vertex is
the smallest vertex id in its component.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.bfs import _emit_edges, vertex_partitioner
from repro.cluster import RankEnv
from repro.core import KVLayout, MimirConfig, pack_u64, unpack_u64
from repro.datasets.graph500 import EDGE_RECORD_SIZE
from repro.sched.executor import PlanRunner
from repro.sched.plan import Plan

#: KV-hint: fixed 8-byte vertex ids on both sides.
CC_HINT_LAYOUT = KVLayout(key_len=8, val_len=8)


def cc_combine(key: bytes, a: bytes, b: bytes) -> bytes:
    """Keep the smaller candidate label (little-endian u64 compare)."""
    return a if unpack_u64(a) <= unpack_u64(b) else b


@dataclass
class ComponentsResult:
    """Per-rank outcome."""

    iterations: int
    #: This rank's vertices mapped to their component label.
    labels: dict[int, int]


def components_plan(env: RankEnv, path: str,
                    config: MimirConfig | None = None, *,
                    hint: bool = False, compress: bool = False,
                    max_iterations: int = 64, runner=None) -> ComponentsResult:
    """Label propagation shaped like :func:`~repro.apps.bfs.bfs_plan`:
    the cacheable partition stage streams once into the adjacency, then
    each round is a salted ``source -> map -> partial_reduce`` under
    :meth:`PlanRunner.iterate`.  ``runner`` as in ``wordcount_plan``."""
    config = config or MimirConfig()
    if hint:
        config = config.with_layout(CC_HINT_LAYOUT)
    plan = Plan("components", config)
    runner = runner(plan) if runner else PlanRunner(env, plan)

    # Partition the (undirected) adjacency by vertex owner.
    edges = (plan.read_binary(path, EDGE_RECORD_SIZE, name="edges")
             .map(_emit_edges, partitioner=vertex_partitioner,
                  name="partition")
             .cache())
    adjacency: dict[int, list[int]] = {}
    for key, value in runner.stream(edges):
        adjacency.setdefault(unpack_u64(key), []).append(unpack_u64(value))

    labels = {v: v for v in adjacency}

    def body(r, _i, _changed):
        def propagate(ctx, _item, items=tuple(labels.items())):
            for v, label in items:
                lb = pack_u64(label)
                for nbr in adjacency[v]:
                    ctx.emit(pack_u64(nbr), lb)

        best = (r.plan.source([None], name="labels")
                .map(propagate, partitioner=vertex_partitioner,
                     combine_fn=cc_combine if compress else None,
                     name="propagate")
                .partial_reduce(cc_combine, out_layout=config.layout,
                                name="best"))
        changed = False
        for key, value in r.stream(best):
            v = unpack_u64(key)
            label = unpack_u64(value)
            if label < labels[v]:
                labels[v] = label
                changed = True
        return env.comm.any_true(changed)

    _changed, iterations = runner.iterate(
        True, body, until=lambda changed: not changed,
        max_iters=max_iterations)
    return ComponentsResult(iterations, labels)
