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

import numpy as np

from repro.apps.bfs import vertex_partitioner
from repro.cluster import RankEnv
from repro.core import KVLayout, Mimir, MimirConfig, pack_u64, unpack_u64
from repro.datasets.graph500 import EDGE_RECORD_SIZE

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


def components_mimir(env: RankEnv, path: str,
                     config: MimirConfig | None = None, *,
                     hint: bool = False, compress: bool = False,
                     max_iterations: int = 64) -> ComponentsResult:
    """Label-propagation connected components over an edge list."""
    config = config or MimirConfig()
    if hint:
        config = config.with_layout(CC_HINT_LAYOUT)
    mimir = Mimir(env, config)
    comm = env.comm

    # Partition the (undirected) adjacency by vertex owner.
    def emit_edges(ctx, chunk: bytes) -> None:
        edges = np.frombuffer(chunk, dtype="<u8").reshape(-1, 2)
        for u, v in edges.tolist():
            if u != v:
                ub, vb = pack_u64(u), pack_u64(v)
                ctx.emit(ub, vb)
                ctx.emit(vb, ub)

    edge_kvs = mimir.map_binary_file(path, EDGE_RECORD_SIZE, emit_edges,
                                     partitioner=vertex_partitioner)
    adjacency: dict[int, list[int]] = {}
    for key, value in edge_kvs.consume():
        adjacency.setdefault(unpack_u64(key), []).append(unpack_u64(value))

    labels = {v: v for v in adjacency}
    iterations = 0
    while iterations < max_iterations:
        iterations += 1

        def propagate(ctx, _item, items=tuple(labels.items())):
            for v, label in items:
                lb = pack_u64(label)
                for nbr in adjacency[v]:
                    ctx.emit(pack_u64(nbr), lb)

        arrivals = mimir.map_items(
            [None], propagate, partitioner=vertex_partitioner,
            combine_fn=cc_combine if compress else None)
        best = mimir.partial_reduce(arrivals, cc_combine,
                                    out_layout=config.layout)

        changed = False
        for key, value in best.consume():
            v = unpack_u64(key)
            label = unpack_u64(value)
            if label < labels[v]:
                labels[v] = label
                changed = True
        if not comm.any_true(changed):
            break

    return ComponentsResult(iterations, labels)
