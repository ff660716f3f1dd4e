"""The three demo streaming scenarios.

Every scenario is a duck-typed :class:`~repro.stream.runner.
StreamRunner` client.  :class:`StreamWordCount` and
:class:`IncrementalPageRank` stream an app of the serve catalog: their
``name`` is its row, ``staged(stream)`` is the stream's total input in
the format that row reads, and ``merge`` returns the row's payload, so
the row's own batch run over the staged input is their twin and the
row's ``merge_output`` renders both
(:func:`repro.stream.demo.catalog_twin`).  :class:`SessionizeClicks`
has no row; :func:`sessionize_reference` is its twin.  The acceptance
bar is *bit identity* of the rendered outputs.

Sharding note: ``source_stream`` lowers onto ``map_items``, which
iterates every payload on every rank, so each record payload carries a
global index and the per-rank map closures emit only the records they
own (``index % nprocs == rank``) - the same closure-sharding pattern
``pagerank_plan`` uses for its per-iteration contribution map.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.apps.bfs import vertex_partitioner
from repro.apps.pagerank import (
    PR_HINT_LAYOUT,
    _F64,
    pr_combine,
    unpack_f64,
)
from repro.apps.wordcount import WC_HINT_LAYOUT, wc_combine, wc_map
from repro.cluster import RankEnv
from repro.core import (
    Mimir,
    MimirConfig,
    pack_u64,
    unpack_u64,
)
from repro.core.records import KVLayout
from repro.datasets.graph500 import edges_to_bytes
from repro.sched.plan import Plan
from repro.stream.source import StreamSource

_CLICK = struct.Struct("<qq")  # (event ms, page id)


# ---------------------------------------------------------------------
# live wordcount over a document trickle
# ---------------------------------------------------------------------

def doc_stream(name: str, docs: list[bytes], *, nbatches: int,
               interval: float) -> StreamSource:
    """``docs`` as ``nbatches`` micro-batches of ``ceil(len(docs) /
    nbatches)`` documents (the last may be short or empty); a document's
    payload is ``(index, doc)``, its index counted over the stream."""
    per = -(-len(docs) // nbatches) or 1
    indexed = list(enumerate(docs))
    return StreamSource.from_payload_batches(
        name, [indexed[i * per:(i + 1) * per] for i in range(nbatches)],
        interval=interval)


class StreamWordCount:
    """Tumbling-window word counts; payloads are ``(index, doc_bytes)``.

    Per-batch counts are one cached ``map -> partial_reduce`` chain;
    a window folds the cached per-batch aggregates together through
    the *seeded* partial reduce (the incremental-window hook).  A
    batch straddling the window boundary cannot reuse its aggregate -
    its in-window records are refiltered through a window-scoped
    source stage instead.
    """

    name = "wordcount"

    def __init__(self, env: RankEnv, config: MimirConfig | None = None):
        self.env = env
        self.config = config or MimirConfig().with_layout(WC_HINT_LAYOUT)
        self.rank = env.comm.rank
        self.nprocs = env.comm.size

    @staticmethod
    def staged(stream: StreamSource) -> bytes:
        """The stream's total input as the row reads it: a line per
        document."""
        return b"".join(r.payload[1] + b"\n" for r in stream.records())

    def _shard_map(self, ctx, item) -> None:
        index, doc = item
        if index % self.nprocs == self.rank:
            wc_map(ctx, doc)

    def batch_stage(self, plan: Plan, stream: StreamSource, index: int):
        return (plan.source_stream(stream, index)
                .map(self._shard_map, name="wc-shard")
                .partial_reduce(wc_combine, out_layout=self.config.layout,
                                name="wc-batch-counts")
                .cache())

    def window_result(self, runner, window, batches) -> dict[bytes, int]:
        mimir = runner.runner.mimir
        agg = None
        for batch in batches:
            whole = all(window.contains(r.time) for r in batch.records)
            if whole:
                with runner.runner.reading(
                        runner.dataset(batch.index)) as (kvc, _):
                    agg = mimir.partial_reduce(
                        kvc, wc_combine, out_layout=self.config.layout,
                        consume=False, seed=agg)
            else:
                # Straddler: only this window's slice of the batch.
                payloads = [r.payload for r in batch.records
                            if window.contains(r.time)]
                sliced = (runner.plan
                          .source(lambda items=payloads: items,
                                  name=f"wc-straddle-b{batch.index}")
                          .map(self._shard_map, name="wc-straddle-map"))
                kvc = runner.runner.materialize(sliced)
                agg = mimir.partial_reduce(
                    kvc, wc_combine, out_layout=self.config.layout,
                    seed=agg)
        if agg is None:
            return {}
        return {key: unpack_u64(value) for key, value in agg.consume()}

    def merge(self, results: dict[int, dict[bytes, int]]) -> dict:
        """The row's payload: every window's counts, summed."""
        totals: dict[bytes, int] = {}
        for wid in sorted(results):
            for word, count in results[wid].items():
                totals[word] = totals.get(word, 0) + count
        return {"counts": {word.decode("latin-1"): count
                           for word, count in totals.items()}}


# ---------------------------------------------------------------------
# incremental PageRank under edge insertions
# ---------------------------------------------------------------------

def _emit_frag_vertices(pctx, key: bytes, value: bytes) -> None:
    """Every vertex an adjacency fragment mentions, keyed for dedup."""
    pctx.emit(key, b"")
    for target in np.frombuffer(value, dtype="<u8").tolist():
        pctx.emit(pack_u64(target), b"")


def _first(key: bytes, a: bytes, b: bytes) -> bytes:
    return a


def _dedup_targets(rctx, key: bytes, values: list[bytes]) -> None:
    targets = sorted({unpack_u64(v) for v in values})
    rctx.emit(key, b"".join(pack_u64(t) for t in targets))


class IncrementalPageRank:
    """Growing-window PageRank; payloads are ``(index, (u, v))`` edges.

    Each micro-batch is an edge *delta*.  Its adjacency fragment and
    vertex set are cached per batch; closing window ``w`` unions the
    fragments of deltas ``0..w`` rank-locally (old deltas are cache
    hits - only the newest delta's shuffle executes) and re-runs the
    rank iterations over the combined graph.
    """

    name = "pagerank"

    def __init__(self, env: RankEnv, *, damping: float = 0.85,
                 iterations: int = 2,
                 config: MimirConfig | None = None):
        self.env = env
        self.config = config or MimirConfig()
        self.damping = damping
        self.iterations = iterations
        self.rank = env.comm.rank
        self.nprocs = env.comm.size
        self._verts = {}

    @staticmethod
    def staged(stream: StreamSource) -> bytes:
        """The stream's total input as the row reads it: the edge
        list, in arrival order."""
        edges = [r.payload[1] for r in stream.records()]
        return edges_to_bytes(np.array(edges, dtype="<u8").reshape(-1, 2))

    def _shard_edges(self, ctx, item) -> None:
        index, (u, v) = item
        if index % self.nprocs == self.rank:
            ctx.emit(pack_u64(u), pack_u64(v))

    def batch_stage(self, plan: Plan, stream: StreamSource, index: int):
        frag = (plan.source_stream(stream, index)
                .map(self._shard_edges, partitioner=vertex_partitioner,
                     name="pr-edges")
                .reduce(_dedup_targets, out_layout=KVLayout(),
                        name="pr-frag")
                .cache())
        self._verts[index] = (frag
                              .map(_emit_frag_vertices,
                                   partitioner=vertex_partitioner,
                                   combine_fn=_first, name="pr-verts")
                              .cache())
        return frag

    def _combined(self, runner, batches):
        """Union the cached per-delta fragments and vertex sets."""
        adjacency: dict[int, set[int]] = {}
        owned: set[int] = set()
        reading = runner.runner.reading
        for batch in batches:
            with reading(runner.dataset(batch.index)) as (frag, _):
                for key, value in frag.records():
                    adjacency.setdefault(unpack_u64(key), set()).update(
                        np.frombuffer(value, dtype="<u8").tolist())
            with reading(self._verts[batch.index]) as (verts, _):
                owned.update(unpack_u64(k) for k, _ in verts.records())
        return ({v: sorted(t) for v, t in adjacency.items()},
                sorted(owned))

    def window_result(self, runner, window, batches) -> dict[int, float]:
        """The power loop over deltas ``0..w``.

        ``adjacency`` holds this rank's sources with *sorted* target
        lists and ``vertices`` its sorted owned universe, so the
        contribution emission order - and therefore every float fold -
        is the one ``pagerank_plan`` makes over the same edges.
        """
        adjacency, vertices = self._combined(runner, batches)
        comm = self.env.comm
        damping = self.damping
        nvertices = comm.allsum(len(vertices))
        if nvertices == 0:
            return {}
        sources = sorted(adjacency)

        def body(r, _i, scores):
            dangling = comm.allsum(sum(score for v, score in scores.items()
                                       if v not in adjacency))

            def contrib(pctx, _item, _scores=scores):
                for v in sources:
                    targets = adjacency[v]
                    if targets:
                        share = _F64.pack(_scores[v] / len(targets))
                        for t in targets:
                            pctx.emit(pack_u64(t), share)

            summed = (r.plan.source([None], name="pr-tick")
                      .map(contrib, partitioner=vertex_partitioner,
                           layout=PR_HINT_LAYOUT, name="pr-contrib")
                      .partial_reduce(pr_combine, out_layout=PR_HINT_LAYOUT,
                                      name="pr-scores"))
            base = (1.0 - damping) / nvertices + \
                damping * dangling / nvertices
            new_scores = {v: base for v in vertices}
            for key, value in r.stream(summed):
                new_scores[unpack_u64(key)] = \
                    base + damping * unpack_f64(value)
            return new_scores

        initial = {v: 1.0 / nvertices for v in vertices}
        scores, _ = runner.runner.iterate(initial, body,
                                          max_iters=self.iterations)
        return scores

    def merge(self, results: dict[int, dict[int, float]]) -> dict:
        """The row's payload: the scores after the last delta."""
        last = results[max(results)] if results else {}
        return {"ranks": {str(v): score for v, score in last.items()}}


# ---------------------------------------------------------------------
# clickstream sessionization
# ---------------------------------------------------------------------

class SessionizeClicks:
    """Event-time sessionization; payloads are
    ``(index, (user_bytes, event_ms, page_id))``.

    Per-batch stages shuffle clicks to their user's owner rank with
    the event time carried *in the value*, so a window (or a late-
    data repair) filters the cached batch containers by event time
    without re-shuffling.  Sessions are cut rank-locally at gaps
    longer than ``gap_ms`` once windows merge.
    """

    name = "sessionize"

    def __init__(self, env: RankEnv, *, gap_ms: int = 30_000,
                 config: MimirConfig | None = None):
        self.env = env
        self.config = config or MimirConfig()
        self.gap_ms = gap_ms
        self.rank = env.comm.rank
        self.nprocs = env.comm.size

    def _shard_clicks(self, ctx, item) -> None:
        index, (user, event_ms, page) = item
        if index % self.nprocs == self.rank:
            ctx.emit(user, _CLICK.pack(event_ms, page))

    def batch_stage(self, plan: Plan, stream: StreamSource, index: int):
        return (plan.source_stream(stream, index)
                .map(self._shard_clicks, name="clicks-shard")
                .cache())

    def window_result(self, runner, window, batches):
        events: dict[bytes, list[tuple[int, int]]] = {}
        lo = int(window.start * 1000)
        hi = int(window.end * 1000)
        for batch in batches:
            with runner.runner.reading(
                    runner.dataset(batch.index)) as (kvc, _):
                for user, value in kvc.records():
                    event_ms, page = _CLICK.unpack(value)
                    if lo <= event_ms < hi:
                        events.setdefault(user, []).append((event_ms, page))
        return {user: sorted(clicks) for user, clicks in events.items()}

    def _sessionize(self, clicks: list[tuple[int, int]]):
        sessions = []
        start = prev = clicks[0][0]
        count = 0
        for event_ms, _page in clicks:
            if event_ms - prev > self.gap_ms:
                sessions.append((start, prev, count))
                start = event_ms
                count = 0
            prev = event_ms
            count += 1
        sessions.append((start, prev, count))
        return sessions

    def merge(self, results: dict[int, dict]) -> dict:
        """Windows partition event time: concatenating their per-user
        sorted click lists in window order yields each user's full
        sorted history, which then session-splits at the gap."""
        history: dict[bytes, list[tuple[int, int]]] = {}
        for wid in sorted(results):
            for user, clicks in results[wid].items():
                history.setdefault(user, []).extend(clicks)
        return {user: self._sessionize(clicks)
                for user, clicks in history.items()}

    @staticmethod
    def render(finals: list[dict]) -> bytes:
        merged: dict[bytes, list] = {}
        for sessions in finals:
            merged.update(sessions)
        lines = []
        for user in sorted(merged):
            for start, end, count in merged[user]:
                lines.append(b"%s\t%d\t%d\t%d" % (user, start, end, count))
        return b"\n".join(lines) + b"\n"


def sessionize_reference(env: RankEnv, stream: StreamSource, *,
                         gap_ms: int = 30_000,
                         config: MimirConfig | None = None) -> dict:
    """Full-batch twin: shuffle all clicks, sort, session-split once."""
    scenario = SessionizeClicks(env, gap_ms=gap_ms, config=config)
    mimir = Mimir(env, scenario.config)
    kvs = mimir.map_items([r.payload for r in stream.records()],
                          scenario._shard_clicks)
    history: dict[bytes, list[tuple[int, int]]] = {}
    for user, value in kvs.consume():
        history[user] = history.get(user, [])
        history[user].append(_CLICK.unpack(value))
    return {user: scenario._sessionize(sorted(clicks))
            for user, clicks in history.items()}
