"""The three demo streaming scenarios, each with a full-batch twin.

Every scenario is a duck-typed :class:`~repro.stream.runner.
StreamRunner` client plus a ``*_reference`` function that computes the
same answer over the same total input in one conventional batch pass.
The acceptance bar is *bit identity*: ``render()`` over the streamed
finals and over the batch references must produce identical bytes.

Sharding note: ``source_stream`` lowers onto ``map_items``, which
iterates every payload on every rank, so each record payload carries a
global index and the per-rank map closures emit only the records they
own (``index % nprocs == rank``) - the same closure-sharding pattern
``pagerank_plan`` uses for its per-iteration contribution map.  Stream
and reference paths share one sharding rule (and, for PageRank, one
iteration-loop helper), which is what makes their float folds
bitwise identical.
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
from repro.apps.wordcount import WC_HINT_LAYOUT, wc_combine
from repro.cluster import RankEnv
from repro.core import (
    Mimir,
    MimirConfig,
    pack_u64,
    unpack_u64,
)
from repro.core.records import KVLayout
from repro.sched.executor import PlanRunner
from repro.sched.plan import Plan
from repro.stream.source import StreamSource

_ONE = pack_u64(1)
_CLICK = struct.Struct("<qq")  # (event ms, page id)


# ---------------------------------------------------------------------
# live wordcount over a document trickle
# ---------------------------------------------------------------------

class StreamWordCount:
    """Tumbling-window word counts; payloads are ``(index, doc_bytes)``.

    Per-batch counts are one cached ``map -> partial_reduce`` chain;
    a window folds the cached per-batch aggregates together through
    the *seeded* partial reduce (the incremental-window hook).  A
    batch straddling the window boundary cannot reuse its aggregate -
    its in-window records are refiltered through a window-scoped
    source stage instead.
    """

    def __init__(self, env: RankEnv, config: MimirConfig | None = None):
        self.env = env
        self.config = config or MimirConfig().with_layout(WC_HINT_LAYOUT)
        self.name = "wordcount"
        self.rank = env.comm.rank
        self.nprocs = env.comm.size

    def _shard_map(self, ctx, item) -> None:
        index, doc = item
        if index % self.nprocs == self.rank:
            for word in doc.split():
                ctx.emit(word, _ONE)

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

    def merge(self, results: dict[int, dict[bytes, int]]) -> dict[bytes, int]:
        totals: dict[bytes, int] = {}
        for wid in sorted(results):
            for word, count in results[wid].items():
                totals[word] = totals.get(word, 0) + count
        return totals

    @staticmethod
    def render(finals: list[dict[bytes, int]]) -> bytes:
        merged: dict[bytes, int] = {}
        for counts in finals:
            for word, count in counts.items():
                merged[word] = merged.get(word, 0) + count
        lines = [b"%s\t%d" % (w, merged[w]) for w in sorted(merged)]
        return b"\n".join(lines) + b"\n"


def wordcount_reference(env: RankEnv, stream: StreamSource,
                        config: MimirConfig | None = None) -> dict[bytes, int]:
    """Full-batch twin: count every record of the stream in one pass."""
    scenario = StreamWordCount(env, config)
    mimir = Mimir(env, scenario.config)
    kvs = mimir.map_items([r.payload for r in stream.records()],
                          scenario._shard_map)
    out = mimir.partial_reduce(kvs, wc_combine,
                               out_layout=scenario.config.layout)
    return {key: unpack_u64(value) for key, value in out.consume()}


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


def _pr_loop(env: RankEnv, prunner: PlanRunner,
             adjacency: dict[int, list[int]], vertices: list[int], *,
             damping: float, iterations: int) -> dict[int, float]:
    """The shared PageRank power loop (stream and batch twins).

    ``adjacency`` holds this rank's sources with *sorted* target
    lists and ``vertices`` this rank's sorted owned universe, so the
    contribution emission order - and therefore every float fold -
    is identical no matter how the adjacency was accumulated.
    """
    comm = env.comm
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
            new_scores[unpack_u64(key)] = base + damping * unpack_f64(value)
        return new_scores

    initial = {v: 1.0 / nvertices for v in vertices}
    scores, _ = prunner.iterate(initial, body, max_iters=iterations)
    return scores


class IncrementalPageRank:
    """Growing-window PageRank; payloads are ``(index, (u, v))`` edges.

    Each micro-batch is an edge *delta*.  Its adjacency fragment and
    vertex set are cached per batch; closing window ``w`` unions the
    fragments of deltas ``0..w`` rank-locally (old deltas are cache
    hits - only the newest delta's shuffle executes) and re-runs the
    rank iterations over the combined graph.
    """

    def __init__(self, env: RankEnv, *, damping: float = 0.85,
                 iterations: int = 2,
                 config: MimirConfig | None = None):
        self.env = env
        self.config = config or MimirConfig()
        self.name = "pagerank"
        self.damping = damping
        self.iterations = iterations
        self.rank = env.comm.rank
        self.nprocs = env.comm.size
        self._verts = {}

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
        adjacency, vertices = self._combined(runner, batches)
        return _pr_loop(self.env, runner.runner, adjacency, vertices,
                        damping=self.damping, iterations=self.iterations)

    def merge(self, results: dict[int, dict[int, float]]) -> dict[int, float]:
        """The stream's answer is the scores after the last delta."""
        return results[max(results)] if results else {}

    @staticmethod
    def render(finals: list[dict[int, float]]) -> bytes:
        merged: dict[int, float] = {}
        for scores in finals:
            merged.update(scores)
        lines = [b"%d\t%s" % (v, repr(merged[v]).encode())
                 for v in sorted(merged)]
        return b"\n".join(lines) + b"\n"


def pagerank_reference(env: RankEnv, stream: StreamSource, *,
                       damping: float = 0.85, iterations: int = 2,
                       config: MimirConfig | None = None) -> dict[int, float]:
    """Full-batch twin: one fragment over all edges, same power loop."""
    scenario = IncrementalPageRank(env, damping=damping,
                                   iterations=iterations, config=config)
    plan = Plan("pagerank-batch", scenario.config)
    prunner = PlanRunner(env, plan)
    items = [r.payload for r in stream.records()]
    frag = (plan.source(items, name="pr-batch-edges")
            .map(scenario._shard_edges, partitioner=vertex_partitioner,
                 name="pr-edges")
            .reduce(_dedup_targets, out_layout=KVLayout(), name="pr-frag"))
    adjacency: dict[int, list[int]] = {}
    for key, value in prunner.stream(frag):
        adjacency[unpack_u64(key)] = \
            np.frombuffer(value, dtype="<u8").tolist()
    verts = (plan.source(items, name="pr-batch-verts-src")
             .map(scenario._shard_edges, partitioner=vertex_partitioner,
                  name="pr-edges-for-verts")
             .reduce(_dedup_targets, out_layout=KVLayout(),
                     name="pr-frag-for-verts")
             .map(_emit_frag_vertices, partitioner=vertex_partitioner,
                  combine_fn=_first, name="pr-verts"))
    vertices = sorted({unpack_u64(k) for k, _ in prunner.stream(verts)})
    return _pr_loop(env, prunner, adjacency, vertices,
                    damping=damping, iterations=iterations)


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

    def __init__(self, env: RankEnv, *, gap_ms: int = 30_000,
                 config: MimirConfig | None = None):
        self.env = env
        self.config = config or MimirConfig()
        self.name = "sessionize"
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
