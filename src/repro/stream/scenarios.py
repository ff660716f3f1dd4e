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

A catalog scenario's window is a chain of plan stages over its cached
batch stages: each batch folds onto the batches before it through a
seeded partial reduce (``Dataset.partial_reduce(fn, seed=...)``, the
partial-reduction invariance of the paper's Section III-C1), so every
fold is counted, charged, traced and, where cached, reused.  The
PageRank window then runs the row's own power loop,
:func:`repro.apps.pagerank.power_iterate`.

Sharding note: ``source_stream`` lowers onto ``map_items``, which
iterates every payload on every rank, so each record payload carries a
global index and the per-rank map closures emit only the records they
own (``index % nprocs == rank``).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.apps.bfs import vertex_partitioner
from repro.apps.pagerank import (
    PR_HINT_LAYOUT,
    _any_out,
    _emit_edges,
    _emit_vertices,
    by_vertex,
    dedup_targets,
    power_iterate,
)
from repro.apps.wordcount import WC_HINT_LAYOUT, wc_combine, wc_map
from repro.cluster import RankEnv
from repro.core import Mimir, MimirConfig, unpack_u64
from repro.core.records import KVLayout
from repro.datasets.graph500 import edges_to_bytes
from repro.sched.plan import Dataset, Plan
from repro.stream.source import StreamSource

_EDGE = struct.Struct("<QQ")  # one (source, target) edge record
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

    Per-batch counts are one cached ``map -> partial_reduce`` chain.  A
    window is a chain of seeded partial reduces: each of its batches
    folds onto the batches before it.  A batch wholly inside the window
    folds its cached counts; a batch straddling the window boundary
    cannot, so its in-window records are refiltered through a
    window-scoped source stage and folded instead.
    """

    name = "wordcount"

    def __init__(self, env: RankEnv, config: MimirConfig | None = None):
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
        counts = None
        for batch in batches:
            if all(window.contains(r.time) for r in batch.records):
                part = runner.dataset(batch.index)
            else:
                # Straddler: only this window's slice of the batch.
                payloads = [r.payload for r in batch.records
                            if window.contains(r.time)]
                part = (runner.plan
                        .source(lambda items=payloads: items,
                                name=f"wc-straddle-b{batch.index}")
                        .map(self._shard_map, name="wc-straddle-map"))
            counts = part.partial_reduce(
                wc_combine, seed=counts, out_layout=self.config.layout,
                name="wc-window")
        if counts is None:
            return {}
        return {key: unpack_u64(value)
                for key, value in runner.runner.stream(counts)}

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

def _union_targets(key: bytes, a: bytes, b: bytes) -> bytes:
    """Fold two sorted target lists of one source into their sorted
    union."""
    return np.union1d(np.frombuffer(a, dtype="<u8"),
                      np.frombuffer(b, dtype="<u8")).astype("<u8").tobytes()


class IncrementalPageRank:
    """Growing-window PageRank; payloads are ``(index, (u, v))`` edges.

    Each micro-batch is an edge *delta*, and its stages are the
    ``pagerank`` row's: its adjacency fragment (``dedup_targets``) and
    its vertex flags, both cached.  Closing window ``w`` folds delta
    ``w``'s fragment onto window ``w - 1``'s adjacency (a sorted union
    of target lists, then sorted by source) and its flags onto window
    ``w - 1``'s flags, then runs the row's power loop,
    :func:`~repro.apps.pagerank.power_iterate`.  A fold's identity is
    its batches' lineage, so window ``w - 1``'s adjacency and flags are
    cache hits and only delta ``w``'s stages and folds execute.  Once
    window ``w``'s folds are cached nothing reads ``w - 1``'s again,
    so they are dropped.
    """

    name = "pagerank"

    def __init__(self, env: RankEnv, *, iterations: int = 2,
                 config: MimirConfig | None = None):
        # The row's default ``hint``: fixed-width ids and scores.
        self.config = (config or MimirConfig()).with_layout(PR_HINT_LAYOUT)
        self.iterations = iterations
        self.rank = env.comm.rank
        self.nprocs = env.comm.size
        #: The last closed window's cached folds (adjacency, flags).
        self._folds: tuple[Dataset, ...] = ()

    @staticmethod
    def staged(stream: StreamSource) -> bytes:
        """The stream's total input as the row reads it: the edge
        list, in arrival order."""
        edges = [r.payload[1] for r in stream.records()]
        return edges_to_bytes(np.array(edges, dtype="<u8").reshape(-1, 2))

    def _sharded(self, emit):
        """The row's map callback ``emit`` over the edges this rank
        owns, each as a one-edge chunk."""
        def shard(ctx, item) -> None:
            index, edge = item
            if index % self.nprocs == self.rank:
                emit(ctx, _EDGE.pack(*edge))
        return shard

    def batch_stage(self, plan: Plan, stream: StreamSource, index: int):
        """Delta ``index``'s adjacency fragment and vertex flags."""
        edges = plan.source_stream(stream, index)
        frag = (edges
                .map(self._sharded(_emit_edges),
                     partitioner=vertex_partitioner, name="pr-edges")
                .reduce(dedup_targets, out_layout=KVLayout(),
                        name="pr-frag")
                .cache())
        flags = edges.map(self._sharded(_emit_vertices),
                          partitioner=vertex_partitioner,
                          combine_fn=_any_out, name="pr-verts").cache()
        return frag, flags

    def window_result(self, runner, window, batches) -> dict[int, float]:
        if not batches:
            return {}
        adjacency = flags = None
        # A fold's identity is its batches' lineage, not the window's
        # salt: window ``w``'s folds are window ``w + 1``'s seeds.
        with runner.plan.salted(""):
            for batch in batches:
                frag, batch_flags = runner.dataset(batch.index)
                adjacency = (frag
                             .partial_reduce(_union_targets, seed=adjacency,
                                             out_layout=KVLayout(),
                                             name="pr-union")
                             .sort_local(key_fn=by_vertex,
                                         name="pr-adjacency")
                             .cache())
                flags = batch_flags.partial_reduce(
                    _any_out, seed=flags, name="pr-flags").cache()
        ranks = power_iterate(runner.runner, adjacency, flags,
                              iterations=self.iterations).ranks
        cache = runner.runner.cache
        if cache is not None:    # every rank closes, so drops, together
            for fold in self._folds:
                if fold.key not in (adjacency.key, flags.key):
                    cache.drop(fold.key)
        self._folds = (adjacency, flags)
        return ranks

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
