"""Seeded inputs and end-to-end drivers for the streaming demos.

Each ``demo_*`` function runs one scenario on a fresh simulated
cluster, runs the full-batch twin over the same total input, and
returns a summary dict whose ``identical`` field is the bit-compare of
the two rendered outputs - the CLI, the docs example, the benchmark,
and the tests all go through these entry points.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any

from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets.graph500 import kronecker_edges
from repro.mpi import COMET
from repro.sched import PlanRunner, StageCache
from repro.stream.runner import StreamRunner
from repro.stream.scenarios import (
    IncrementalPageRank,
    SessionizeClicks,
    StreamWordCount,
    pagerank_reference,
    sessionize_reference,
    wordcount_reference,
)
from repro.stream.source import MicroBatch, StreamRecord, StreamSource
from repro.stream.windows import GrowingWindows, TumblingWindows

#: Driver configuration every demo shares (small pages: the inputs are
#: tiny and the point is stage structure, not throughput).
DEMO_CONFIG = MimirConfig(page_size=4096, comm_buffer_size=4096,
                          input_chunk_size=1024)


# ------------------------------------------------------------- sources

def make_doc_stream(*, nbatches: int = 6, docs_per_batch: int = 4,
                    words_per_doc: int = 12, vocab: int = 40,
                    interval: float = 10.0, seed: int = 0) -> StreamSource:
    """A trickle of documents; event time = arrival time."""
    rng = random.Random(seed)
    pool = [f"w{i:03d}".encode() for i in range(vocab)]
    index = 0
    batches = []
    for _ in range(nbatches):
        docs = []
        for _ in range(docs_per_batch):
            doc = b" ".join(rng.choice(pool)
                            for _ in range(words_per_doc))
            docs.append((index, doc))
            index += 1
        batches.append(docs)
    return StreamSource.from_payload_batches("docs", batches,
                                             interval=interval)


def make_edge_stream(*, scale: int = 6, edgefactor: int = 6,
                     nbatches: int = 8, interval: float = 10.0,
                     seed: int = 0) -> StreamSource:
    """A Kronecker edge list arriving as ``nbatches`` insertion deltas."""
    edges = kronecker_edges(scale, edgefactor=edgefactor, seed=seed)
    pairs = [(int(u), int(v)) for u, v in edges.tolist()]
    per = max(1, len(pairs) // nbatches)
    batches = []
    index = 0
    for i in range(nbatches):
        chunk = pairs[i * per:(i + 1) * per] if i < nbatches - 1 \
            else pairs[(nbatches - 1) * per:]
        delta = []
        for edge in chunk:
            delta.append((index, edge))
            index += 1
        batches.append(delta)
    return StreamSource.from_payload_batches("edges", batches,
                                             interval=interval)


def make_click_stream(*, nusers: int = 6, nbatches: int = 6,
                      clicks_per_batch: int = 10, interval: float = 30.0,
                      late_every: int = 7, seed: int = 0) -> StreamSource:
    """Clickstream with genuinely late events.

    Most clicks carry an event time inside their batch's arrival
    interval; every ``late_every``-th click is stamped one to two
    intervals in the past, landing behind the watermark once earlier
    windows have closed.
    """
    rng = random.Random(seed)
    users = [f"user{i}".encode() for i in range(nusers)]
    index = 0
    batches = []
    for i in range(nbatches):
        arrival = i * interval
        records = []
        for j in range(clicks_per_batch):
            offset = rng.uniform(0.0, interval * 0.95)
            if i >= 2 and late_every and (index + 1) % late_every == 0:
                offset -= interval * rng.uniform(1.0, 2.0)
            event_ms = max(0, int((arrival + offset) * 1000))
            payload = (index, (rng.choice(users), event_ms,
                               rng.randrange(50)))
            records.append(StreamRecord(event_ms / 1000.0, payload))
            index += 1
        batches.append(MicroBatch(i, arrival, tuple(records)))
    return StreamSource("clicks", batches)


# -------------------------------------------------------------- drivers

def _job_summary(result, runner: StreamRunner) -> dict[str, Any]:
    cache = runner.runner.cache
    return {
        "final": result.final,
        "windows": result.windows,
        "timeline": result.timeline,
        "closed": result.closed,
        "resumed": result.resumed,
        "recomputed": result.recomputed,
        "late": result.late_records,
        "truncated": result.truncated,
        "stages": runner.stages_executed(),
        "cache_hits": cache.stats.hits if cache is not None else 0,
        "cache_misses": cache.stats.misses if cache is not None else 0,
    }


def run_scenario(env, scenario_cls, stream, windows, *, caches=None,
                 checkpoint_job: str | None = None,
                 nonce: str | None = None,
                 lateness: float = 0.0,
                 stop_after_windows: int | None = None, pace: bool = True,
                 trace=None, **scenario_kwargs) -> dict[str, Any]:
    """One rank's streaming run; returns the per-rank summary dict.

    ``checkpoint_job`` wires a :class:`~repro.ft.checkpoint.
    CheckpointManager` under that job id (pass the same id + ``nonce``
    again to resume a killed stream).
    """
    scenario = scenario_cls(env, config=DEMO_CONFIG, **scenario_kwargs)
    cache = caches[env.comm.rank] if caches is not None else None
    checkpoint = None
    if checkpoint_job is not None:
        from repro.ft.checkpoint import CheckpointManager
        checkpoint = CheckpointManager(env, checkpoint_job, nonce=nonce)
    runner = StreamRunner(env, scenario, stream, windows,
                          lateness=lateness,
                          runner=partial(PlanRunner, env, cache=cache,
                                         trace=trace),
                          checkpoint=checkpoint, pace=pace)
    result = runner.run(stop_after_windows=stop_after_windows)
    return _job_summary(result, runner)


def _fresh_cluster(nprocs: int) -> Cluster:
    return Cluster(COMET, nprocs=nprocs, memory_limit=None)


def demo_wordcount(*, nprocs: int = 3, seed: int = 0,
                   window: float = 20.0, trace=None) -> dict[str, Any]:
    """Live wordcount over a document trickle, tumbling windows."""
    stream = make_doc_stream(seed=seed)
    cluster = _fresh_cluster(nprocs)
    caches = [StageCache(rank) for rank in range(nprocs)]
    res = cluster.run(lambda env: run_scenario(
        env, StreamWordCount, stream, TumblingWindows(window),
        caches=caches, trace=trace))
    runs = res.returns
    refs = cluster.run(lambda env: wordcount_reference(
        env, stream, DEMO_CONFIG)).returns
    streamed = StreamWordCount.render([r["final"] for r in runs])
    batch = StreamWordCount.render(refs)
    return {
        "scenario": "wordcount",
        "identical": streamed == batch,
        "output": streamed,
        "runs": runs,
        "virtual_time": res.elapsed,
        "metrics": cluster.metrics.totals(),
    }


def demo_pagerank(*, nprocs: int = 3, seed: int = 0, nbatches: int = 8,
                  iterations: int = 2, trace=None) -> dict[str, Any]:
    """Incremental PageRank under edge insertions, growing windows.

    Runs the stream twice - with the stage cache (incremental) and
    without (full recompute per update) - plus the one-shot batch
    reference, and reports the per-update speedup the cache buys.
    """
    interval = 10.0
    stream = make_edge_stream(seed=seed, nbatches=nbatches,
                              interval=interval)
    windows = GrowingWindows(interval)

    cluster = _fresh_cluster(nprocs)
    caches = [StageCache(rank) for rank in range(nprocs)]
    inc_res = cluster.run(lambda env: run_scenario(
        env, IncrementalPageRank, stream, windows, caches=caches,
        pace=False, trace=trace, iterations=iterations))
    inc, inc_time = inc_res.returns, inc_res.elapsed

    full_cluster = _fresh_cluster(nprocs)
    full_res = full_cluster.run(lambda env: run_scenario(
        env, IncrementalPageRank, stream, windows, caches=None,
        pace=False, iterations=iterations))
    full, full_time = full_res.returns, full_res.elapsed

    ref_cluster = _fresh_cluster(nprocs)
    refs = ref_cluster.run(lambda env: pagerank_reference(
        env, stream, iterations=iterations, config=DEMO_CONFIG)).returns

    streamed = IncrementalPageRank.render([r["final"] for r in inc])
    batch = IncrementalPageRank.render(refs)
    # Per-update cost: virtual time between the last two window closes
    # (update 0 has no prior close; later updates are the steady state).
    def last_update(runs):
        timeline = runs[0]["timeline"]
        return timeline[-1][2] - timeline[-2][2] if len(timeline) > 1 \
            else timeline[-1][2]

    speedup = last_update(full) / last_update(inc)
    return {
        "scenario": "pagerank",
        "identical": streamed == batch,
        "full_identical": IncrementalPageRank.render(
            [r["final"] for r in full]) == batch,
        "output": streamed,
        "runs": inc,
        "stages_incremental": sum(r["stages"] for r in inc),
        "stages_full": sum(r["stages"] for r in full),
        "cache_hits": sum(r["cache_hits"] for r in inc),
        "time_incremental": inc_time,
        "time_full": full_time,
        "update_speedup": speedup,
        "metrics": cluster.metrics.totals(),
    }


def demo_sessionize(*, nprocs: int = 3, seed: int = 0,
                    window: float = 30.0, lateness: float = 5.0,
                    trace=None) -> dict[str, Any]:
    """Clickstream sessionization with late arrivals and repairs."""
    stream = make_click_stream(seed=seed, interval=window)
    cluster = _fresh_cluster(nprocs)
    caches = [StageCache(rank) for rank in range(nprocs)]
    res = cluster.run(lambda env: run_scenario(
        env, SessionizeClicks, stream, TumblingWindows(window),
        caches=caches, lateness=lateness, trace=trace))
    runs = res.returns
    refs = cluster.run(lambda env: sessionize_reference(
        env, stream, config=DEMO_CONFIG)).returns
    streamed = SessionizeClicks.render([r["final"] for r in runs])
    batch = SessionizeClicks.render(refs)
    return {
        "scenario": "sessionize",
        "identical": streamed == batch,
        "output": streamed,
        "runs": runs,
        "late": runs[0]["late"],
        "recomputed": runs[0]["recomputed"],
        "virtual_time": res.elapsed,
        "metrics": cluster.metrics.totals(),
    }


DEMOS = {
    "wordcount": demo_wordcount,
    "pagerank": demo_pagerank,
    "sessionize": demo_sessionize,
}
