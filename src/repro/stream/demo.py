"""Seeded inputs, twins and the one driver of the streaming demos.

Each :data:`DEMOS` row names a scenario, its seeded stream, windows,
lateness allowance, pacing and batch twin.  :func:`run_demo` runs a
row's stream twice on fresh simulated clusters - with a stage cache
(incremental) and without (full recompute per window) - runs the twin
over the same total input, and returns a summary whose ``identical``
field is the bit-compare of the cached pass's rendered output with
the twin's; the CLI, the benchmark and the tests all go through it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets.graph500 import kronecker_edges
from repro.mpi import COMET
from repro.sched import PlanRunner, StageCache
from repro.serve.catalog import merge_output, run_direct
from repro.stream.runner import StreamRunner
from repro.stream.scenarios import (
    IncrementalPageRank,
    SessionizeClicks,
    StreamWordCount,
    doc_stream,
    sessionize_reference,
)
from repro.stream.source import MicroBatch, StreamRecord, StreamSource
from repro.stream.windows import GrowingWindows, TumblingWindows

#: Driver configuration every demo shares (small pages: the inputs are
#: tiny and the point is stage structure, not throughput).
DEMO_CONFIG = MimirConfig(page_size=4096, comm_buffer_size=4096,
                          input_chunk_size=1024)


# ------------------------------------------------------------- sources

#: Shape of the document stream: documents per batch, words per document.
DOCS_PER_BATCH = 4
WORDS_PER_DOC = 12
#: Shape of the click stream: users, clicks per batch, and every how
#: many clicks one is stamped in the past.
CLICK_USERS = 6
CLICKS_PER_BATCH = 10
LATE_EVERY = 7


def make_doc_stream(*, nbatches: int = 6, vocab: int = 40,
                    interval: float = 10.0, seed: int = 0) -> StreamSource:
    """A trickle of documents; event time = arrival time."""
    rng = random.Random(seed)
    pool = [f"w{i:03d}".encode() for i in range(vocab)]
    docs = [b" ".join(rng.choice(pool) for _ in range(WORDS_PER_DOC))
            for _ in range(nbatches * DOCS_PER_BATCH)]
    return doc_stream("docs", docs, nbatches=nbatches, interval=interval)


def make_edge_stream(*, scale: int = 6, edgefactor: int = 6,
                     nbatches: int = 8, interval: float = 10.0,
                     seed: int = 0) -> StreamSource:
    """A Kronecker edge list arriving as ``nbatches`` insertion deltas."""
    edges = kronecker_edges(scale, edgefactor=edgefactor, seed=seed)
    indexed = list(enumerate((int(u), int(v)) for u, v in edges.tolist()))
    per = max(1, len(indexed) // nbatches)
    deltas = [indexed[i * per:(i + 1) * per] for i in range(nbatches - 1)]
    deltas.append(indexed[(nbatches - 1) * per:])
    return StreamSource.from_payload_batches("edges", deltas,
                                             interval=interval)


def make_click_stream(*, nbatches: int = 6, interval: float = 30.0,
                      seed: int = 0) -> StreamSource:
    """Clickstream with genuinely late events.

    Most clicks carry an event time inside their batch's arrival
    interval; every :data:`LATE_EVERY`-th click is stamped one to two
    intervals in the past, landing behind the watermark once earlier
    windows have closed.
    """
    rng = random.Random(seed)
    users = [f"user{i}".encode() for i in range(CLICK_USERS)]
    index = 0
    batches = []
    for i in range(nbatches):
        arrival = i * interval
        records = []
        for j in range(CLICKS_PER_BATCH):
            offset = rng.uniform(0.0, interval * 0.95)
            if i >= 2 and (index + 1) % LATE_EVERY == 0:
                offset -= interval * rng.uniform(1.0, 2.0)
            event_ms = max(0, int((arrival + offset) * 1000))
            payload = (index, (rng.choice(users), event_ms,
                               rng.randrange(50)))
            records.append(StreamRecord(event_ms / 1000.0, payload))
            index += 1
        batches.append(MicroBatch(i, arrival, tuple(records)))
    return StreamSource("clicks", batches)


# --------------------------------------------------------------- twins

def _fresh_cluster(nprocs: int, trace=None) -> Cluster:
    return Cluster(COMET, nprocs=nprocs, memory_limit=None, trace=trace)


def catalog_twin(scenario, stream: StreamSource, nprocs: int,
                 **params) -> bytes:
    """The batch twin of a scenario that streams a catalog app: its
    row, run direct with ``params`` over the stream's total input
    staged on a fresh cluster, and merged into the row's output."""
    cluster = _fresh_cluster(nprocs)
    path = f"stream/{stream.name}"
    cluster.pfs.store(path, scenario.staged(stream))
    returns = cluster.run(lambda env: run_direct(
        scenario.name, env, path, params)).returns
    return merge_output(scenario.name, returns)


def sessionize_twin(stream: StreamSource, nprocs: int) -> bytes:
    """:func:`sessionize_reference` on a fresh cluster, rendered."""
    return SessionizeClicks.render(_fresh_cluster(nprocs).run(
        lambda env: sessionize_reference(
            env, stream, config=DEMO_CONFIG)).returns)


# -------------------------------------------------------------- drivers

def run_scenario(env, scenario_cls, stream, windows, *, caches=None,
                 checkpoint_job: str | None = None,
                 nonce: str | None = None,
                 lateness: float = 0.0,
                 stop_after_windows: int | None = None, pace: bool = True,
                 **scenario_kwargs) -> dict[str, Any]:
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
                          runner=partial(PlanRunner, env, cache=cache),
                          checkpoint=checkpoint, pace=pace)
    result = runner.run(stop_after_windows=stop_after_windows)
    return {
        "final": result.final,
        "windows": result.windows,
        "timeline": result.timeline,
        "close_seconds": result.close_seconds,
        "closed": result.closed,
        "resumed": result.resumed,
        "recomputed": result.recomputed,
        "late": result.late_records,
        "truncated": result.truncated,
        "stages": runner.stages_executed(),
        "cache_hits": cache.stats.hits if cache is not None else 0,
        "cache_misses": cache.stats.misses if cache is not None else 0,
    }


@dataclass(frozen=True)
class Demo:
    """One demo: ``stream(seed=, **kw)`` builds its input; ``render``
    turns the streamed finals into bytes and ``twin(stream, nprocs,
    **params)`` computes the bytes they must equal; ``params`` are the
    scenario's keywords (its twin's too) and their defaults."""

    scenario: type
    stream: Callable[..., StreamSource]
    windows: Any
    render: Callable[[list], bytes]
    twin: Callable[..., bytes]
    lateness: float = 0.0
    pace: bool = True
    params: dict[str, Any] = field(default_factory=dict)


def _catalog_demo(scenario, stream, windows, **kw) -> Demo:
    """A demo of a scenario that streams a catalog app."""
    return Demo(scenario, stream, windows,
                partial(merge_output, scenario.name),
                partial(catalog_twin, scenario), **kw)


DEMOS: dict[str, Demo] = {
    # Live wordcount over a document trickle, tumbling windows.
    "wordcount": _catalog_demo(StreamWordCount, make_doc_stream,
                               TumblingWindows(20.0)),
    # PageRank after each edge insertion delta, growing windows.
    "pagerank": _catalog_demo(IncrementalPageRank, make_edge_stream,
                              GrowingWindows(10.0), pace=False,
                              params={"iterations": 2}),
    # Clickstream sessions with late arrivals and repairs.
    "sessionize": Demo(SessionizeClicks, make_click_stream,
                       TumblingWindows(30.0), SessionizeClicks.render,
                       sessionize_twin, lateness=5.0),
}


def run_demo(name: str, *, nprocs: int = 3, seed: int = 0, trace=None,
             **kw) -> dict[str, Any]:
    """Run demo ``name``: the cached pass (traced into ``trace``), the
    uncached pass and the twin, each on a fresh cluster.

    A keyword the row's ``params`` names goes to the scenario and its
    twin, any other to the stream builder.  The per-update speedup is
    the uncached over the cached pass's virtual seconds spent closing
    the last window the watermark closed (the steady state; the
    end-of-stream flush is left out, and with no watermark close the
    speedup is NaN).
    """
    row = DEMOS[name]
    params = {key: kw.pop(key, value) for key, value in row.params.items()}
    stream = row.stream(seed=seed, **kw)

    def stream_pass(caches, trace):
        return _fresh_cluster(nprocs, trace).run(lambda env: run_scenario(
            env, row.scenario, stream, row.windows, caches=caches,
            lateness=row.lateness, pace=row.pace, **params))

    inc = stream_pass([StageCache(r) for r in range(nprocs)], trace)
    full = stream_pass(None, None)
    batch = row.twin(stream, nprocs, **params)
    streamed = row.render([r["final"] for r in inc.returns])

    def last_update(res):
        closes = res.returns[0]["close_seconds"]
        return closes[-1] if closes else math.nan

    run = inc.returns[0]
    return {
        "scenario": name,
        "identical": streamed == batch,
        "full_identical": row.render(
            [r["final"] for r in full.returns]) == batch,
        "output": streamed,
        "runs": inc.returns,
        "late": run["late"],
        "recomputed": run["recomputed"],
        "stages_incremental": sum(r["stages"] for r in inc.returns),
        "stages_full": sum(r["stages"] for r in full.returns),
        "cache_hits": sum(r["cache_hits"] for r in inc.returns),
        "virtual_time": inc.elapsed,
        "time_full": full.elapsed,
        "update_speedup": last_update(full) / last_update(inc),
    }
