"""Unified metrics registry: named counters, gauges, and histograms.

Every number the paper's evaluation argues from - per-phase times,
shuffle volume, spill traffic, retries, cache behaviour - is emitted
through one :class:`MetricsRegistry` instead of ad-hoc attributes
scattered across modules.  Three rules keep the data trustworthy:

1. **Closed namespace.**  A metric must be declared in :data:`METRICS`
   (name, kind, unit, emitting module, description) before anything
   may emit it; an unregistered name raises :class:`UnknownMetricError`
   at the emit site.  The catalog is what
   ``docs/metrics-reference.md`` documents and what the docs-integrity
   test diffs against, so an undocumented metric cannot ship.
2. **Per-rank shards.**  Each rank writes to its own
   :class:`MetricShard` - no locks on the hot path, and per-rank
   breakdowns (load imbalance!) survive aggregation.
3. **Explicit aggregation.**  :meth:`MetricsRegistry.totals` folds the
   shards locally (the cluster harness owns all shards, since ranks
   are threads); :func:`reduce_metrics` is the collective flavour that
   allgathers shard snapshots so every rank sees the global totals,
   the way a real MPI deployment would.

Counters sum across ranks, gauges take the maximum (they record
per-rank peaks), histograms merge bucket-wise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

#: Metric kinds.
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

_KINDS = (COUNTER, GAUGE, HISTOGRAM)


class UnknownMetricError(KeyError):
    """An emit named a metric absent from :data:`METRICS`."""

    def __init__(self, name: str, hint: str = ""):
        self.name = name
        msg = (f"metric {name!r} is not registered; declare it via "
               f"repro.obs.registry.register() and document it in "
               f"docs/metrics-reference.md")
        if hint:
            msg = f"{msg} ({hint})"
        self._msg = msg
        super().__init__(msg)

    def __str__(self) -> str:
        return self._msg


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: the row docs and tests validate."""

    name: str
    kind: str          # counter | gauge | histogram
    unit: str          # bytes, records, calls, seconds, ...
    module: str        # the emitting module (dotted path)
    description: str


#: The closed catalog of every metric the system may emit.
METRICS: dict[str, MetricSpec] = {}


def register(name: str, kind: str, unit: str, module: str,
             description: str) -> MetricSpec:
    """Declare a metric; idempotent for identical re-declarations."""
    if kind not in _KINDS:
        raise ValueError(f"metric kind must be one of {_KINDS}, got {kind!r}")
    spec = MetricSpec(name, kind, unit, module, description)
    existing = METRICS.get(name)
    if existing is not None and existing != spec:
        raise ValueError(f"metric {name!r} already registered with a "
                         f"different spec: {existing}")
    METRICS[name] = spec
    return spec


# --------------------------------------------------------------- catalog
#
# Declared centrally (not at the emit sites) so importing this module
# alone yields the complete namespace - the property the metrics
# reference documentation and its integrity test rely on.

register("core.map.records", COUNTER, "records", "repro.core.job",
         "KV records emitted through the interleaved map+aggregate")
register("core.map.kv_bytes", COUNTER, "bytes", "repro.core.job",
         "encoded KV bytes shipped through the shuffle (Fig. 7 metric)")
register("core.map.rounds", COUNTER, "rounds", "repro.core.job",
         "alltoallv exchange rounds run by map+aggregate phases")
register("core.combine.records_in", COUNTER, "records", "repro.core.combiner",
         "records routed through the map-side combiner bucket")
register("core.combine.merged", COUNTER, "records", "repro.core.combiner",
         "combiner hits: records merged into an existing bucket entry")
register("core.reduce.keys", COUNTER, "keys", "repro.core.job",
         "unique keys handed to the user reduce callback")
register("core.reduce.bytes", COUNTER, "bytes", "repro.core.job",
         "key+value bytes processed by convert+reduce")
register("core.partial_reduce.records", COUNTER, "records", "repro.core.job",
         "unique records produced by streaming partial reduction")
register("core.spill.bytes", COUNTER, "bytes", "repro.core.job",
         "bytes phase output containers spilled to the PFS")
register("core.phase.seconds", HISTOGRAM, "seconds", "repro.core.job",
         "virtual duration of each executed MapReduce phase")
register("core.batch.records", COUNTER, "records", "repro.core.job",
         "records that moved through whole-batch kernel dispatches")
register("core.batch.pages", COUNTER, "pages", "repro.core.job",
         "whole-batch kernel dispatches (one per page or chunk)")
register("core.codec.chunks", COUNTER, "chunks", "repro.core.codec",
         "page/exchange chunks framed by the configured codec")
register("core.codec.bytes_in", COUNTER, "bytes", "repro.core.codec",
         "raw bytes entering the codec (pre-compression)")
register("core.codec.bytes_out", COUNTER, "bytes", "repro.core.codec",
         "framed bytes leaving the codec (post-compression)")

register("mpi.collectives", COUNTER, "calls", "repro.mpi.comm",
         "collective operations entered (barrier/allreduce/...)")
register("mpi.alltoallv.rounds", COUNTER, "rounds", "repro.mpi.comm",
         "alltoallv data-plane exchanges")
register("mpi.alltoallv.bytes", COUNTER, "bytes", "repro.mpi.comm",
         "payload bytes this rank sent through alltoallv")

register("storage.reads", COUNTER, "calls", "repro.storage.base",
         "costed read operations, on any storage backend")
register("storage.writes", COUNTER, "calls", "repro.storage.base",
         "costed write/write_at/append operations")
register("storage.bytes_read", COUNTER, "bytes", "repro.storage.base",
         "bytes read through the costed path")
register("storage.bytes_written", COUNTER, "bytes", "repro.storage.base",
         "bytes written through the costed path")
register("storage.retries", COUNTER, "calls", "repro.storage.errors",
         "transient storage errors absorbed by the retry/backoff wrapper")

register("ft.faults.injected", COUNTER, "faults", "repro.ft.injection",
         "chaos faults that actually fired (errors, corruption, death)")
register("ft.restarts", COUNTER, "restarts", "repro.ft.runner",
         "classified job restarts performed by run_with_recovery")
register("ft.checkpoint.saves", COUNTER, "calls", "repro.ft.checkpoint",
         "checkpoint phases committed (data + marker durable)")
register("ft.checkpoint.restores", COUNTER, "calls", "repro.ft.checkpoint",
         "checkpoint phases restored instead of recomputed")
register("ft.checkpoint.invalid", COUNTER, "events", "repro.ft.checkpoint",
         "torn/corrupt/stale checkpoints detected and recomputed")
register("ft.straggler.flagged", COUNTER, "ranks", "repro.ft.elastic",
         "ranks flagged by the per-phase straggler monitor")
register("ft.speculation.launched", COUNTER, "tasks", "repro.ft.elastic",
         "backup task attempts launched on healthy ranks")
register("ft.speculation.won", COUNTER, "tasks", "repro.ft.elastic",
         "backup attempts that finished first (first-result-wins)")
register("ft.speculation.discarded", COUNTER, "tasks", "repro.ft.elastic",
         "losing duplicate task attempts killed or discarded")
register("ft.membership.changes", COUNTER, "events", "repro.ft.elastic",
         "gang membership changes (rank leave/join, scaling resize)")

register("sched.admissions", COUNTER, "jobs", "repro.sched.scheduler",
         "jobs admitted onto the cluster by admission control")
register("sched.queued", COUNTER, "events", "repro.sched.scheduler",
         "job-rounds spent waiting in the admission queue")
register("sched.ooms", COUNTER, "events", "repro.sched.scheduler",
         "blown footprint estimates absorbed by the scheduler")
register("sched.cache.hits", COUNTER, "hits", "repro.sched.cache",
         "stage-cache lookups served from memory or spill")
register("sched.cache.misses", COUNTER, "misses", "repro.sched.cache",
         "cached stages that had to be recomputed from lineage")
register("sched.cache.evictions", COUNTER, "evictions", "repro.sched.cache",
         "cache entries spilled to the PFS under memory pressure")
register("sched.cache.reloads", COUNTER, "reloads", "repro.sched.cache",
         "spilled cache entries streamed back from the PFS")
register("sched.stages.executed", COUNTER, "stages", "repro.sched.executor",
         "plan stages actually executed (restores and hits excluded)")

register("serve.submissions", COUNTER, "jobs", "repro.serve.daemon",
         "jobs accepted by the serve API and journaled durably")
register("serve.rejections.quota", COUNTER, "jobs", "repro.serve.tenants",
         "submissions rejected by a per-tenant quota check (429)")
register("serve.admissions", COUNTER, "jobs", "repro.serve.daemon",
         "served jobs admitted into a gang round by the scheduler")
register("serve.completions", COUNTER, "jobs", "repro.serve.daemon",
         "served jobs that reached a terminal done/failed state")
register("serve.cancellations", COUNTER, "jobs", "repro.serve.daemon",
         "queued jobs cancelled by their owner before admission")
register("serve.lease.expiries", COUNTER, "leases", "repro.serve.leases",
         "job leases that lapsed without a client renewal")
register("serve.gc.outputs", COUNTER, "jobs", "repro.serve.daemon",
         "lease-expired job outputs garbage-collected from the PFS")
register("serve.journal.records", COUNTER, "records", "repro.serve.journal",
         "records appended to the crash-safe job journal")
register("serve.journal.replays", COUNTER, "records", "repro.serve.journal",
         "journal records replayed during daemon recovery")
register("serve.queue.depth", GAUGE, "jobs", "repro.serve.daemon",
         "jobs waiting in the admission queue after the last tick")
register("serve.autoscale.events", COUNTER, "events", "repro.serve.daemon",
         "gang resizes applied by the daemon's ScalingPolicy")
register("serve.log.fetches", COUNTER, "calls", "repro.serve.daemon",
         "incremental job-log fetches served (offset-based API)")

register("stream.batches.ingested", COUNTER, "batches", "repro.sched.executor",
         "micro-batches lowered through source_stream stages")
register("stream.records.ingested", COUNTER, "records", "repro.sched.executor",
         "stream records lowered through source_stream stages")
register("stream.records.late", COUNTER, "records", "repro.stream.runner",
         "records that arrived behind the event-time watermark")
register("stream.windows.closed", COUNTER, "windows", "repro.stream.runner",
         "windows finalized once the watermark passed their end")
register("stream.windows.recomputed", COUNTER, "windows", "repro.stream.runner",
         "closed windows re-finalized after late arrivals")
register("stream.windows.resumed", COUNTER, "windows", "repro.stream.runner",
         "windows restored from checkpoint instead of recomputed")
register("stream.watermark", GAUGE, "seconds", "repro.stream.runner",
         "current event-time watermark (max event time - lateness)")
register("stream.window.lag", HISTOGRAM, "seconds", "repro.stream.runner",
         "processing-time lag between a window's end and its close")


# ------------------------------------------------------------ histogram

#: Decade bucket upper bounds for histogram metrics; values above the
#: last bound land in the overflow bucket.
HISTOGRAM_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self):
        self.buckets = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        for i, bound in enumerate(HISTOGRAM_BOUNDS):
            if value <= bound:
                self.buckets[i] += 1
                break
        else:
            self.buckets[-1] += 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def merge(self, other: "Histogram") -> None:
        self.buckets = [a + b for a, b in zip(self.buckets, other.buckets)]
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {"count": self.count, "total": self.total, "min": self.min,
                "max": self.max, "mean": self.mean}

    @classmethod
    def from_summary(cls, summary: dict[str, float]) -> "Histogram":
        """Rebuild the mergeable stats (buckets are not serialized)."""
        h = cls()
        h.count = int(summary.get("count", 0))
        h.total = float(summary.get("total", 0.0))
        if h.count:
            h.min = float(summary["min"])
            h.max = float(summary["max"])
        return h


# ---------------------------------------------------------------- shards

def _refuse(name: str, kind: str) -> None:
    """Raise for an emit of ``name`` as an undeclared ``kind`` (emit
    sites check inline: the reference benchmark counts every call)."""
    spec = METRICS.get(name)
    if spec is None:
        raise UnknownMetricError(name)
    raise UnknownMetricError(
        name, f"registered as a {spec.kind}, emitted as a {kind}")


class MetricShard:
    """One rank's metric storage; lock-free (one writer thread)."""

    def __init__(self, rank: int = -1):
        self.rank = rank
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        if name not in METRICS or METRICS[name].kind != COUNTER:
            _refuse(name, COUNTER)
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        if name not in METRICS or METRICS[name].kind != GAUGE:
            _refuse(name, GAUGE)
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        if name not in METRICS or METRICS[name].kind != HISTOGRAM:
            _refuse(name, HISTOGRAM)
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def value(self, name: str) -> Any:
        """Current local value (0 / empty summary when never emitted)."""
        spec = METRICS.get(name)
        if spec is None:
            raise UnknownMetricError(name)
        if spec.kind == COUNTER:
            return self.counters.get(name, 0)
        if spec.kind == GAUGE:
            return self.gauges.get(name, 0)
        hist = self.histograms.get(name)
        return hist.summary() if hist else Histogram().summary()

    def snapshot(self) -> dict[str, Any]:
        """Picklable view of every metric this shard has emitted."""
        snap: dict[str, Any] = {}
        snap.update(self.counters)
        snap.update(self.gauges)
        for name, hist in self.histograms.items():
            snap[name] = hist.summary()
        return snap


def _merge_into(totals: dict[str, Any], snapshot: dict[str, Any]) -> None:
    for name, value in snapshot.items():
        spec = METRICS.get(name)
        kind = spec.kind if spec is not None else COUNTER
        if kind == HISTOGRAM:
            merged = totals.get(name)
            if merged is None:
                totals[name] = dict(value)
            else:
                a = Histogram.from_summary(merged)
                a.merge(Histogram.from_summary(value))
                totals[name] = a.summary()
        elif kind == GAUGE:
            totals[name] = max(totals.get(name, float("-inf")), value)
        else:
            totals[name] = totals.get(name, 0) + value


def aggregate(snapshots: "list[dict[str, Any]]") -> dict[str, Any]:
    """Fold shard snapshots: counters sum, gauges max, histograms merge."""
    totals: dict[str, Any] = {}
    for snap in snapshots:
        _merge_into(totals, snap)
    return totals


def reduce_metrics(comm, shard: MetricShard) -> dict[str, Any]:
    """Collective aggregation: every rank gets the global totals.

    All ranks must call with their own shard (an ``allgather``
    underneath); the result is identical everywhere, so control flow
    keyed on it stays in lockstep.
    """
    return aggregate(comm.allgather(shard.snapshot()))


# --------------------------------------------------------------- registry

class MetricsRegistry:
    """All shards of one cluster; rank -1 is the driver/scheduler shard."""

    def __init__(self):
        self._shards: dict[int, MetricShard] = {}
        self._lock = threading.Lock()

    def shard(self, rank: int) -> MetricShard:
        """This rank's shard, created on first use."""
        with self._lock:
            shard = self._shards.get(rank)
            if shard is None:
                shard = self._shards[rank] = MetricShard(rank)
            return shard

    @property
    def shards(self) -> list[MetricShard]:
        with self._lock:
            return [self._shards[r] for r in sorted(self._shards)]

    def totals(self) -> dict[str, Any]:
        """Aggregate across every shard (driver-side convenience)."""
        return aggregate([s.snapshot() for s in self.shards])

    def histograms(self) -> dict[str, Histogram]:
        """Every histogram merged across shards, buckets included
        (``totals()`` carries only the bucket-less summaries)."""
        merged: dict[str, Histogram] = {}
        for shard in self.shards:
            for name, hist in list(shard.histograms.items()):
                merged.setdefault(name, Histogram()).merge(hist)
        return merged

    def by_rank(self, name: str) -> dict[int, Any]:
        """One metric's per-rank values (load-imbalance view)."""
        return {s.rank: s.value(name) for s in self.shards
                if name in s.snapshot()}

    def reset(self) -> None:
        with self._lock:
            self._shards.clear()

    def render(self) -> str:
        """Metric totals as an aligned table, catalog order."""
        totals = self.totals()
        if not totals:
            return "(no metrics emitted)"
        lines = [f"{'metric':<28} {'kind':<10} {'unit':<9} total"]
        for name in sorted(totals, key=lambda n: list(METRICS).index(n)
                           if n in METRICS else len(METRICS)):
            spec = METRICS.get(name)
            kind = spec.kind if spec else "?"
            unit = spec.unit if spec else "?"
            value = totals[name]
            if isinstance(value, dict):  # histogram summary
                rendered = (f"n={value['count']} mean={value['mean']:.5f} "
                            f"max={value['max']:.5f}")
            elif isinstance(value, float) and not value.is_integer():
                rendered = f"{value:.4f}"
            else:
                rendered = f"{int(value)}"
            lines.append(f"{name:<28} {kind:<10} {unit:<9} {rendered}")
        return "\n".join(lines)
