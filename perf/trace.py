"""Span tracer that measures the engine's layers from the outside.

One table, :data:`BOUNDARIES`, names the public callables that form
each layer's boundary.  Inside :func:`tracing` every one of them is
swapped for a wrapper that records a span - name, thread, parent (from
a thread-local stack), ``perf_counter`` and ``thread_time`` at entry
and exit - and the originals are put back on exit, also after an
exception.  Nothing under ``src/`` knows it is being traced.

Generators are handled so that only time spent *inside* ``next()``
counts: a wrapped callable that returns a generator hands back a proxy
that opens one span per resumption.  The consumer's time between two
items therefore stays with the consumer.

A span's *self* time is its duration minus its children's.  Shares are
taken over the summed CPU (``thread_time``) of the root spans - the
benchmark's own root on the main thread plus one root per thread the
job starts - so under the GIL they add up to 1 and tell which layer
the interpreter was executing.

Per-record functions (``KVLayout.encode_into``, ``Shuffler.emit``,
``KVContainer.add``, ``KMVContainer.append_value``,
``MemoryTracker.allocate``, ``MetricShard.inc``, per-key reduce and
combine kernels) are *not* in the table: a span costs a few
microseconds, which would swamp them.  Their time stays in the
enclosing span and their exact call counts come from ``count.py``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from types import GeneratorType
from typing import Any, Iterator, NamedTuple

#: Span key under which root spans (and so everything outside a named
#: layer) are reported.
UNATTRIBUTED = "perf.unattributed"
#: Span name of the root of every thread started while tracing.
THREAD_ROOT = "Thread.run"

#: layer key -> (module, dotted attribute path) of each boundary
#: callable.  The layer key is the stem of the ``<key>.cpu_share``
#: per-layer metric.
BOUNDARIES: dict[str, list[tuple[str, str]]] = {
    "io.readers": [
        ("repro.io.readers", "iter_text_chunks"),
        ("repro.io.readers", "iter_binary_chunks"),
        ("repro.io.readers", "iter_text_chunks_multi"),
        ("repro.io.readers", "iter_binary_chunks_multi"),
    ],
    "apps.kernel": [
        ("repro.apps.wordcount", "wordcount_mimir"),
        ("repro.apps.wordcount", "wordcount_plan"),
        ("repro.apps.wordcount", "wc_map"),
        ("repro.apps.wordcount", "wc_map_batch"),
        ("repro.apps.wordcount", "wc_reduce_batch"),
        ("repro.apps.wordcount", "wc_fold_batch"),
        ("repro.apps.terasort", "terasort_mimir"),
        ("repro.apps.pagerank", "pagerank_plan"),
        ("repro.apps.bfs", "bfs_plan"),
    ],
    "core.job": [
        ("repro.core.job", "Mimir.map_text_file"),
        ("repro.core.job", "Mimir.map_binary_file"),
        ("repro.core.job", "Mimir.map_text_files"),
        ("repro.core.job", "Mimir.map_binary_files"),
        ("repro.core.job", "Mimir.map_items"),
        ("repro.core.job", "Mimir.map_kvs"),
        ("repro.core.job", "Mimir.reduce"),
        ("repro.core.job", "Mimir.partial_reduce"),
        ("repro.core.job", "Mimir.sort_local"),
        ("repro.core.job", "Mimir.write_output"),
        ("repro.core.job", "Mimir.write_output_global"),
    ],
    "core.shuffle.emit": [
        ("repro.core.shuffle", "Shuffler.emit_run"),
        ("repro.core.shuffle", "Shuffler.emit_pairs"),
        ("repro.core.shuffle", "Shuffler.emit_batch"),
        ("repro.core.shuffle", "Shuffler.emit_keyed_batch"),
    ],
    "core.shuffle.exchange": [
        ("repro.core.shuffle", "Shuffler.exchange"),
    ],
    "core.records.scan": [
        ("repro.core.records", "KVLayout.scan"),
    ],
    "core.kvcontainer": [
        ("repro.core.kvcontainer", "KVContainer.extend_encoded"),
        ("repro.core.kvcontainer", "KVContainer.batches"),
        ("repro.core.kvcontainer", "KVContainer.consume_batches"),
    ],
    "core.convert": [
        ("repro.core.convert", "convert_to_kmv"),
        ("repro.core.convert", "iter_grouped"),
        ("repro.core.convert", "iter_grouped_batches"),
    ],
    "core.combiner": [
        ("repro.core.combiner", "Combiner.emit_run"),
        ("repro.core.combiner", "Combiner.emit_pairs"),
        ("repro.core.combiner", "Combiner.emit_batch"),
        ("repro.core.combiner", "Combiner.finish"),
    ],
    "core.partial_reduction": [
        ("repro.core.partial_reduction", "partial_reduce"),
    ],
    "core.codec": [
        ("repro.core.codec", "Codec.encode_frame"),
        ("repro.core.codec", "Codec.decode_frame"),
    ],
    "core.sort": [
        ("repro.core.sort", "global_sort"),
    ],
    "mpi.comm": [
        ("repro.mpi.comm", "SimComm.alltoallv"),
        ("repro.mpi.comm", "SimComm.allreduce"),
        ("repro.mpi.comm", "SimComm.barrier"),
        ("repro.mpi.comm", "SimComm.allgather"),
        ("repro.mpi.comm", "SimComm.scan"),
        ("repro.mpi.comm", "SimComm.bcast"),
    ],
    "storage": [
        ("repro.storage.base", "StorageBackend.read"),
        ("repro.storage.base", "StorageBackend.write"),
        ("repro.storage.base", "StorageBackend.write_at"),
        ("repro.storage.base", "StorageBackend.append"),
        ("repro.storage.base", "StorageBackend.store"),
        ("repro.storage.base", "StorageBackend.fetch"),
    ],
    "io.spill": [
        ("repro.io.spill", "SpillWriter.write_chunk"),
        ("repro.io.spill", "SpillWriter.write_encoded"),
        ("repro.io.spill", "SpillWriter.reader"),
        # ``reader()`` only builds the iterator; the reads happen here.
        ("repro.io.spill", "SpillReader.__next__"),
    ],
    "cluster.launch": [
        ("repro.cluster", "Cluster.run"),
    ],
    "sched": [
        ("repro.sched.scheduler", "Scheduler.run_round"),
        ("repro.sched.executor", "PlanRunner.materialize"),
        ("repro.sched.cache", "StageCache.get"),
        ("repro.sched.cache", "StageCache.put"),
    ],
    "serve": [
        ("repro.serve.daemon", "ServeDaemon.submit"),
        ("repro.serve.daemon", "ServeDaemon.tick"),
        ("repro.serve.journal", "ServeJournal.append"),
    ],
    # One root per thread the job starts, so a rank thread's whole CPU
    # is in the denominator and what no layer claims is visible.
    UNATTRIBUTED: [
        ("threading", THREAD_ROOT),
    ],
}


class Span(NamedTuple):
    """One recorded interval on one thread."""

    #: Position of the enclosing span in the thread's list, -1 for a root.
    parent: int
    layer: str
    name: str
    wall_start: float
    wall_end: float
    cpu_start: float
    cpu_end: float


class _ThreadLog:
    """Spans of one thread plus its open-span stack."""

    __slots__ = ("thread_name", "spans", "stack")

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.spans: list[Span] = []
        self.stack: list[int] = []


class Tracer:
    """Collects spans while :func:`tracing` is active."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs: list[_ThreadLog] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self.logs.append(log)
        return log

    def _enter(self) -> tuple:
        log = self._log()
        stack = log.stack
        parent = stack[-1] if stack else -1
        index = len(log.spans)
        log.spans.append(None)      # type: ignore[arg-type] - filled by _exit
        stack.append(index)
        return log, index, parent, time.thread_time(), time.perf_counter()

    def _exit(self, layer: str, name: str, token: tuple) -> None:
        wall_end = time.perf_counter()
        cpu_end = time.thread_time()
        log, index, parent, cpu_start, wall_start = token
        log.stack.pop()
        log.spans[index] = Span(parent, layer, name, wall_start, wall_end,
                                cpu_start, cpu_end)

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        token = self._enter()
        try:
            yield
        finally:
            self._exit(layer, name, token)

    # ----------------------------------------------------------- wrapping

    def _iterate(self, layer: str, name: str, gen: GeneratorType):
        """Proxy a generator: one span per resumption, none in between."""
        try:
            while True:
                token = self._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(layer, name, token)
                yield item
        finally:
            gen.close()

    def wrap(self, layer: str, name: str, fn):
        """The traced stand-in for ``fn``."""
        enter, leave, iterate = self._enter, self._exit, self._iterate

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            token = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(layer, name, token)
            if isinstance(result, GeneratorType):
                return iterate(layer, name, result)
            return result

        return traced

    # ---------------------------------------------------------- reporting

    # Call these once the traced block has ended: every span is closed
    # and no thread appends any more.

    def summary(self) -> "TraceSummary":
        return summarize(self.logs)

    def chrome_events(self) -> list[dict[str, Any]]:
        """The spans as Chrome / Perfetto ``traceEvents``."""
        logs = self.logs
        origin = min((s.wall_start for log in logs for s in log.spans),
                     default=0.0)
        events: list[dict[str, Any]] = []
        for tid, log in enumerate(logs):
            events.append({"ph": "M", "pid": 1, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": log.thread_name}})
            for span in log.spans:
                events.append({
                    "ph": "X", "pid": 1, "tid": tid,
                    "name": span.name, "cat": span.layer,
                    "ts": (span.wall_start - origin) * 1e6,
                    "dur": (span.wall_end - span.wall_start) * 1e6,
                    "args": {"cpu_us": (span.cpu_end - span.cpu_start) * 1e6,
                             "parent": span.parent},
                })
        return events

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"traceEvents": self.chrome_events(),
                       "displayTimeUnit": "ms"}, handle)


class TraceSummary(NamedTuple):
    """Per-layer totals of one traced rep."""

    #: layer -> summed self CPU seconds (root spans under UNATTRIBUTED).
    self_cpu: dict[str, float]
    #: layer -> summed self wall seconds minus self CPU seconds.
    self_off_cpu: dict[str, float]
    #: layer -> number of spans.
    calls: dict[str, int]
    #: Summed CPU seconds of the root spans: the job's whole CPU.
    total_cpu: float
    #: Summed wall seconds of the roots of the threads the job started
    #: (the rank threads), i.e. without the benchmark's own root.
    thread_wall: float

    def cpu_share(self, layer: str) -> float:
        if self.total_cpu <= 0:
            return 0.0
        return self.self_cpu.get(layer, 0.0) / self.total_cpu


def summarize(logs: list[_ThreadLog]) -> TraceSummary:
    self_cpu: dict[str, float] = defaultdict(float)
    self_off: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total_cpu = 0.0
    thread_wall = 0.0
    for log in logs:
        spans = log.spans
        child_cpu = [0.0] * len(spans)
        child_wall = [0.0] * len(spans)
        for span in spans:
            cpu = span.cpu_end - span.cpu_start
            wall = span.wall_end - span.wall_start
            if span.parent >= 0:
                child_cpu[span.parent] += cpu
                child_wall[span.parent] += wall
            else:
                total_cpu += cpu
                if span.name == THREAD_ROOT:
                    thread_wall += wall
        for index, span in enumerate(spans):
            cpu = span.cpu_end - span.cpu_start - child_cpu[index]
            wall = span.wall_end - span.wall_start - child_wall[index]
            self_cpu[span.layer] += cpu
            self_off[span.layer] += wall - cpu
            calls[span.layer] += 1
    return TraceSummary(dict(self_cpu), dict(self_off), dict(calls),
                        total_cpu, thread_wall)


# ------------------------------------------------------------- patching

def _resolve(module_name: str, path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for one table entry."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    if isinstance(original, (staticmethod, classmethod, property)):
        raise TypeError(f"{module_name}.{path}: only plain functions and "
                        f"methods can be traced")
    return owner, attr, original


def _bindings(owner: Any, attr: str, original: Any) -> list[tuple[Any, str]]:
    """Every place ``original`` is bound and must be swapped.

    A method lives on its class only.  A module-level function is also
    bound wherever another ``repro`` module did ``from x import f``,
    and those copies are what the callers actually call.
    """
    if isinstance(owner, type):
        return [(owner, attr)]
    found = [(owner, attr)]
    for name, module in list(sys.modules.items()):
        if module is None or module is owner or \
                not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
    return found


_active: Tracer | None = None


def active() -> bool:
    """Whether a :func:`tracing` block is open (timed reps assert not)."""
    return _active is not None


def _table() -> Iterator[tuple[str, str, Any, str, Any]]:
    """``(layer, path, owner, attribute, original)`` per table entry."""
    for layer, entries in BOUNDARIES.items():
        for module_name, path in entries:
            yield (layer, path, *_resolve(module_name, path))


def originals() -> list[tuple[Any, str, Any]]:
    """``(owner, attribute, original)`` for every table entry."""
    return [entry[2:] for entry in _table()]


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Swap every boundary callable for its traced stand-in.

    The calling thread gets a root span for the duration of the block;
    the originals are restored on exit, whatever happened inside.
    """
    global _active
    if _active is not None:
        raise RuntimeError("tracing() does not nest")
    tracer = Tracer()
    undo: list[tuple[Any, str, Any]] = []
    _active = tracer
    try:
        for layer, path, owner, attr, original in _table():
            traced = tracer.wrap(layer, path, original)
            for holder, key in _bindings(owner, attr, original):
                undo.append((holder, key, original))
                setattr(holder, key, traced)
        with tracer.span(UNATTRIBUTED, "benchmark"):
            yield tracer
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)
        _active = None
