"""The Mimir job driver: user-facing map / reduce entry points.

A :class:`Mimir` instance is bound to one rank's :class:`RankEnv`.
Map calls run the user callback over this rank's share of the input
and perform the *implicit* aggregate (interleaved exchange rounds);
``reduce`` performs the *implicit* convert followed by the user reduce
callback; ``partial_reduce`` replaces both when the operation is
commutative/associative.  Passing ``combine_fn`` to any map call
enables KV compression.

Input sources (paper Section III-A): files on the PFS (text or binary),
KVs from a previous MapReduce operation (``map_kvs``, for multistage
and iterative jobs), and arbitrary in-memory items (``map_items``, for
in-situ sources).
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import starmap
from typing import Any, Callable, Iterable, Iterator

from repro.cluster import RankEnv
from repro.core.batch import is_batch_kernel
from repro.core.codec import get_codec
from repro.core.combiner import CombineFn, Combiner
from repro.core.config import MimirConfig
# ``iter_grouped`` is unused here; the frozen perf/test_perf.py checks
# that tracing also swaps this by-name import.
from repro.core.convert import iter_grouped, iter_grouped_batches  # noqa: F401
from repro.core.kvcontainer import KVContainer
from repro.core.partial_reduction import PartialReduceFn, partial_reduce
from repro.core.records import KVLayout
from repro.core.shuffle import Shuffler
from repro.io.readers import (
    iter_binary_chunks,
    iter_binary_chunks_multi,
    iter_text_chunks,
    iter_text_chunks_multi,
)


class MapContext:
    """Handed to map callbacks; ``emit`` routes into the shuffle.

    The bulk emits take a whole run of records in one call and produce
    byte-identical shuffle traffic.
    """

    __slots__ = ("_sink", "nemitted")

    def __init__(self, sink):
        self._sink = sink
        self.nemitted = 0

    def emit(self, key: bytes, value: bytes) -> None:
        self._sink.emit(key, value)
        self.nemitted += 1

    def emit_run(self, keys, value: bytes) -> None:
        """Emit ``(key, value)`` for every key, sharing one value."""
        self.nemitted += self._sink.emit_run(keys, value)

    def emit_pairs(self, pairs) -> None:
        """Emit an iterable of ``(key, value)`` pairs in one call."""
        self.nemitted += self._sink.emit_pairs(pairs)

    def emit_batch(self, batch) -> None:
        """Re-emit every record of a :class:`~repro.core.batch.KVBatch`."""
        self._sink.emit_batch(batch)
        self.nemitted += len(batch)


class ReduceContext:
    """Handed to reduce callbacks; ``emit`` appends to the local output."""

    __slots__ = ("_out", "nemitted")

    def __init__(self, out: KVContainer):
        self._out = out
        self.nemitted = 0

    def emit(self, key: bytes, value: bytes) -> None:
        self._out.add(key, value)
        self.nemitted += 1


class Mimir:
    """MapReduce driver for one rank of a simulated job."""

    def __init__(self, env: RankEnv, config: MimirConfig | None = None, *,
                 trace=None):
        self.env = env
        self.config = config or MimirConfig()
        #: Backend this job's spill traffic lands on: the cluster
        #: substrate unless ``config.storage`` redirects it to a
        #: companion backend (inputs/outputs always stay on the
        #: substrate).
        self._spill_store = (env.storage_for(self.config.storage)
                             if self.config.storage else None)
        #: Optional structured event sink (see :mod:`repro.obs.trace`),
        #: the one recorder of per-phase time and memory.
        self.trace = trace
        #: Statistics of the most recent map/aggregate phase:
        #: ``{"records", "kv_bytes", "rounds"}``.  ``kv_bytes`` is the
        #: total encoded KV volume that crossed the wire - the metric
        #: of the paper's Figure 7.
        self.last_map_stats: dict[str, int] = {}

    # ----------------------------------------------------------- plumbing

    @contextmanager
    def _phase(self, name: str) -> Iterator[dict[str, Any]]:
        """Time, trace and record one phase.

        The body fills the yielded dict: ``out`` (the output container),
        ``counters`` (registry counters to add), ``end`` (fields of the
        trace's closing ``phase`` event) and, where they apply,
        ``batch_records`` and ``batch_pages``.  The closing event adds the
        rank's memory around the phase and its peak, even if the body raises.
        """
        stats: dict[str, Any] = {"counters": {}, "end": {},
                                 "batch_records": 0, "batch_pages": 0}
        tracker = self.env.tracker
        started, mem_before = self.env.comm.clock.time, tracker.current
        spilled_bytes = 0
        if self.trace is not None:
            self.trace.emit(self.env, "phase", name, ph="B")
        try:
            yield stats
            spilled_bytes = stats["out"].spilled_bytes
        finally:
            if self.trace is not None:
                self.trace.emit(
                    self.env, "phase", name, ph="E", **stats["end"],
                    mem_before=mem_before, mem_after=tracker.current,
                    peak=tracker.peak, spilled_bytes=spilled_bytes,
                    batch_records=stats["batch_records"],
                    batch_pages=stats["batch_pages"])
        metrics = self.env.metrics
        for counter, value in stats["counters"].items():
            metrics.inc(counter, value)
        if stats["batch_pages"]:
            metrics.inc("core.batch.records", stats["batch_records"])
            metrics.inc("core.batch.pages", stats["batch_pages"])
        if spilled_bytes:
            metrics.inc("core.spill.bytes", spilled_bytes)
        metrics.observe("core.phase.seconds",
                        self.env.comm.clock.time - started)

    def _run_map(self, feed: Callable[[MapContext], None], *,
                 combine_fn: CombineFn | None,
                 partitioner: Callable[[bytes, int], int] | None,
                 layout: KVLayout | None,
                 out_tag: str) -> KVContainer:
        """Shared skeleton: feed records through (combiner ->) shuffler."""
        stream_layout = layout or self.config.layout
        out = self.container(
            stream_layout, out_tag, codec_env=self.env,
            codec=get_codec(self.config.codec, stream_layout))
        with self._phase("map+aggregate") as phase:
            shuffler = Shuffler(self.env, self.config, out, partitioner,
                                trace=self.trace)
            sink = shuffler if combine_fn is None else \
                Combiner(self.env, self.config, combine_fn, shuffler)
            feed(MapContext(sink))
            sink.finish()
            self.env.charge_compute(shuffler.bytes_sent)
            self.last_map_stats = {
                "records": shuffler.records_sent,
                "kv_bytes": shuffler.bytes_sent,
                "rounds": shuffler.rounds,
            }
            phase.update(out=out, end=self.last_map_stats,
                         batch_records=sink.batch_records,
                         batch_pages=sink.batch_calls,
                         counters={"core.map.records": shuffler.records_sent,
                                   "core.map.kv_bytes": shuffler.bytes_sent,
                                   "core.map.rounds": shuffler.rounds})
        return out

    def container(self, layout: KVLayout, tag: str, **tiers) -> KVContainer:
        """An empty container of this job: its page size, spill-backed
        on its spill store under ``out_of_core``.  Every container of
        the job's data is made here: phase outputs, checkpoint
        restores, the elastic map's per-task outputs."""
        return KVContainer(
            self.env.tracker, layout, self.config.page_size, tag=tag,
            spill_env=self.env if self.config.out_of_core else None,
            spill_store=self._spill_store, **tiers)

    def _map_each(self, items: Iterable[Any], map_fn, **stream) -> KVContainer:
        """Map phase calling ``map_fn(ctx, item)`` per chunk or item."""
        def feed(ctx: MapContext) -> None:
            for item in items:
                map_fn(ctx, item)

        return self._run_map(feed, **stream)

    def _reusable(self, kvc: KVContainer, consume: bool,
                  tag: str) -> KVContainer:
        """The input for a consuming pipeline stage.

        With ``consume`` the container itself is handed over (and
        drained by the stage, Mimir's default).  Without it the records
        are copied into a scratch container that the stage drains
        instead, leaving the original intact - the non-destructive read
        path that lets the dataflow cache (:mod:`repro.sched`) feed one
        materialized container to many consumers.
        """
        if consume:
            return kvc
        scratch = self.container(kvc.layout, tag)
        for batch in kvc.batches():
            scratch.extend_encoded(batch.data)
        self.env.charge_compute(scratch.nbytes)
        return scratch

    # -------------------------------------------------------- map sources

    def map_text_file(self, path: str,
                      map_fn: Callable[[MapContext, bytes], None], *,
                      combine_fn: CombineFn | None = None,
                      partitioner: Callable[[bytes, int], int] | None = None,
                      layout: KVLayout | None = None,
                      out_tag: str = "kv_shuffled") -> KVContainer:
        """Map over this rank's word-aligned split of a PFS text file.

        ``map_fn`` is called once per chunk (roughly
        ``config.input_chunk_size`` bytes, never splitting a word).
        """

        return self._map_each(
            iter_text_chunks(self.env, path, self.config.input_chunk_size),
            map_fn, combine_fn=combine_fn, partitioner=partitioner,
            layout=layout, out_tag=out_tag)

    def map_binary_file(self, path: str, record_size: int,
                        map_fn: Callable[[MapContext, bytes], None], *,
                        combine_fn: CombineFn | None = None,
                        partitioner: Callable[[bytes, int], int] | None = None,
                        layout: KVLayout | None = None,
                        out_tag: str = "kv_shuffled") -> KVContainer:
        """Map over this rank's block-aligned split of a binary PFS file.

        ``map_fn`` receives chunks whose length is a multiple of
        ``record_size``.
        """

        return self._map_each(
            iter_binary_chunks(self.env, path, record_size,
                               self.config.input_chunk_size),
            map_fn, combine_fn=combine_fn, partitioner=partitioner,
            layout=layout, out_tag=out_tag)

    def map_text_files(self, paths: "str | list[str]",
                       map_fn: Callable[[MapContext, bytes], None], *,
                       combine_fn: CombineFn | None = None,
                       partitioner: Callable[[bytes, int], int] | None = None,
                       layout: KVLayout | None = None,
                       out_tag: str = "kv_shuffled") -> KVContainer:
        """Map over a multi-file text input (directory prefix or list).

        Whole files are assigned round-robin to ranks; a trailing ``/``
        expands to every file under that prefix.
        """

        return self._map_each(
            iter_text_chunks_multi(self.env, paths,
                                   self.config.input_chunk_size),
            map_fn, combine_fn=combine_fn, partitioner=partitioner,
            layout=layout, out_tag=out_tag)

    def map_binary_files(self, paths: "str | list[str]", record_size: int,
                         map_fn: Callable[[MapContext, bytes], None], *,
                         combine_fn: CombineFn | None = None,
                         partitioner: Callable[[bytes, int], int] | None = None,
                         layout: KVLayout | None = None,
                         out_tag: str = "kv_shuffled") -> KVContainer:
        """Map over a multi-file binary input (directory prefix or list)."""

        return self._map_each(
            iter_binary_chunks_multi(self.env, paths, record_size,
                                     self.config.input_chunk_size),
            map_fn, combine_fn=combine_fn, partitioner=partitioner,
            layout=layout, out_tag=out_tag)

    def map_items(self, items: Iterable[Any],
                  map_fn: Callable[[MapContext, Any], None], *,
                  combine_fn: CombineFn | None = None,
                  partitioner: Callable[[bytes, int], int] | None = None,
                  layout: KVLayout | None = None,
                  out_tag: str = "kv_shuffled") -> KVContainer:
        """Map over an in-memory iterable (in-situ data source)."""

        return self._map_each(items, map_fn, combine_fn=combine_fn,
                              partitioner=partitioner, layout=layout,
                              out_tag=out_tag)

    def map_kvs(self, kvc: KVContainer,
                map_fn: Callable[[MapContext, bytes, bytes], None], *,
                combine_fn: CombineFn | None = None,
                partitioner: Callable[[bytes, int], int] | None = None,
                layout: KVLayout | None = None,
                out_tag: str = "kv_shuffled",
                consume: bool = True) -> KVContainer:
        """Map over a previous operation's KVs.

        By default the input is consumed as it drains (Mimir's
        memory-efficient multistage path); ``consume=False`` reads it
        non-destructively so a cached container can be mapped again.

        A ``map_fn`` marked with
        :func:`~repro.core.batch.batch_kernel` is called once per
        container page as ``map_fn(ctx, batch)`` with a
        :class:`~repro.core.batch.KVBatch` instead of once per record.
        """
        batch_fn = is_batch_kernel(map_fn)

        def feed(ctx: MapContext) -> None:
            for batch in kvc.consume_batches() if consume else kvc.batches():
                if batch_fn:
                    map_fn(ctx, batch)
                else:
                    for key, value in batch.pairs_bytes():
                        map_fn(ctx, key, value)

        return self._run_map(feed, combine_fn=combine_fn,
                             partitioner=partitioner, layout=layout,
                             out_tag=out_tag)

    # ------------------------------------------------------------- reduce

    def reduce(self, kvc: KVContainer,
               reduce_fn: Callable[[ReduceContext, bytes, list[bytes]], None],
               *, out_layout: KVLayout | None = None,
               out_tag: str = "kv_out",
               consume: bool = True) -> KVContainer:
        """Implicit convert (two-pass) followed by the user reduce.

        Consumes ``kvc`` unless ``consume=False`` (which groups a
        scratch copy and leaves the input intact).  The reduce output
        stays rank-local; a global barrier separates the map and reduce
        sides, as the MapReduce model requires.

        A ``reduce_fn`` marked with
        :func:`~repro.core.batch.batch_kernel` is called once per KMV
        page as ``reduce_fn(ctx, groups)`` with a list of
        ``(key, values)`` groups instead of once per key.
        """
        batch_fn = is_batch_kernel(reduce_fn)
        self.env.comm.barrier()
        with self._phase("convert+reduce") as phase:
            source = self._reusable(kvc, consume, "kv_regroup")
            out = self.container(out_layout or KVLayout(), out_tag)
            ctx = ReduceContext(out)
            reduced_bytes = 0
            reduced_keys = 0
            batch_pages = 0
            for groups in iter_grouped_batches(self.env, source, self.config):
                if batch_fn:
                    reduce_fn(ctx, groups)
                    batch_pages += 1
                else:
                    for key, values in groups:
                        reduce_fn(ctx, key, values)
                reduced_keys += len(groups)
                reduced_bytes += sum(
                    len(key) + sum(map(len, values))
                    for key, values in groups)
            self.env.charge_compute(reduced_bytes)
            phase.update(
                out=out, end={"keys": reduced_keys},
                batch_records=reduced_keys if batch_pages else 0,
                batch_pages=batch_pages,
                counters={"core.reduce.keys": reduced_keys,
                          "core.reduce.bytes": reduced_bytes})
        return out

    def partial_reduce(self, kvc: KVContainer, pr_fn: PartialReduceFn, *,
                       out_layout: KVLayout | None = None,
                       out_tag: str = "kv_out",
                       consume: bool = True,
                       seed: KVContainer | None = None,
                       seed_consume: bool = True) -> KVContainer:
        """Streaming replacement for convert+reduce (needs invariance).

        A ``pr_fn`` marked with :func:`~repro.core.batch.batch_kernel`
        folds a block of records per call as ``pr_fn(acc, ids, rows)``
        (fixed-width values only).  ``seed`` pre-loads the fold bucket
        from an existing aggregate (the incremental-window hook used by
        :mod:`repro.stream`); pass ``seed_consume=False`` to read it
        non-destructively.
        """
        self.env.comm.barrier()
        with self._phase("partial_reduce") as phase:
            source = self._reusable(kvc, consume, "kv_refold")
            # ``stats=phase``: the fold reports its batch counts itself.
            out = partial_reduce(
                self.env, source, pr_fn, self.config,
                self.container(out_layout or kvc.layout, out_tag),
                stats=phase, seed=seed, seed_consume=seed_consume)
            phase.update(
                out=out, end={"records": len(out)},
                counters={"core.partial_reduce.records": len(out)})
        return out

    # ------------------------------------------------------ conveniences

    def sort_local(self, kvc: KVContainer, *, by_value: bool = False,
                   key_fn: Callable[[bytes, bytes], Any] | None = None,
                   out_tag: str = "kv_sorted",
                   consume: bool = True) -> KVContainer:
        """Sort a rank-local KVC by key (or value); consumes the input
        unless ``consume=False``.

        ``key_fn(key, value)`` overrides the sort key (e.g. decode a
        little-endian id whose byte order is not its numeric order).
        Rank-local, like MR-MPI's ``sort_keys``: the global order is
        the concatenation of per-rank sorted runs.
        """
        from repro.core.sort import sorted_container

        return sorted_container(
            self.env, kvc.consume_batches() if consume else kvc.batches(),
            self.container(kvc.layout, out_tag), by_value, key_fn)

    def global_sort(self, kvc: KVContainer, *, by_value: bool = False,
                    out_tag: str = "kv_gsorted") -> KVContainer:
        """Total order across ranks via sample sort (consumes input).

        After this call, every record on rank ``r`` sorts at or before
        every record on rank ``r+1``, and each rank is locally sorted.
        """
        from repro.core.sort import global_sort

        return global_sort(self.env, kvc, self.config,
                           self.container(kvc.layout, out_tag),
                           self.container(kvc.layout, out_tag),
                           by_value=by_value)

    def gather(self, kvc: KVContainer, nranks: int = 1,
               out_tag: str = "kv_gathered") -> KVContainer:
        """Move all KVs onto the lowest ``nranks`` ranks (consumes input)."""
        if not 1 <= nranks <= self.env.comm.size:
            raise ValueError(
                f"nranks must be in 1..{self.env.comm.size}, got {nranks}")
        from repro.core.shuffle import default_partitioner

        return self.map_kvs(
            kvc, lambda ctx, k, v: ctx.emit(k, v),
            partitioner=lambda key, p: default_partitioner(key, nranks),
            layout=kvc.layout, out_tag=out_tag)

    # -------------------------------------------------------------- sinks

    def _rendered_pages(self, kvc: KVContainer, render):
        """Rendered output, one ``bytes`` chunk per container page.

        Streaming alternative to one whole-output ``b"".join``, which
        would hold the entire rendered payload next to the container
        and double the peak on large outputs.
        """
        if render is None:
            render = lambda k, v: k + b"\t" + v + b"\n"  # noqa: E731
        batch_fn = is_batch_kernel(render)
        for batch in kvc.batches():
            yield render(batch) if batch_fn else \
                b"".join(starmap(render, batch.pairs_bytes()))

    def write_output(self, kvc: KVContainer, path: str,
                     render: Callable[[bytes, bytes], bytes] | None = None,
                     ) -> None:
        """Persist a rank's output KVs to ``<path>.<rank>`` on the PFS.

        Output is rendered and written page by page, so peak memory
        stays one page of rendered payload above the container itself.
        ``render(key, value) -> bytes`` runs per record; marked with
        :func:`~repro.core.batch.batch_kernel`, ``render(batch)`` per page.
        """
        target = f"{path}.{self.env.comm.rank}"
        wrote = False
        for chunk in self._rendered_pages(kvc, render):
            if not wrote:
                self.env.pfs.write(self.env.comm, target, chunk)
                wrote = True
            else:
                self.env.pfs.append(self.env.comm, target, chunk)
        if not wrote:
            self.env.pfs.write(self.env.comm, target, b"")

    def write_output_global(self, kvc: KVContainer, path: str,
                            render: Callable[[bytes, bytes], bytes] | None
                            = None) -> None:
        """Persist all ranks' outputs to ONE shared PFS file.

        Collective: rank offsets come from an exclusive prefix sum of
        the rendered sizes (MPI-IO style), so the file's contents are
        rank 0's records, then rank 1's, and so on - combined with
        :meth:`global_sort` this produces one globally sorted file.
        Rendering runs twice (a sizing pass, then page-sized writes at
        advancing offsets) instead of joining the whole payload in
        memory; ``render`` (per record or per page, as for
        :meth:`write_output`) must therefore be deterministic.
        """
        nbytes = sum(len(chunk) for chunk in self._rendered_pages(kvc, render))
        offset = self.env.comm.exscan(nbytes)
        if nbytes == 0:
            self.env.pfs.write_at(self.env.comm, path, offset, b"")
        else:
            for chunk in self._rendered_pages(kvc, render):
                self.env.pfs.write_at(self.env.comm, path, offset, chunk)
                offset += len(chunk)
        self.env.comm.barrier()  # file complete once anyone returns

    def collect(self, kvc: KVContainer) -> list[tuple[bytes, bytes]]:
        """This rank's records as a list (small results / tests)."""
        return list(kvc.records())
