"""The MR-MPI driver: explicit map / aggregate / convert / reduce.

Faithful to the baseline's coarse-grained memory discipline:

- each phase allocates its full page complement up front
  (map: 1, aggregate: 7, convert: 4, reduce: 3 - paper Section II-B);
- ``aggregate`` stages data through redundant copies: map output page
  -> (two temporary partitioning buffers) -> send buffer ->
  ``MPI_Alltoallv`` -> two receive-buffer pages -> convert input page;
- any data object larger than one page spills to the PFS per the
  configured out-of-core mode;
- a global barrier opens every phase.

The optional ``compress`` phase reproduces MR-MPI's KV compression: it
shrinks the data that aggregate ships but - because the page complement
is fixed - never shrinks the memory footprint (the paper's Figure 11
observation).

Callbacks get core's ``MapContext`` / ``ReduceContext``; every regroup
runs on core's block routines, the out-of-core convert's router included.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, Callable, Iterable

import numpy as np

from repro.cluster import RankEnv
from repro.core.batch import KVBatch
from repro.core.bucket import Bucket
from repro.core.convert import (_group_partition, spill_partitions,
                                split_by_dest)
from repro.core.job import ContainerSink, MapContext, ReduceContext
from repro.core.kmvcontainer import encode_kmv_runs, iter_kmv_batches
from repro.core.records import KVLayout
from repro.core.shuffle import default_partitioner, hash_partition
from repro.io.readers import iter_binary_chunks, iter_text_chunks
from repro.io.spill import SpillWriter
from repro.memory.pages import Page, PagePool
from repro.memory.tracker import MemoryTracker
from repro.mrmpi.config import MRMPIConfig
from repro.mrmpi.errors import PageOverflowError
from repro.mrmpi.pages import PagedObject


class MRMPI:
    """One rank's MR-MPI object (mirrors the C++ ``MapReduce`` class)."""

    #: Page complements per phase (paper Section II-B).
    PAGES_MAP = 1
    PAGES_AGGREGATE = 7
    PAGES_CONVERT = 4
    PAGES_REDUCE = 3

    def __init__(self, env: RankEnv, config: MRMPIConfig | None = None,
                 partitioner: Callable[[bytes, int], int] | None = None):
        self.env = env
        self.config = config or MRMPIConfig()
        self.partitioner = partitioner or default_partitioner
        self.layout = KVLayout()  # MR-MPI has no KV-hints
        self.pool = PagePool(env.tracker, self.config.page_size, tag="mrmpi")
        self.kv: PagedObject | None = None
        self.kmv: PagedObject | None = None
        self._seq = 0
        self.total_spilled_bytes = 0
        self.any_spill = False

    # ----------------------------------------------------------- plumbing

    def _name(self, what: str) -> str:
        self._seq += 1
        return f"mrmpi_{what}_{self._seq}"

    def _new_object(self, what: str) -> PagedObject:
        return PagedObject(self.env, self.pool, self._name(what),
                           self.config.mode, self.layout, tag=f"mrmpi_{what}")

    def _retire(self, obj: PagedObject | None) -> None:
        if obj is not None:
            self.total_spilled_bytes += obj.spilled_bytes
            self.any_spill = self.any_spill or obj.spilled
            obj.free()

    def _scratch(self, n: int, tag: str) -> list[Page]:
        """Allocate ``n`` raw scratch pages for the duration of a phase."""
        return [self.pool.acquire(tag) for _ in range(n)]

    def _release(self, pages: list[Page]) -> None:
        for page in pages:
            self.pool.release(page)

    # ---------------------------------------------------------- map phase

    def _map_each(self, items: Iterable[Any], map_fn) -> None:
        """Map phase, ``map_fn(ctx, item)`` per chunk or item: one output
        page, each call's emits appended before the next item is read."""
        self.env.comm.barrier()
        if self.kv is not None:
            raise RuntimeError("map called while a KV object exists; "
                               "aggregate/convert/reduce it or free() first")
        kv = self._new_object("kv")
        ctx = MapContext(ContainerSink(kv))
        try:
            for item in items:
                map_fn(ctx, item)
                if ctx._keys:
                    ctx._flush()
        except PageOverflowError:
            self._retire(kv)
            raise
        kv.finalize()
        self.env.charge_compute(kv.nbytes)
        self.kv = kv

    def map_text_file(self, path: str,
                      map_fn: Callable[[MapContext, bytes], None]) -> None:
        """Map over this rank's word-aligned split of a PFS text file."""
        self._map_each(iter_text_chunks(self.env, path,
                                        self.config.input_chunk_size), map_fn)

    def map_binary_file(self, path: str, record_size: int,
                        map_fn: Callable[[MapContext, bytes], None]) -> None:
        """Map over this rank's block-aligned split of a binary file."""
        self._map_each(iter_binary_chunks(self.env, path, record_size,
                                          self.config.input_chunk_size),
                       map_fn)

    def map_items(self, items: Iterable[Any],
                  map_fn: Callable[[MapContext, Any], None]) -> None:
        """Map over an in-memory iterable."""
        self._map_each(items, map_fn)

    # ------------------------------------------------------ compress (cps)

    def compress(self, combine_fn: Callable[[bytes, bytes, bytes], bytes],
                 ) -> None:
        """Local KV compression before aggregate (MR-MPI's ``compress``).

        Uses the fixed page complement (bucket + output + temp pages on
        top of the held KV page), so the memory footprint does not
        shrink even when the data does: core's bucket (first-seen keys,
        values folded in arrival order) charges a tracker of its own.
        """
        self.env.comm.barrier()
        old = self.kv
        if old is None:
            raise RuntimeError("compress requires an existing KV object")
        scratch = self._scratch(2, "mrmpi_compress_tmp")
        out = self._new_object("kv")
        bucket = Bucket(MemoryTracker(), fold=combine_fn, layout=self.layout)
        scanned = 0
        for batch in old.batches():
            bucket.fold_columns(batch.keys_bytes(), batch.values_bytes())
            scanned += batch.payload_bytes
        for keys, values in bucket.drain():
            out.add_run(keys, values)
        out.finalize()
        self.env.charge_compute(scanned + out.nbytes)
        self._release(scratch)
        self.kv = None
        self._retire(old)
        self.kv = out

    # ----------------------------------------------------- aggregate phase

    def aggregate(self) -> None:
        """All-to-all exchange with MR-MPI's seven-page staging: records
        go to rank ``partitioner(key, nprocs)``.

        Page complement: KV-out (held) + 2 partitioning temps + send +
        2 receive + convert-input (the new KV object) = 7.  The
        ``copied`` compute charge covers both redundant staging copies
        (map page -> send buffer, receive buffers -> new page).

        Each round ships at most one page: the records that fit it, in
        order, as byte slices of their chunk grouped by destination.  A
        record larger than a page could never be sent, so the rank
        holding one fails before the first round.
        """
        comm = self.env.comm
        comm.barrier()
        old = self.kv
        if old is None:
            raise RuntimeError("aggregate requires an existing KV object")
        page_size = self.config.page_size
        if old.oversized:
            raise PageOverflowError(
                f"{old.name} (a record of {old.oversized} bytes)", page_size,
                "aggregate sends at most one page per round")
        p = comm.size

        temps = self._scratch(2, "mrmpi_agg_tmp")
        send_pages = self._scratch(1, "mrmpi_agg_send")
        recv_pages = self._scratch(2, "mrmpi_agg_recv")
        received = self._new_object("kv")

        keyed = ((batch, self._dests(batch, p)) for batch in old.batches())
        (batch, dests), at = next(keyed, (None, None)), 0
        copied = 0
        while True:
            parts: list[list[bytes]] = [[] for _ in range(p)]
            room = page_size
            while batch is not None:
                roff = batch.roff
                stop = int(np.searchsorted(roff, roff[at] + room, "right")) - 1
                room -= int(roff[stop] - roff[at])
                _, data, offs, runs = split_by_dest(batch, dests[at:stop], at)
                for dest, first, last in runs:
                    parts[dest].append(data[offs[first] : offs[last]])
                at = stop
                if at < len(batch):  # record ``at`` waits for a round
                    break
                (batch, dests), at = next(keyed, (None, None)), 0
            exhausted = batch is None

            incoming = b"".join(comm.alltoallv([b"".join(chunk)
                                                for chunk in parts]))
            copied += page_size - room + len(incoming)
            received.extend_encoded(incoming)
            if comm.all_true(exhausted):
                break

        received.finalize()
        self.env.charge_compute(copied)
        self._release(temps)
        self._release(send_pages)
        self._release(recv_pages)
        self.kv = None
        self._retire(old)
        self.kv = received

    def _dests(self, batch: KVBatch, nparts: int) -> np.ndarray:
        keys = batch.keys_bytes()
        return np.fromiter(
            hash_partition(keys, nparts)
            if self.partitioner is default_partitioner
            else map(self.partitioner, keys, repeat(nparts)),
            np.intp, len(batch))

    # ------------------------------------------------------- convert phase

    def convert(self) -> None:
        """Merge KVs into KMVs (four-page complement).

        KVs group as core's out-of-core partitions do and leave as KMV
        records a block at a time (in memory, as their keys' last values
        arrive).  A spilled KV object converts as the real library does
        out of core: re-partitioned into page-sized hash partitions on
        the PFS by core's router (one full read plus one full write),
        then grouped a partition at a time.  That rewrite through the
        contended PFS is a large part of Figure 1's collapse.
        """
        self.env.comm.barrier()
        old = self.kv
        if old is None:
            raise RuntimeError("convert requires an existing KV object")

        # KV (held) + hash-bucket page + temp page + KMV output = 4.
        scratch = self._scratch(2, "mrmpi_cvt_tmp")
        kmv = self._new_object("kmv")

        if old.spilled:
            page_size = self.config.page_size
            writers = [SpillWriter(self.env.pfs, self.env.comm,
                                   f"{old.name}_part{i}")
                       for i in range(max(1, -(-old.nbytes // page_size)))]
            scanned = spill_partitions(old.batches(), writers, page_size)
            for writer in writers:
                grouped, _ = _group_partition(self.layout, writer.reader())
                for run in encode_kmv_runs(grouped, np.arange(len(grouped))):
                    kmv.extend_encoded(*run)
                writer.discard()
        else:
            batch = KVBatch(b"".join(old.chunks()), self.layout)
            grouped, scanned = _group_partition(self.layout, [batch.data])
            # MR-MPI's KMVs leave in the order of their keys' last records.
            index = dict(zip(grouped.keys, range(len(grouped))))
            last = dict.fromkeys(map(index.__getitem__,
                                     reversed([*batch.keys_bytes()])))
            for run in encode_kmv_runs(grouped,
                                       np.array([*last][::-1], np.intp)):
                kmv.extend_encoded(*run)

        kmv.finalize()
        self.env.charge_compute(2 * scanned)
        self._release(scratch)
        self.kv = None
        self._retire(old)
        self.kmv = kmv

    # -------------------------------------------------------- reduce phase

    def reduce(self, reduce_fn: Callable[[ReduceContext, bytes, list[bytes]],
                                         None]) -> None:
        """User reduce over the KMVs (three-page complement)."""
        self.env.comm.barrier()
        kmv = self.kmv
        if kmv is None:
            raise RuntimeError("reduce requires a KMV object (run convert)")

        scratch = self._scratch(1, "mrmpi_red_tmp")
        out = self._new_object("kv")
        ctx = ReduceContext(out)
        scanned = 0
        batches = chain.from_iterable(iter_kmv_batches(self.layout, chunk)
                                      for chunk in kmv.chunks())
        for batch in batches:
            for key, values in batch:
                reduce_fn(ctx, key, values)
            if ctx._keys:
                ctx._flush()
            scanned += batch.payload_bytes
        out.finalize()
        self.env.charge_compute(scanned + out.nbytes)
        self._release(scratch)
        self.kmv = None
        self._retire(kmv)
        self.kv = out

    # -------------------------------------------------------------- output

    def collect(self) -> list[tuple[bytes, bytes]]:
        """This rank's current KV records."""
        if self.kv is None:
            return []
        return list(self.kv.records())

    def free(self) -> None:
        """Release all data objects."""
        self._retire(self.kv)
        self._retire(self.kmv)
        self.kv = None
        self.kmv = None
