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

from itertools import repeat
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.cluster import RankEnv
from repro.core.batch import KMVBatch, KVBatch
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

    def map_kvs(self,
                map_fn: Callable[[MapContext, bytes, bytes], None]) -> None:
        """Map over the current KV object (multistage/iterative jobs)."""
        self.env.comm.barrier()
        old = self.kv
        if old is None:
            raise RuntimeError("map_kvs requires an existing KV object")
        self.kv = None
        kv = self._new_object("kv")
        ctx = MapContext(ContainerSink(kv))
        for batch in old.batches():
            for key, value in batch.pairs_bytes():
                map_fn(ctx, key, value)
            if ctx._keys:
                ctx._flush()
        kv.finalize()
        self.env.charge_compute(old.nbytes + kv.nbytes)
        self._retire(old)
        self.kv = kv

    def add(self, other: "MRMPI") -> None:
        """Append another MR object's KVs to this one (the library's
        ``add``), used by multi-dataset workflows.  ``other`` keeps its
        data."""
        self.env.comm.barrier()
        if self.kv is None:
            raise RuntimeError("add requires an existing KV object")
        if other.kv is None:
            raise RuntimeError("the source MR object has no KV data")
        copied = 0
        for batch in other.kv.batches():
            self.kv.extend_encoded(batch.data, batch.roff)
            copied += batch.payload_bytes
        self.env.charge_compute(copied)

    def add_kv(self, key: bytes, value: bytes) -> None:
        """Insert one KV directly (map-without-input workflows)."""
        if self.kv is None:
            self.kv = self._new_object("kv")
        self.kv.append_kv(key, value)

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
        """All-to-all exchange with MR-MPI's seven-page staging.

        Page complement: KV-out (held) + 2 partitioning temps + send +
        2 receive + convert-input (the new KV object) = 7.  The
        ``copied`` compute charge covers both redundant staging copies
        (map page -> send buffer, receive buffers -> new page).
        """
        self.env.comm.barrier()
        if self.kv is None:
            raise RuntimeError("aggregate requires an existing KV object")
        self._aggregate_rounds(self.env.comm.size)

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
        for batch in self._kmv_batches(kmv):
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

    def _kmv_batches(self, kmv: PagedObject) -> Iterator[KMVBatch]:
        for chunk in kmv.chunks():
            yield from iter_kmv_batches(self.layout, chunk)

    # ----------------------------------------------- extended MR-MPI API

    def collate(self) -> None:
        """Aggregate followed by convert (the library's ``collate``)."""
        self.aggregate()
        self.convert()

    def scan(self, fn: Callable[[bytes, bytes], None]) -> None:
        """Apply ``fn`` to every KV without modifying the data."""
        self.env.comm.barrier()
        if self.kv is None:
            raise RuntimeError("scan requires an existing KV object")
        scanned = 0
        for batch in self.kv.batches():
            for key, value in batch.pairs_bytes():
                fn(key, value)
            scanned += batch.payload_bytes
        self.env.charge_compute(scanned)

    def scan_kmv(self, fn: Callable[[bytes, list[bytes]], None]) -> None:
        """Apply ``fn`` to every KMV without modifying the data."""
        self.env.comm.barrier()
        if self.kmv is None:
            raise RuntimeError("scan_kmv requires a KMV object")
        for batch in self._kmv_batches(self.kmv):
            for key, values in batch:
                fn(key, values)

    def gather(self, nranks: int) -> None:
        """Concentrate all KVs onto the lowest ``nranks`` ranks.

        MR-MPI's ``gather``: records move to rank ``hash % nranks`` so
        a small group (often 1) holds everything, e.g. for final
        output.  Uses the aggregate staging pages.
        """
        self.env.comm.barrier()
        if not 1 <= nranks <= self.env.comm.size:
            raise ValueError(
                f"nranks must be in 1..{self.env.comm.size}, got {nranks}")
        self._aggregate_rounds(nranks)

    def broadcast_kvs(self, root: int = 0) -> None:
        """Replicate the root rank's KVs on every rank."""
        comm = self.env.comm
        comm.barrier()
        if self.kv is None:
            raise RuntimeError("broadcast_kvs requires an existing KV object")
        payload = b"".join(self.kv.chunks()) if comm.rank == root else b""
        data = comm.bcast(payload, root=root)
        old = self.kv
        self.kv = None
        self._retire(old)
        fresh = self._new_object("kv")
        fresh.extend_encoded(data)
        fresh.finalize()
        self.env.charge_compute(len(data))
        self.kv = fresh

    def sort_keys(self) -> None:
        """Sort this rank's KVs by key (external sort when spilled)."""
        self._sort(by_value=False)

    def sort_values(self) -> None:
        """Sort this rank's KVs by value."""
        self._sort(by_value=True)

    def _sort(self, by_value: bool) -> None:
        """One stable sort of the KVs.  A spilled object sorts the
        external way: each chunk is written to the PFS as a sorted run
        and read back, and the stable sort of the runs, concatenated
        in order, is their stable merge."""
        from repro.core.sort import sorted_records  # on use, as in Mimir

        self.env.comm.barrier()
        old = self.kv
        if old is None:
            raise RuntimeError("sort requires an existing KV object")
        scratch = self._scratch(2, "mrmpi_sort_tmp")
        out = self._new_object("kv")
        runs = old.batches()
        if old.spilled:
            writers = []
            for i, batch in enumerate(list(runs)):
                writers.append(SpillWriter(self.env.pfs, self.env.comm,
                                           f"{old.name}_sortrun{i}"))
                writers[-1].write_chunk(b"".join(sorted_records([batch],
                                                                by_value)))
            runs = [KVBatch(b"".join(writer.reader()), self.layout)
                    for writer in writers]
            for writer in writers:
                writer.discard()
        out.extend_encoded(b"".join(sorted_records(runs, by_value)))
        out.finalize()
        self.env.charge_compute(
            2 * old.nbytes * max(1, (old.nbytes // self.config.page_size)
                                 .bit_length()))
        self._release(scratch)
        self.kv = None
        self._retire(old)
        self.kv = out

    def _dests(self, batch: KVBatch, nparts: int) -> np.ndarray:
        keys = batch.keys_bytes()
        return np.fromiter(
            hash_partition(keys, nparts)
            if self.partitioner is default_partitioner
            else map(self.partitioner, keys, repeat(nparts)),
            np.intp, len(batch))

    def _aggregate_rounds(self, nparts: int) -> None:
        """Shared data-movement core of ``aggregate`` and ``gather``:
        records go to rank ``partitioner(key, nparts)``.

        Each round ships at most one page: the records that fit it, in
        order, as byte slices of their chunk grouped by destination.  A
        record larger than a page could never be sent, so the rank
        holding one fails before the first round.
        """
        old = self.kv
        if old is None:
            raise RuntimeError("no KV object to move")
        page_size = self.config.page_size
        if old.oversized:
            raise PageOverflowError(
                f"{old.name} (a record of {old.oversized} bytes)", page_size,
                "aggregate sends at most one page per round")
        comm = self.env.comm
        p = comm.size

        temps = self._scratch(2, "mrmpi_agg_tmp")
        send_pages = self._scratch(1, "mrmpi_agg_send")
        recv_pages = self._scratch(2, "mrmpi_agg_recv")
        received = self._new_object("kv")

        keyed = ((batch, self._dests(batch, nparts))
                 for batch in old.batches())
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
