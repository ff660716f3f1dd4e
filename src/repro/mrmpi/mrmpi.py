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
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.cluster import RankEnv
from repro.core.kmvcontainer import encode_kmv_record, iter_kmv_batches
from repro.core.records import KVLayout
from repro.io.readers import iter_binary_chunks, iter_text_chunks
from repro.memory.pages import Page, PagePool
from repro.mrmpi.config import MRMPIConfig
from repro.mrmpi.errors import PageOverflowError
from repro.mrmpi.pages import PagedObject

import zlib


def default_partitioner(key: bytes, nprocs: int) -> int:
    return zlib.crc32(key) % nprocs


class _EmitContext:
    """Map/reduce callback context appending to a PagedObject."""

    __slots__ = ("_obj", "nemitted")

    def __init__(self, obj: PagedObject):
        self._obj = obj
        self.nemitted = 0

    def emit(self, key: bytes, value: bytes) -> None:
        self._obj.append_kv(key, value)
        self.nemitted += 1


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

    def _run_map(self, feed: Callable[[_EmitContext], None]) -> None:
        """Map phase: one output page, records appended as emitted."""
        self.env.comm.barrier()
        if self.kv is not None:
            raise RuntimeError("map called while a KV object exists; "
                               "aggregate/convert/reduce it or free() first")
        kv = self._new_object("kv")
        ctx = _EmitContext(kv)
        try:
            feed(ctx)
        except PageOverflowError:
            self._retire(kv)
            raise
        kv.finalize()
        self.env.charge_compute(kv.nbytes)
        self.kv = kv

    def map_text_file(self, path: str,
                      map_fn: Callable[[_EmitContext, bytes], None]) -> None:
        """Map over this rank's word-aligned split of a PFS text file."""

        def feed(ctx: _EmitContext) -> None:
            for chunk in iter_text_chunks(self.env, path,
                                          self.config.input_chunk_size):
                map_fn(ctx, chunk)

        self._run_map(feed)

    def map_binary_file(self, path: str, record_size: int,
                        map_fn: Callable[[_EmitContext, bytes], None]) -> None:
        """Map over this rank's block-aligned split of a binary file."""

        def feed(ctx: _EmitContext) -> None:
            for chunk in iter_binary_chunks(self.env, path, record_size,
                                            self.config.input_chunk_size):
                map_fn(ctx, chunk)

        self._run_map(feed)

    def map_items(self, items: Iterable[Any],
                  map_fn: Callable[[_EmitContext, Any], None]) -> None:
        """Map over an in-memory iterable."""

        def feed(ctx: _EmitContext) -> None:
            for item in items:
                map_fn(ctx, item)

        self._run_map(feed)

    def map_kvs(self,
                map_fn: Callable[[_EmitContext, bytes, bytes], None]) -> None:
        """Map over the current KV object (multistage/iterative jobs)."""
        self.env.comm.barrier()
        old = self.kv
        if old is None:
            raise RuntimeError("map_kvs requires an existing KV object")
        self.kv = None
        kv = self._new_object("kv")
        ctx = _EmitContext(kv)
        for key, value in old.records():
            map_fn(ctx, key, value)
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
        for key, value in other.kv.records():
            self.kv.append_kv(key, value)
            copied += len(key) + len(value)
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
        shrink even when the data does.
        """
        self.env.comm.barrier()
        old = self.kv
        if old is None:
            raise RuntimeError("compress requires an existing KV object")
        scratch = self._scratch(2, "mrmpi_compress_tmp")
        out = self._new_object("kv")
        bucket: dict[bytes, bytes] = {}
        scanned = 0
        for key, value in old.records():
            scanned += len(key) + len(value)
            existing = bucket.get(key)
            bucket[key] = value if existing is None else \
                combine_fn(key, existing, value)
        for key, value in bucket.items():
            out.append_kv(key, value)
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
        self._aggregate_rounds()

    # ------------------------------------------------------- convert phase

    def convert(self) -> None:
        """Merge KVs into KMVs (four-page complement).

        In-memory KVs convert with the two-pass count/group algorithm.
        A spilled KV object is converted the way the real library does
        it out-of-core: KVs are first *re-partitioned* into page-sized
        hash partitions on the PFS (one full read plus one full write),
        then each partition is read back and converted in memory.  The
        extra full rewrite of the dataset through the contended PFS is
        a large part of Figure 1's collapse.
        """
        self.env.comm.barrier()
        old = self.kv
        if old is None:
            raise RuntimeError("convert requires an existing KV object")

        # KV (held) + hash-bucket page + temp page + KMV output = 4.
        scratch = self._scratch(2, "mrmpi_cvt_tmp")
        kmv = self._new_object("kmv")

        if old.spilled:
            scanned = self._convert_out_of_core(old, kmv)
        else:
            scanned = self._convert_in_memory(old, kmv)

        kmv.finalize()
        self.env.charge_compute(2 * scanned)
        self._release(scratch)
        self.kv = None
        self._retire(old)
        self.kmv = kmv

    def _convert_in_memory(self, old: PagedObject, kmv: PagedObject) -> int:
        # Pass 1: per-key value counts.
        counts: dict[bytes, int] = {}
        scanned = 0
        for key, value in old.records():
            counts[key] = counts.get(key, 0) + 1
            scanned += len(key) + len(value)

        # Pass 2: group values; emit each KMV as soon as it completes.
        groups: dict[bytes, list[bytes]] = {}
        for key, value in old.records():
            bucket = groups.setdefault(key, [])
            bucket.append(value)
            if len(bucket) == counts[key]:
                kmv.append_record(encode_kmv_record(self.layout, key, bucket))
                del groups[key]
        if groups:
            raise AssertionError("convert pass mismatch (leftover groups)")
        return scanned

    def _convert_out_of_core(self, old: PagedObject,
                             kmv: PagedObject) -> int:
        from repro.io.spill import SpillWriter

        page_size = self.config.page_size
        nparts = max(1, -(-old.nbytes // page_size))
        writers = [
            SpillWriter(self.env.pfs, self.env.comm,
                        f"{old.name}_part{i}")
            for i in range(nparts)
        ]
        # Stage records through a page-sized buffer per write (the
        # scratch pages), appending each hash partition to the PFS.
        staging: list[bytearray] = [bytearray() for _ in range(nparts)]
        scanned = 0
        for key, value in old.records():
            scanned += len(key) + len(value)
            part = zlib.crc32(key) % nparts
            staging[part] += self.layout.encode(key, value)
            if len(staging[part]) >= page_size:
                writers[part].write_chunk(staging[part])
                staging[part] = bytearray()
        for part, buf in enumerate(staging):
            if buf:
                writers[part].write_chunk(buf)

        # Convert each partition in memory.
        for writer in writers:
            groups: dict[bytes, list[bytes]] = {}
            for chunk in writer.reader():
                for key, value in self.layout.iter_records(chunk):
                    groups.setdefault(key, []).append(value)
            for key, values in groups.items():
                kmv.append_record(
                    encode_kmv_record(self.layout, key, values))
            writer.discard()
        return scanned

    # -------------------------------------------------------- reduce phase

    def reduce(self, reduce_fn: Callable[[_EmitContext, bytes, list[bytes]],
                                         None]) -> None:
        """User reduce over the KMVs (three-page complement)."""
        self.env.comm.barrier()
        kmv = self.kmv
        if kmv is None:
            raise RuntimeError("reduce requires a KMV object (run convert)")

        scratch = self._scratch(1, "mrmpi_red_tmp")
        out = self._new_object("kv")
        ctx = _EmitContext(out)
        scanned = 0
        for key, values in self._iter_kmv(kmv):
            reduce_fn(ctx, key, values)
            scanned += len(key) + sum(len(v) for v in values)
        out.finalize()
        self.env.charge_compute(scanned + out.nbytes)
        self._release(scratch)
        self.kmv = None
        self._retire(kmv)
        self.kv = out

    def _iter_kmv(self, kmv: PagedObject) -> Iterator[tuple[bytes, list[bytes]]]:
        for chunk in kmv.chunks():
            for batch in iter_kmv_batches(self.layout, chunk):
                yield from batch

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
        for key, value in self.kv.records():
            fn(key, value)
            scanned += len(key) + len(value)
        self.env.charge_compute(scanned)

    def scan_kmv(self, fn: Callable[[bytes, list[bytes]], None]) -> None:
        """Apply ``fn`` to every KMV without modifying the data."""
        self.env.comm.barrier()
        if self.kmv is None:
            raise RuntimeError("scan_kmv requires a KMV object")
        for key, values in self._iter_kmv(self.kmv):
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
        old_partitioner = self.partitioner
        self.partitioner = lambda key, p: old_partitioner(key, nranks)
        try:
            # Reuse aggregate's round protocol for the data movement.
            self._aggregate_rounds()
        finally:
            self.partitioner = old_partitioner

    def broadcast_kvs(self, root: int = 0) -> None:
        """Replicate the root rank's KVs on every rank."""
        comm = self.env.comm
        comm.barrier()
        if self.kv is None:
            raise RuntimeError("broadcast_kvs requires an existing KV object")
        payload = b"".join(self.kv.layout.encode(k, v)
                           for k, v in self.kv.records()) \
            if comm.rank == root else b""
        data = comm.bcast(payload, root=root)
        old = self.kv
        self.kv = None
        self._retire(old)
        fresh = self._new_object("kv")
        for key, value in self.layout.iter_records(data):
            fresh.append_kv(key, value)
        fresh.finalize()
        self.env.charge_compute(len(data))
        self.kv = fresh

    def sort_keys(self) -> None:
        """Sort this rank's KVs by key (external sort when spilled)."""
        self._sort(lambda k, v: k)

    def sort_values(self) -> None:
        """Sort this rank's KVs by value."""
        self._sort(lambda k, v: v)

    def _sort(self, sort_key) -> None:
        from repro.mrmpi.sort import external_sort

        self.env.comm.barrier()
        old = self.kv
        if old is None:
            raise RuntimeError("sort requires an existing KV object")
        scratch = self._scratch(2, "mrmpi_sort_tmp")
        out = self._new_object("kv")
        scanned = external_sort(self.env, old, out, sort_key)
        out.finalize()
        self.env.charge_compute(
            2 * scanned * max(1, (old.nbytes // self.config.page_size)
                              .bit_length()))
        self._release(scratch)
        self.kv = None
        self._retire(old)
        self.kv = out

    def _aggregate_rounds(self) -> None:
        """Shared data-movement core of ``aggregate`` and ``gather``."""
        old = self.kv
        if old is None:
            raise RuntimeError("no KV object to move")
        comm = self.env.comm
        p = comm.size

        temps = self._scratch(2, "mrmpi_agg_tmp")
        send_pages = self._scratch(1, "mrmpi_agg_send")
        recv_pages = self._scratch(2, "mrmpi_agg_recv")
        received = self._new_object("kv")

        page_size = self.config.page_size
        stream = old.records()
        pending: tuple[bytes, int] | None = None
        exhausted = False
        copied = 0
        while True:
            parts: list[list[bytes]] = [[] for _ in range(p)]
            fill = 0
            while not exhausted:
                if pending is None:
                    try:
                        key, value = next(stream)
                    except StopIteration:
                        exhausted = True
                        break
                    record = self.layout.encode(key, value)
                    pending = (record, self.partitioner(key, p))
                record, dest = pending
                if fill + len(record) > page_size:
                    break
                parts[dest].append(record)
                fill += len(record)
                pending = None

            sends = [b"".join(chunk) for chunk in parts]
            incoming = comm.alltoallv(sends)
            copied += fill
            for part in incoming:
                if part:
                    copied += len(part)
                    for key, value in self.layout.iter_records(part):
                        received.append_kv(key, value)
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
