"""The KV container (KVC): Mimir's dynamically sized KV store.

A KVC manages a collection of KV records across one or more fixed-size
pages (paper Section III).  Unlike MR-MPI's statically allocated page
set, a KVC grows page-by-page as records are inserted and *frees pages
as they are consumed*, which is the central memory-efficiency mechanism
of the design.

Optionally a KVC can be *spill-backed* (the out-of-core capability the
paper's authors added after publication): given a spill sink, a
container that cannot acquire another page within its rank's memory
budget writes its oldest full pages to the parallel file system and
keeps going.  Record order is preserved (spilled prefix, resident
suffix) and readers stream the spilled chunks back at PFS cost.

With a :mod:`~repro.core.codec` attached, every page that fills is
*frozen*: compressed into an immutable segment charged to the tracker
at its exact encoded size (immutable variable-size blobs are
fragmentation-safe, like the KMVC's jumbo pages).  Only the live tail
page stays uncompressed, so the resident footprint of a skewed stream
shrinks by roughly the compression ratio - the paper's Figs. 11-12
memory win.  Frozen segments spill and stream back through the same
out-of-core machinery, already encoded.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.batch import KVBatch
from repro.core.errors import RecordTooLargeError
from repro.core.records import KVLayout
from repro.memory.pages import Page, PagePool
from repro.memory.tracker import MemoryTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster import RankEnv
    from repro.core.codec import Codec


class _FrozenSegment:
    """One filled page, codec-framed and charged at its exact size."""

    __slots__ = ("payload", "raw_len")

    def __init__(self, payload: bytes, raw_len: int):
        self.payload = payload
        self.raw_len = raw_len


class KVContainer:
    """An ordered multiset of KV records stored in pool pages."""

    #: Class-level counter so spill files of unnamed containers differ.
    _spill_seq = 0

    def __init__(self, tracker: MemoryTracker, layout: KVLayout | None = None,
                 page_size: int = 64 * 1024, tag: str = "kvc", *,
                 spill_env: "RankEnv | None" = None,
                 spill_store=None,
                 resident_page_budget: int | None = None,
                 codec: "Codec | None" = None,
                 codec_env: "RankEnv | None" = None):
        self.layout = layout or KVLayout()
        self.pool = PagePool(tracker, page_size, tag=tag)
        self.pages: list[Page] = []
        #: Codec-frozen full pages, between the spilled prefix and the
        #: live tail page(s) in record order.
        self._frozen: list[_FrozenSegment] = []
        self.nrecords = 0
        self.nbytes = 0  # payload bytes (not page capacity)
        self.tag = tag
        self._spill_env = spill_env
        #: Storage backend spill pages land on; ``None`` means the spill
        #: env's own substrate.  ``MimirConfig.storage`` redirects a
        #: job's spill here (see :meth:`repro.cluster.RankEnv.
        #: storage_for`).
        self._spill_store = spill_store
        self._resident_budget = resident_page_budget
        self._spill_writer = None
        self._codec = codec
        #: Environment charged for codec compute and metrics; falls
        #: back to the spill env so out-of-core containers need no
        #: extra wiring.
        self._codec_env = codec_env or spill_env
        #: Pin count: while positive, destructive operations
        #: (``consume`` / ``free``) are refused.  The intermediate
        #: cache (:mod:`repro.sched.cache`) pins containers that a
        #: downstream stage is reading so eviction cannot pull pages
        #: out from under a live iterator.
        self.pins = 0

    # ------------------------------------------------------------- insert

    def _tail_page(self, needed: int) -> Page:
        if needed > self.pool.page_size:
            raise RecordTooLargeError(needed, self.pool.page_size,
                                      f"KVC page ({self.tag})")
        if not self.pages or self.pages[-1].remaining < needed:
            if self._codec is not None and self.pages:
                self._freeze_tail()
            if self._spill_env is not None:
                self._make_room()
            self.pages.append(self.pool.acquire())
        return self.pages[-1]

    # --------------------------------------------------------- compression

    def _freeze_tail(self) -> None:
        """Compress the filled tail page into an immutable segment."""
        page = self.pages.pop()
        raw_len = page.used
        frame = self._codec.encode_frame(bytes(page.view))
        env = self._codec_env
        if env is not None:
            from repro.core.codec import note_encode

            note_encode(env.metrics, raw_len, len(frame))
            env.charge_compute(raw_len)
        # Charge the segment before releasing the page: if the tracker
        # refuses, the container is still intact with the page live.
        self.pool.tracker.allocate(len(frame), self.tag)
        self._frozen.append(_FrozenSegment(frame, raw_len))
        self.pool.release(page)

    def _thaw(self, segment: _FrozenSegment) -> bytes:
        raw = self._codec.decode_frame(segment.payload)
        env = self._codec_env
        if env is not None:
            env.charge_compute(segment.raw_len)
        return raw

    # -------------------------------------------------------- out-of-core

    def _over_budget(self) -> bool:
        return (self._resident_budget is not None and
                len(self._frozen) + len(self.pages) >= self._resident_budget)

    def _make_room(self) -> None:
        """Spill oldest resident data until one more page fits the budget.

        While the container is pinned, spilling is refused outright: a
        pinned container has live readers iterating its pages, and
        popping the front page would pull records out from under them.
        The resident budget is advisory; the hard memory limit stays
        enforced by the tracker at ``acquire`` time.
        """
        if self.pins:
            return
        while (self._frozen or self.pages) and \
                (self._over_budget() or not self.pool.would_fit()):
            self._spill_front()

    def _spill_front(self) -> None:
        from repro.io.spill import SpillWriter

        env = self._spill_env
        assert env is not None
        if self._spill_writer is None:
            KVContainer._spill_seq += 1
            store = self._spill_store if self._spill_store is not None \
                else env.pfs
            self._spill_writer = SpillWriter(
                store, env.comm, f"kvc_{self.tag}_{KVContainer._spill_seq}",
                codec=self._codec)
        if self._frozen:
            segment = self._frozen.pop(0)
            self._spill_writer.write_encoded(segment.payload)
            self.pool.tracker.free(len(segment.payload), self.tag)
        else:
            page = self.pages.pop(0)
            self._spill_writer.write_chunk(page.view)
            self.pool.release(page)

    @property
    def spilled(self) -> bool:
        return self._spill_writer is not None and \
            self._spill_writer.nchunks > 0

    @property
    def spilled_bytes(self) -> int:
        return self._spill_writer.total_bytes if self._spill_writer else 0

    def add(self, key: bytes, value: bytes) -> None:
        """Encode and append one record."""
        record = self.layout.encode(key, value)
        self.add_record_bytes(record)

    def add_record_bytes(self, record: bytes) -> None:
        """Append one pre-encoded record."""
        page = self._tail_page(len(record))
        page.write(record)
        self.nrecords += 1
        self.nbytes += len(record)

    def add_run(self, keys, values) -> None:
        """Encode and append one block of records: :meth:`add` for
        every pair, in one copy per page."""
        records = self.layout.encode_run(keys, values)
        self.extend_encoded(b"".join(records),
                            np.cumsum([0, *map(len, records)]))

    def extend_encoded(self, buf: bytes | memoryview, roff=None) -> int:
        """Append a packed run of records (e.g. one received shuffle part).

        One boundary scan (unless the caller knows the record offsets
        ``roff``, scan-style) plus bulk page-sized copies: records are
        re-split at page boundaries exactly as per-record insertion
        would (a record never straddles two pages), without decoding or
        re-encoding anything.  Returns the number of records added.
        """
        if isinstance(buf, memoryview):
            buf = bytes(buf)
        if roff is None:
            roff = self.layout.scan(buf)[0]
        n = len(roff) - 1
        view = memoryview(buf)
        i = 0
        while i < n:
            start = int(roff[i])
            page = self._tail_page(int(roff[i + 1]) - start)
            # Largest j with roff[j] - roff[i] <= the page's free space:
            # every record i..j-1 lands on this page in one copy.
            j = int(np.searchsorted(roff, start + page.remaining, "right")) - 1
            page.write(view[start : roff[j]])
            i = j
        self.nrecords += n
        self.nbytes += len(buf)
        return n

    # ------------------------------------------------------------ iterate

    def batches(self) -> Iterator[KVBatch]:
        """Non-destructive batch iteration: one :class:`KVBatch` per
        spilled chunk, frozen segment, or resident page, in record
        order."""
        if self._spill_writer is not None:
            for chunk in self._spill_writer.reader():
                yield KVBatch(chunk, self.layout)
        for segment in self._frozen:
            yield KVBatch(self._thaw(segment), self.layout)
        for page in self.pages:
            yield KVBatch(page.data, self.layout, page.used)

    def chunks(self) -> Iterator[bytes]:
        """Non-destructive twin of :meth:`consume_chunks`: every packed
        run the container holds, whichever tier holds it, as ``bytes``
        in record order.  The one way a container's records leave it
        for storage (checkpoints, cache eviction); allowed while
        pinned."""
        return (batch.data for batch in self.batches())

    def records(self) -> Iterator[tuple[bytes, bytes]]:
        """Non-destructive iteration over all records.

        Spilled pages (oldest data) stream back first at PFS read cost,
        preserving insertion order.  Compatibility shim over
        :meth:`batches`.
        """
        return chain.from_iterable(map(KVBatch.pairs_bytes, self.batches()))

    def consume_batches(self) -> Iterator[KVBatch]:
        """Destructive batch iteration: backing storage is freed as
        each batch is left behind.  Refused while pinned."""
        return (KVBatch(chunk, self.layout)
                for chunk in self.consume_chunks())

    def consume_chunks(self) -> Iterator[bytes]:
        """Destructive iteration over the packed runs themselves (a
        spilled chunk, a thawed segment or a page's records, as
        ``bytes``), unscanned: for a reader that already knows the
        record boundaries.  Storage is freed as each run is left
        behind.  Refused while pinned."""
        if self.pins:
            raise RuntimeError(
                f"cannot consume pinned container {self.tag!r} "
                f"({self.pins} pins held)")
        return self._consume_chunks()

    def _consume_chunks(self) -> Iterator[bytes]:
        if self._spill_writer is not None:
            reader = self._spill_writer.reader()
            try:
                yield from reader
            finally:
                self._spill_writer.discard()
                self._spill_writer = None
        while self._frozen:
            segment = self._frozen.pop(0)
            try:
                yield self._thaw(segment)
            finally:
                self.pool.tracker.free(len(segment.payload), self.tag)
        while self.pages:
            page = self.pages.pop(0)
            try:
                yield bytes(page.view)
            finally:
                consumed_bytes = page.used
                self.pool.release(page)
                self.nbytes = max(0, self.nbytes - consumed_bytes)
        self.nrecords = 0
        self.nbytes = 0

    def consume(self) -> Iterator[tuple[bytes, bytes]]:
        """Destructive iteration: each page is freed once fully read.

        This is what lets Mimir's convert/reduce pipeline shrink the KV
        footprint while the KMV footprint grows, instead of holding
        both in full.  Refused while the container is pinned.
        """
        return chain.from_iterable(
            map(KVBatch.pairs_bytes, self.consume_batches()))

    # ------------------------------------------------------------- manage

    def pin(self) -> None:
        """Protect the container from ``consume``/``free`` (refcounted)."""
        self.pins += 1

    def unpin(self) -> None:
        if self.pins <= 0:
            raise ValueError(f"unpin without matching pin on {self.tag!r}")
        self.pins -= 1

    def free(self) -> None:
        """Release every page and any spill file.  Refused while pinned."""
        if self.pins:
            raise RuntimeError(
                f"cannot free pinned container {self.tag!r} "
                f"({self.pins} pins held)")
        while self.pages:
            self.pool.release(self.pages.pop())
        while self._frozen:
            segment = self._frozen.pop()
            self.pool.tracker.free(len(segment.payload), self.tag)
        if self._spill_writer is not None:
            self._spill_writer.discard()
            self._spill_writer = None
        self.nrecords = 0
        self.nbytes = 0

    @property
    def memory_bytes(self) -> int:
        """Bytes of page capacity plus frozen-segment bytes held."""
        return len(self.pages) * self.pool.page_size + \
            sum(len(s.payload) for s in self._frozen)

    @property
    def npages(self) -> int:
        """Resident storage units (live pages plus frozen segments)."""
        return len(self.pages) + len(self._frozen)

    def __len__(self) -> int:
        return self.nrecords

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KVContainer(nrecords={self.nrecords}, nbytes={self.nbytes}, "
                f"pages={len(self.pages)}x{self.pool.page_size}, "
                f"frozen={len(self._frozen)})")
