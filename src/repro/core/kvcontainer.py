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

With the :mod:`~repro.core.codec` attached, every page that fills is
*frozen*: encoded into an immutable dedup+zlib segment charged to the
tracker at its exact encoded size (immutable variable-size blobs are
fragmentation-safe, like the KMVC's jumbo pages).  Only the live tail
page stays uncompressed, so the resident footprint of a skewed stream
shrinks by roughly the compression ratio - the paper's Figs. 11-12
memory win.  Frozen segments spill and stream back through the same
out-of-core machinery, already encoded, and a spill freezes the live
tail first: every spilled chunk is a frame, charged once to encode and
once per read, like a resident one.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.batch import FrameBatch, KVBatch
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
                 resident_page_budget: int | None = None,
                 codec: "Codec | None" = None,
                 codec_env: "RankEnv | None" = None):
        self.layout = layout or KVLayout()
        self.pool = PagePool(tracker, page_size, tag=tag)
        self.pages: list[Page] = []
        #: Pages holding records copied in unwalked -> the offset their
        #: count stopped at (:meth:`_count`).
        self._unwalked: dict[Page, int] = {}
        #: Codec-frozen full pages, between the spilled prefix and the
        #: live tail page(s) in record order.
        self._frozen: list[_FrozenSegment] = []
        self.nrecords = 0
        self.nbytes = 0  # payload bytes (not page capacity)
        self.tag = tag
        self._spill_env = spill_env
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
        # Charge the frame while the page is still held.  Out of core,
        # older data spills first until the frame fits; when none is
        # left, the page itself spills as this frame.
        page = self.pages[-1]
        raw_len, data = page.used, bytes(page.view)

        def scan() -> KVBatch:
            # The page's one scan: it counts the page and is the
            # codec's columns, dropped before any later stage runs.
            batch = KVBatch(data, self.layout)
            self._count(page, batch.roff)
            return batch

        frame = self._codec.encode_frame(data, scan)
        self._count(page)  # when no stage scanned
        env = self._codec_env
        if env is not None:
            from repro.core.codec import note_encode

            note_encode(env.metrics, raw_len, len(frame))
            env.charge_compute(raw_len)
        while self._spill_env is not None and not self.pins and \
                not self.pool.tracker.would_fit(len(frame)):
            if not self._frozen and self.pages[0] is page:
                self._writer().write_encoded(frame)
                self.pool.release(self.pages.pop())
                return
            self._spill_front()
        self.pool.tracker.allocate(len(frame), self.tag)
        self._frozen.append(_FrozenSegment(frame, raw_len))
        self.pool.release(self.pages.pop())

    def _thaw(self, segment: _FrozenSegment) -> "bytes | FrameBatch":
        """A segment's run (:meth:`Codec.read_frame
        <repro.core.codec.Codec.read_frame>`): a raw frame's packed
        records, or an encoded frame's columns."""
        run = self._codec.read_frame(segment.payload)
        env = self._codec_env
        if env is not None:
            env.charge_compute(segment.raw_len)
        return run

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

    def _writer(self):
        from repro.io.spill import SpillWriter

        if self._spill_writer is None:
            env = self._spill_env
            KVContainer._spill_seq += 1
            self._spill_writer = SpillWriter(
                env.pfs, env.comm, f"kvc_{self.tag}_{KVContainer._spill_seq}",
                codec=self._codec)
        return self._spill_writer

    def _spill_front(self) -> None:
        assert self._spill_env is not None
        writer = self._writer()
        if self._frozen:
            segment = self._frozen.pop(0)
            writer.write_encoded(segment.payload)
            self.pool.tracker.free(len(segment.payload), self.tag)
        else:
            page = self.pages.pop(0)
            self._count(page)
            writer.write_chunk(page.view)
            self.pool.release(page)

    def spill(self) -> None:
        """Spill every resident page, in record order (not while pinned).
        With a codec, the live tail freezes first."""
        if self.pins:
            return
        if self._codec is not None and self.pages and self.pages[-1].used:
            self._freeze_tail()
        while self._frozen or self.pages:
            self._spill_front()

    def _spilled(self) -> Iterator[bytes]:
        """The spilled tier's runs in record order; with a codec each
        read charges its packed length, as :meth:`_thaw` charges a
        frozen segment's."""
        env = self._codec_env if self._codec is not None else None
        for chunk in self._spill_writer.reader():
            if env is not None:
                env.charge_compute(len(chunk))
            yield chunk

    @property
    def spilled(self) -> bool:
        return self._spill_writer is not None and \
            self._spill_writer.nchunks > 0

    @property
    def spilled_bytes(self) -> int:
        return self._spill_writer.total_bytes if self._spill_writer else 0

    def add(self, key: bytes, value: bytes) -> None:
        """Encode and append one record."""
        self.add_record_bytes(self.layout.encode(key, value))

    def add_record_bytes(self, record: bytes) -> None:
        """Append one pre-encoded record."""
        self.extend_encoded(record, (0, len(record)))

    def add_run(self, keys, values) -> None:
        """Encode and append one block of records: :meth:`add` for
        every pair, in one copy per page."""
        records = self.layout.encode_run(keys, values)
        self.extend_encoded(b"".join(records),
                            np.cumsum([0, *map(len, records)]))

    def extend_encoded(self, buf: bytes | memoryview, roff=None) -> None:
        """Append a packed run of records (e.g. one received shuffle part).

        Pages are cut where per-record insertion cuts them, in bulk
        copies.  Only the records before a page split are walked
        (:meth:`KVLayout.fit`, or a search of ``roff``, the record
        offsets, if known); the rest is counted when first asked
        (:meth:`_count`), so a reader (convert) walks it once."""
        if isinstance(buf, memoryview):
            buf = bytes(buf)
        layout, view, start, end = self.layout, memoryview(buf), 0, len(buf)
        while start < end:
            page = self.pages[-1] if self.pages else None
            room = 0 if page is None else page.remaining
            if end - start <= room and roff is None and not layout.row_width:
                self._unwalked.setdefault(page, page.used)
                page.write(view[start:])
                break
            stop, n = layout.fit(buf, start, room, roff)
            if n:
                page.write(view[start:stop])
                if page not in self._unwalked:
                    self.nrecords += n
                start = stop
            if start < end:
                self._tail_page(layout.record_end(buf, start, roff) - start)
        self.nbytes += end

    def _count(self, page: Page, roff=None) -> None:
        """Count what was copied into ``page`` unwalked, if anything
        (a search of ``roff``, its record offsets, if known)."""
        if (mark := self._unwalked.pop(page, None)) is not None:
            stop, n = self.layout.fit(page.data, mark, page.used - mark,
                                      roff)
            if stop != page.used:
                raise ValueError(f"malformed record at page offset {stop}")
            self.nrecords += n

    # ------------------------------------------------------------ iterate

    def batches(self) -> Iterator[KVBatch]:
        """Non-destructive batch iteration: one :class:`KVBatch` per
        spilled chunk, frozen segment, or resident page, in record
        order.  An encoded segment comes as its
        :class:`~repro.core.batch.FrameBatch`: unpacked, unscanned."""
        if self._spill_writer is not None:
            for chunk in self._spilled():
                yield KVBatch(chunk, self.layout)
        for segment in self._frozen:
            run = self._thaw(segment)
            yield run if run.__class__ is FrameBatch else \
                KVBatch(run, self.layout)
        for page in self.pages:
            yield KVBatch(page.data, self.layout, page.used)

    def chunks(self) -> Iterator[bytes]:
        """Non-destructive twin of :meth:`consume_chunks`: every packed
        run the container holds, whichever tier holds it, as ``bytes``
        in record order.  The one way a container's records leave it
        for storage (checkpoints, cache eviction); allowed while
        pinned.  Nothing is scanned: the runs leave as they are held,
        an encoded segment packed."""
        if self._spill_writer is not None:
            yield from self._spilled()
        for segment in self._frozen:
            run = self._thaw(segment)
            yield run if run.__class__ is bytes else run.data
        for page in self.pages:
            yield bytes(page.view)

    def records(self) -> Iterator[tuple[bytes, bytes]]:
        """Non-destructive iteration over all records.

        Spilled pages (oldest data) stream back first at PFS read cost,
        preserving insertion order.  Compatibility shim over
        :meth:`batches`.
        """
        return chain.from_iterable(map(KVBatch.pairs_bytes, self.batches()))

    def consume_batches(self) -> Iterator[KVBatch]:
        """Destructive twin of :meth:`batches`: backing storage is freed
        as each batch is left behind.  Refused while pinned."""
        self._check_unpinned("consume")
        return self._consume(True)

    def consume_chunks(self) -> Iterator[bytes]:
        """Destructive iteration over the runs :meth:`batches` indexes,
        as ``bytes`` and unscanned: a spilled chunk's or a page's
        records, a frozen segment's thawed run - a raw frame's packed
        records, or an encoded frame's inflated body, which the
        :class:`~repro.core.batch.FrameBatch` of :meth:`batches`
        indexes.  For a reader that already holds the offsets (convert).
        Storage is freed as each run is left behind.  Refused while
        pinned."""
        self._check_unpinned("consume")
        return self._consume(False)

    def _check_unpinned(self, action: str) -> None:
        if self.pins:
            raise RuntimeError(
                f"cannot {action} pinned container {self.tag!r} "
                f"({self.pins} pins held)")

    def _consume(self, batches: bool) -> Iterator:
        layout = self.layout
        if self._spill_writer is not None:
            try:
                for chunk in self._spilled():
                    yield KVBatch(chunk, layout) if batches else chunk
            finally:
                self._spill_writer.discard()
                self._spill_writer = None
        while self._frozen:
            segment = self._frozen.pop(0)
            try:
                run = self._thaw(segment)
                if run.__class__ is FrameBatch:
                    yield run if batches else run.frame[0]
                else:
                    yield KVBatch(run, layout) if batches else run
            finally:
                self.pool.tracker.free(len(segment.payload), self.tag)
        while self.pages:
            page = self.pages.pop(0)
            try:
                yield KVBatch(page.data, layout, page.used) if batches \
                    else bytes(page.view)
            finally:
                consumed_bytes = page.used
                self.pool.release(page)
                self._unwalked.pop(page, None)
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
        self._check_unpinned("free")
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
        self._unwalked.clear()

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
        # Exact from memory alone: what left memory was counted then.
        for page in list(self._unwalked):
            self._count(page)
        return self.nrecords

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KVContainer(nrecords={self.nrecords}, nbytes={self.nbytes}, "
                f"pages={len(self.pages)}x{self.pool.page_size}, "
                f"frozen={len(self._frozen)})")
