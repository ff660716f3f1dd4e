"""The KMV container (KMVC): grouped ``<key, [values...]>`` records.

Functionally identical to the KVC but for merged records.  Supports the
two-pass conversion algorithm of the paper: pass one *reserves* an
exactly sized slot per unique key (sizes gathered in a hash bucket),
pass two *fills* values into their slots as the source KVC is consumed,
a KV page per call and one scatter per KMV page (values of one width
move as rows, :class:`~repro.core.records.Fields`).

A record is ``key field | u32 count | u32 length per value (VARIABLE
only) | values (each NUL-ended for CSTRING)``, MR-MPI's own layout.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Iterator

import numpy as np

from repro.core.batch import KMVBatch
from repro.core.records import (BLOCK, CSTRING, VARIABLE, Fields, KVLayout,
                                byte_ranges, put_u32)
from repro.memory.pages import Page, PagePool
from repro.memory.tracker import MemoryTracker

_U32 = struct.Struct("<I")


def encode_kmv_runs(kmv: KMVBatch, order: np.ndarray):
    """Groups ``order`` of ``kmv`` as packed KMV records, a :data:`BLOCK`
    of groups per ``(bytes, record offsets plus the end)``: the heads as
    one encoded run, then one :func:`put_u32` write for the value lengths
    and one :class:`Fields` scatter for the values (rows when they are
    all one width)."""
    layout, starts = kmv.layout, np.cumsum(kmv.counts) - kmv.counts
    for lo in range(0, len(order), BLOCK):
        groups = order[lo : lo + BLOCK]
        counts = kmv.counts[groups]
        values = byte_ranges(starts[groups], counts)
        voff, lens = kmv.voff[values], kmv.vend[values] - kmv.voff[values]
        heads = KVLayout(layout.key_len, 4).encode_run(
            list(map(kmv.keys.__getitem__, groups.tolist())),
            list(map(_U32.pack, counts.tolist())))
        head_lens = np.fromiter(map(len, heads), np.int64, len(heads))
        # A value takes its bytes plus its u32 length or NUL (``_vpad``).
        size, firsts = lens + layout._vpad, np.cumsum(counts) - counts
        roff = np.cumsum([0, *head_lens + np.add.reduceat(size, firsts)])
        out = np.zeros(roff[-1], np.uint8)  # the NULs are already there
        out[byte_ranges(roff[:-1], head_lens)] = np.frombuffer(
            b"".join(heads), np.uint8)
        at = roff[:-1] + head_lens
        if layout.val_len is VARIABLE:
            put_u32(out, np.repeat(at - 4 * firsts, counts) +
                    np.arange(0, 4 * len(lens), 4), lens)
            size, at = lens, at + 4 * counts
        before = np.cumsum(size) - size
        Fields(np.frombuffer(kmv.data, np.uint8), voff, lens).scatter(
            out, np.repeat(at - before[firsts], counts) + before)
        yield out.tobytes(), roff


def iter_kmv_batches(layout: KVLayout, buf: bytes) -> Iterator[KMVBatch]:
    """Decode packed KMV records, a :class:`KMVBatch` per :data:`BLOCK`
    groups; a count the bytes left cannot hold (or 0) is a ValueError."""
    hint, end, offset, view = layout.val_len, len(buf), 0, memoryview(buf)
    nuls = np.flatnonzero(np.frombuffer(buf, np.uint8) == 0) \
        if hint == CSTRING else None
    while offset < end:
        keys, counts, starts = [], [], []
        while offset < end and len(keys) < BLOCK:
            kstart, kstop, offset = layout._scan_field(
                layout.key_len, buf, offset, end)
            if offset + 4 > end:
                raise ValueError(f"truncated value count at offset {offset}")
            count = _U32.unpack_from(buf, offset)[0]
            offset += 4
            # A value takes at least its length, its NUL or its width.
            if not 0 < count * (layout._vpad or hint) <= end - offset:
                raise ValueError(f"bad value count {count} at offset {offset}")
            keys.append(buf[kstart:kstop])
            counts.append(count)
            starts.append(offset)
            if hint is VARIABLE:
                # ``cast`` reads native order: the little-endian lengths
                # assume a little-endian host.
                offset += 4 * count + sum(
                    view[offset : offset + 4 * count].cast("I"))
            elif hint == CSTRING:
                # Values hold no NUL: the group ends at its count-th.
                first = int(nuls.searchsorted(offset))
                if first + count > len(nuls):
                    raise ValueError(f"unterminated NUL string at {offset}")
                offset = int(nuls[first + count - 1]) + 1
            else:
                offset += count * hint
            if offset > end:
                raise ValueError(f"truncated values at offset {starts[-1]}")
        yield KMVBatch(layout, keys, *_value_columns(
            layout, buf, counts, starts, nuls), buf)


def _value_columns(layout: KVLayout, buf: bytes, counts, starts, nuls):
    """Counts and int32 value offsets of one decoded block of groups."""
    counts, starts = np.array(counts, np.int64), np.array(starts, np.int64)
    firsts = np.cumsum(counts) - counts
    if layout.val_len == CSTRING:
        vend = nuls[np.repeat(nuls.searchsorted(starts) - firsts, counts) +
                    np.arange(firsts[-1] + counts[-1])].astype(np.int32)
        voff = np.roll(vend, 1) + 1
        voff[firsts] = starts
        return counts, voff, vend
    if layout.val_len is VARIABLE:
        lens = np.frombuffer(buf, np.uint8)[byte_ranges(
            starts, 4 * counts)].view("<u4").astype(np.int32)
        starts += 4 * counts
    else:
        lens = np.full(firsts[-1] + counts[-1], layout.val_len, np.int32)
    # A value starts where its group's values do, plus the lengths
    # before it in the group.
    voff = np.cumsum(lens, dtype=np.int32) - lens
    voff += np.repeat((starts - voff[firsts]).astype(np.int32), counts)
    return counts, voff, voff + lens


class KMVContainer:
    """Key-multivalue records in pool pages, built by reserve/fill.

    Slots are columns (page, next length, next value byte, end, values
    to come; one entry per reserved record, in reserve order, so in
    page order).  Convert reserves a block of keys and fills a KV page
    of values per call; :meth:`reserve` and :meth:`append_value` are
    the one-record forms of the same code.
    """

    def __init__(self, tracker: MemoryTracker, layout: KVLayout | None = None,
                 page_size: int = 64 * 1024, tag: str = "kmvc"):
        self.layout = layout or KVLayout()
        self.pool = PagePool(tracker, page_size, tag=tag)
        self.pages: list[Page] = []
        #: Charged capacity per page: page_size for pool pages, a
        #: multiple of it for jumbo pages holding one oversized KMV.
        self._charges: dict[int, int] = {}
        self.nrecords = 0
        self.nbytes = 0
        self.tag = tag
        self._drop_slots()

    def _drop_slots(self) -> None:
        self._slot_page = self._lens = self._cursor = self._end = \
            self._left = np.zeros(0, np.int64)

    # ------------------------------------------------------------- sizing

    def record_size(self, key: bytes, nvalues: int,
                    total_value_bytes: int) -> int:
        """Exact encoded size of a KMV record."""
        key_part = self.layout.field_size(self.layout.key_len, key)
        return key_part + 4 + total_value_bytes + \
            nvalues * self.layout._vpad

    # ------------------------------------------------------------ reserve

    def reserve_run(self, keys: list[bytes], counts, totals) -> int:
        """Reserve one slot per unique key, in order; returns the first
        slot id (the others follow it).

        ``counts`` and ``totals`` are columns: values and value bytes
        per key.  Keys and value counts are written immediately; values
        are filled later with :meth:`fill_run` in any interleaving.
        Page rules: a record never straddles pages; one larger than a
        page gets a dedicated "jumbo" buffer in whole page units
        (buffers are always fixed-size multiples, to stay
        fragmentation-safe), whose slack later small records may use.
        """
        counts = np.asarray(counts, np.int64)
        totals = np.asarray(totals, np.int64)
        if len(counts) and counts.min() <= 0:
            raise ValueError(f"nvalues must be positive, got {counts.min()}")
        # A record's head is its key field followed by a u32 count.
        head_layout = KVLayout(self.layout.key_len, 4)
        unit = self.pool.page_size
        columns = [(self._slot_page, self._lens, self._cursor,
                    self._end, self._left)]
        for lo in range(0, len(keys), BLOCK):
            span = slice(lo, lo + BLOCK)
            heads = head_layout.encode_run(
                keys[span], list(map(_U32.pack, counts[span].tolist())))
            head_lens = np.fromiter(map(len, heads), np.int64, len(heads))
            sizes = head_lens + totals[span] + \
                counts[span] * self.layout._vpad
            ends = np.cumsum(sizes)
            at = ends - sizes
            on = np.empty_like(at)
            slot = 0
            while slot < len(heads):
                size = int(sizes[slot])
                if size > unit:
                    charged = -(-size // unit) * unit
                    self.pool.tracker.allocate(charged, self.tag)
                    self.pages.append(Page(charged, self.tag))
                    self._charges[id(self.pages[-1])] = charged
                elif not self.pages or self.pages[-1].remaining < size:
                    self.pages.append(self.pool.acquire())
                page = self.pages[-1]
                # Records up to ``last`` fit what this page has left.
                begin = int(at[slot])
                last = int(np.searchsorted(ends, begin + page.remaining,
                                           "right"))
                on[slot:last] = len(self.pages) - 1
                at[slot:last] += page.used - begin
                page.used += int(ends[last - 1]) - begin
                slot = last
            self._store(on, at, Fields(
                np.frombuffer(b"".join(heads), np.uint8), None, head_lens))
            lengths = at + head_lens
            columns.append((on, lengths, lengths + 4 * counts[span] * (
                self.layout.val_len is VARIABLE), at + sizes, counts[span]))
            self.nbytes += int(ends[-1])
        first = len(self._cursor)
        self._slot_page, self._lens, self._cursor, self._end, \
            self._left = map(np.concatenate, zip(*columns))
        self.nrecords += len(keys)
        return first

    def reserve(self, key: bytes, nvalues: int,
                total_value_bytes: int) -> int:
        """Reserve a slot for one unique key; returns the slot id."""
        return self.reserve_run([key], [nvalues], [total_value_bytes])

    def fill_run(self, slots: np.ndarray, buf: bytes, voff, vend) -> None:
        """Fill the next value of ``slots[i]`` with ``buf[voff[i]:vend[i]]``;
        a CSTRING value's NUL is the zero its page starts as, so ``buf``
        need not hold one.

        Records are taken in runs of up to ``8 * BLOCK`` (one stock KV
        page).  Per run, a stable sort by slot makes each slot's values
        one run for its cursors, and one :class:`Fields` gather takes
        the values.  Slots are numbered in page order, so a KMV page's
        records are one run too: one scatter for its values and one
        :func:`put_u32` write for its lengths (VARIABLE).
        """
        src = np.frombuffer(buf, np.uint8)
        for lo in range(0, len(slots), 8 * BLOCK):
            span = slice(lo, lo + 8 * BLOCK)
            order = np.argsort(slots[span], kind="stable")
            ids, starts = slots[span][order], voff[span][order]
            lens = vend[span][order] - starts
            moved = lens + (self.layout.val_len == CSTRING)
            # One run per distinct slot: where it starts in sorted order.
            firsts = np.flatnonzero(np.diff(ids, prepend=-1))
            ids, nvals = ids[firsts], np.diff(firsts, append=len(order))
            at, size = self._cursor[ids], np.add.reduceat(moved, firsts)
            full = (nvals > self._left[ids]) | (at + size > self._end[ids])
            if full.any():
                raise ValueError(f"slot {ids[full][0]} is already full")
            self._left[ids] -= nvals
            self._cursor[ids] = at + size
            # A value lands at its run's cursor plus the run's bytes
            # before it; its length, 4 bytes per value before it.
            before = np.cumsum(moved) - moved
            lengths = None
            if self.layout.val_len is VARIABLE:
                lengths = (np.repeat(self._lens[ids] - 4 * firsts, nvals) +
                           np.arange(0, 4 * len(order), 4), lens)
                self._lens[ids] += 4 * nvals
            self._store(np.repeat(self._slot_page[ids], nvals),
                        before + np.repeat(at - before[firsts], nvals),
                        Fields(src, starts, lens), lengths)

    def append_value(self, slot_id: int, value: bytes) -> None:
        """Fill the next value of a reserved record."""
        self.layout._check_field(self.layout.val_len, value, "value")
        self.fill_run(np.array([slot_id]), value + b"\0", np.array([0]),
                      np.array([len(value)]))

    def _store(self, on, at, fields: Fields, lengths=None) -> None:
        """Scatter ``fields`` to offset ``at[i]`` of page ``on[i]``, one
        slice per page (``on`` sorted); ``lengths``, an ``(offsets,
        values)`` pair per field, are written as u32 on the same pages."""
        cuts = (np.flatnonzero(np.diff(on)) + 1).tolist()
        for page, lo, hi in zip(on[[0, *cuts]].tolist(), [0, *cuts],
                                [*cuts, len(on)]):
            flat = np.frombuffer(self.pages[page].data, np.uint8)
            fields.scatter(flat, at[lo:hi], lo, hi)
            if lengths is not None:
                put_u32(flat, lengths[0][lo:hi], lengths[1][lo:hi])

    def finish_fill(self) -> None:
        """Assert every reserved slot was completely filled."""
        unfilled = int(((self._cursor != self._end) | (self._left != 0)).sum())
        if unfilled:
            raise ValueError(f"{unfilled} KMV slot(s) not completely filled")
        self._drop_slots()

    # ------------------------------------------------------------ iterate

    def records(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """Non-destructive iteration over ``(key, values)``."""
        return chain.from_iterable(self.batches())

    def batches(self) -> Iterator[KMVBatch]:
        """Non-destructive iteration, a :class:`KMVBatch` per block."""
        return chain.from_iterable(iter_kmv_batches(self.layout, bytes(
            page.view)) for page in self.pages)

    def consume(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """Destructive iteration freeing pages as they are read."""
        return chain.from_iterable(self.consume_batches())

    def consume_batches(self) -> Iterator[KMVBatch]:
        """Destructive iteration; a page is freed after its last block."""
        while self.pages:
            page = self.pages.pop(0)
            try:
                yield from iter_kmv_batches(self.layout, bytes(page.view))
            finally:
                self._release_page(page)
        self.nrecords = 0
        self.nbytes = 0

    # ------------------------------------------------------------- manage

    def _release_page(self, page: Page) -> None:
        charged = self._charges.pop(id(page), None)
        if charged is None:
            self.pool.release(page)
        else:
            self.pool.tracker.free(charged, self.tag)

    def free(self) -> None:
        while self.pages:
            self._release_page(self.pages.pop())
        self.nrecords = 0
        self.nbytes = 0
        self._drop_slots()

    @property
    def memory_bytes(self) -> int:
        jumbo = sum(self._charges.values())
        normal = (len(self.pages) - len(self._charges)) * self.pool.page_size
        return normal + jumbo

    def __len__(self) -> int:
        return self.nrecords
