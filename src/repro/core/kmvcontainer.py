"""The KMV container (KMVC): grouped ``<key, [values...]>`` records.

Functionally identical to the KVC but for merged records.  Supports the
two-pass conversion algorithm of the paper: pass one *reserves* an
exactly sized slot per unique key (sizes gathered in a hash bucket),
pass two *fills* values into their slots as the source KVC is consumed.
"""

from __future__ import annotations

import struct
from itertools import chain, islice
from typing import Iterator

import numpy as np

from repro.core.records import BLOCK, CSTRING, VARIABLE, KVLayout
from repro.memory.pages import Page, PagePool
from repro.memory.tracker import MemoryTracker

_U32 = struct.Struct("<I")


def encode_kmv_record(layout: KVLayout, key: bytes,
                      values: list[bytes]) -> bytes:
    """Encode one complete KMV record (used by the MR-MPI baseline).

    Layout: key field (per ``layout.key_len``), u32 value count, then
    each value (per ``layout.val_len``).
    """
    parts = []
    if layout.key_len is VARIABLE:
        parts.append(_U32.pack(len(key)))
    parts.append(key)
    if layout.key_len == CSTRING:
        parts.append(b"\0")
    parts.append(_U32.pack(len(values)))
    for value in values:
        if layout.val_len is VARIABLE:
            parts.append(_U32.pack(len(value)))
        parts.append(value)
        if layout.val_len == CSTRING:
            parts.append(b"\0")
    return b"".join(parts)


def iter_kmv_buffer(layout: KVLayout,
                    buf: bytes) -> Iterator[tuple[bytes, list[bytes]]]:
    """Decode a packed run of KMV records."""
    hint = layout.val_len
    unpack = _U32.unpack_from
    offset = 0
    end = len(buf)
    while offset < end:
        key, offset = layout._decode_field(layout.key_len, buf, offset)
        if offset + 4 > end:
            raise ValueError(f"truncated value count at offset {offset}")
        nvalues = unpack(buf, offset)[0]
        offset += 4
        if hint is VARIABLE:
            # A tight header walk: one length read per value.
            values = []
            try:
                for _ in range(nvalues):
                    stop = offset + 4 + unpack(buf, offset)[0]
                    values.append(buf[offset + 4 : stop])
                    offset = stop
            except struct.error:
                raise ValueError(
                    f"truncated length header at offset {offset}") from None
        elif hint == CSTRING:
            values = []
            for _ in range(nvalues):
                stop = buf.find(b"\0", offset)
                if stop < 0:
                    raise ValueError(
                        f"unterminated NUL string at offset {offset}")
                values.append(buf[offset:stop])
                offset = stop + 1
        else:
            # Fixed-width values are arithmetic.
            stop = offset + nvalues * hint
            values = [buf[at : at + hint] for at in range(offset, stop, hint)]
            offset = stop
        if offset > end:
            raise ValueError(f"truncated field at offset {offset}")
        yield key, values


class KMVContainer:
    """Key-multivalue records in pool pages, built by reserve/fill.

    Slots are columns (page index, fill cursor, end of slot; one entry
    per reserved record, in reserve order).  Convert reserves and fills
    a block of records per call; :meth:`reserve` and
    :meth:`append_value` are the one-record forms of the same code.
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
        self._slot_page = self._cursor = self._slot_end = \
            np.zeros(0, np.int64)

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
        columns = [(self._slot_page, self._cursor, self._slot_end)]
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
            self._store(on, at, b"".join(heads), head_lens)
            columns.append((on, at + head_lens, at + sizes))
            self.nbytes += int(ends[-1])
        first = len(self._cursor)
        self._slot_page, self._cursor, self._slot_end = \
            map(np.concatenate, zip(*columns))
        self.nrecords += len(keys)
        return first

    def reserve(self, key: bytes, nvalues: int,
                total_value_bytes: int) -> int:
        """Reserve a slot for one unique key; returns the slot id."""
        return self.reserve_run([key], [nvalues], [total_value_bytes])

    def fill_run(self, slots: np.ndarray, values) -> None:
        """Fill the next value of ``slots[i]`` with ``values[i]``, for a
        column of slot ids (repeats welcome) and as many values.

        Per block: a stable sort by slot makes each slot's values one
        contiguous run, which lands at the slot's cursor in one store.
        """
        values = iter(values)
        for lo in range(0, len(slots), BLOCK):
            ids = slots[lo : lo + BLOCK]
            block = list(islice(values, len(ids)))
            encoded = list(map(b"".join, zip(*self.layout.field_columns(
                self.layout.val_len, block, "value"))))
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            encoded = [encoded[i] for i in order.tolist()]
            lens = np.fromiter(map(len, encoded), np.int64, len(encoded))
            # One run per distinct slot: where it starts in sorted order.
            firsts = np.flatnonzero(np.diff(ids, prepend=-1))
            ids, lens = ids[firsts], np.add.reduceat(lens, firsts)
            at = self._cursor[ids]
            full = at + lens > self._slot_end[ids]
            if full.any():
                raise ValueError(f"slot {ids[full][0]} already holds all "
                                 f"its values")
            self._cursor[ids] = at + lens
            self._store(self._slot_page[ids], at, b"".join(encoded), lens)

    def append_value(self, slot_id: int, value: bytes) -> None:
        """Fill the next value of a reserved record."""
        self.fill_run(np.array([slot_id]), [value])

    def _store(self, on, at, blob: bytes, lens) -> None:
        """Cut ``blob`` into consecutive pieces of ``lens[i]`` bytes and
        copy piece ``i`` to offset ``at[i]`` of page ``on[i]``."""
        view = memoryview(blob)
        datas = [page.data for page in self.pages]
        cuts = np.cumsum(lens)
        for page, start, stop, lo, hi in zip(
                on.tolist(), at.tolist(), (at + lens).tolist(),
                (cuts - lens).tolist(), cuts.tolist()):
            datas[page][start:stop] = view[lo:hi]

    def finish_fill(self) -> None:
        """Assert every reserved slot was completely filled."""
        unfilled = int((self._cursor != self._slot_end).sum())
        if unfilled:
            raise ValueError(f"{unfilled} KMV slot(s) not completely filled")
        self._slot_page = self._cursor = self._slot_end = \
            np.zeros(0, np.int64)

    # ------------------------------------------------------------ iterate

    def _groups(self, page: Page) -> list[tuple[bytes, list[bytes]]]:
        return list(iter_kmv_buffer(self.layout, bytes(page.view)))

    def records(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """Non-destructive iteration over ``(key, values)``."""
        return chain.from_iterable(self.batches())

    def batches(self) -> Iterator[list[tuple[bytes, list[bytes]]]]:
        """Non-destructive iteration, one group-list per page."""
        return map(self._groups, self.pages)

    def consume(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """Destructive iteration freeing pages as they are read."""
        return chain.from_iterable(self.consume_batches())

    def consume_batches(self) -> Iterator[list[tuple[bytes, list[bytes]]]]:
        """Destructive iteration, one group-list per page."""
        while self.pages:
            page = self.pages.pop(0)
            try:
                yield self._groups(page)
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
        self._slot_page = self._cursor = self._slot_end = \
            np.zeros(0, np.int64)

    @property
    def memory_bytes(self) -> int:
        jumbo = sum(self._charges.values())
        normal = (len(self.pages) - len(self._charges)) * self.pool.page_size
        return normal + jumbo

    @property
    def npages(self) -> int:
        return len(self.pages)

    def __len__(self) -> int:
        return self.nrecords
