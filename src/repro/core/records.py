"""KV record encoding, including the paper's KV-hint layouts.

The general layout stores every key and value as a variable-length byte
sequence behind an 8-byte header (two little-endian u32 lengths).  The
KV-hint optimization (paper Section III-C3) lets the application declare
that the key and/or value length is constant for the whole job, or that
it is a NUL-terminated string (``CSTRING``, the paper's special value
-1): in both cases the corresponding 4-byte length header is omitted,
saving ~26 % of KV bytes for WordCount-like workloads.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Length hint: the field is variable-length and carries a u32 header.
VARIABLE = None
#: Length hint: the field is a NUL-terminated byte string (no header,
#: one trailing NUL byte).  The paper reserves -1 for this.
CSTRING = -1

#: Records every column pass (route+encode, convert, field slicing)
#: moves per call into C.  It bounds the per-block temporaries - int64
#: columns, ``tolist()`` ints, sliced fields - whatever the input
#: length, which is what keeps the host peak where the per-record
#: loops had it; it is a constant, not a knob.
BLOCK = 512

_U32 = struct.Struct("<I")
_U32x2 = struct.Struct("<II")
_U64 = struct.Struct("<Q")
#: Bytes a field carries beyond its data: a u32 header, a NUL, nothing.
_PAD = {VARIABLE: 4, CSTRING: 1}


def pack_u64(value: int) -> bytes:
    """Encode an integer value the way the benchmarks store counts."""
    return _U64.pack(value)


def unpack_u64(data: bytes | memoryview) -> int:
    return _U64.unpack_from(data)[0]


def _check_hint(hint: int | None, name: str) -> None:
    if hint is None or hint == CSTRING:
        return
    if not isinstance(hint, int) or isinstance(hint, bool) or hint <= 0:
        raise ValueError(
            f"{name} hint must be VARIABLE (None), CSTRING (-1), or a "
            f"positive length, got {hint!r}")


@dataclass(frozen=True)
class KVLayout:
    """Encoding rules for one KV stream.

    ``key_len`` / ``val_len``: ``VARIABLE`` (u32 header), ``CSTRING``
    (NUL-terminated, no header), or a positive fixed byte length (no
    header).  With both fixed a packed run *is* an ``(n, row_width)``
    byte matrix (:meth:`rows`); ``row_width`` is 0 otherwise.
    """

    key_len: int | None = VARIABLE
    val_len: int | None = VARIABLE

    def __post_init__(self):
        _check_hint(self.key_len, "key_len")
        _check_hint(self.val_len, "val_len")
        # Header or terminator bytes each field carries beyond its data,
        # and the record width when neither carries any (else 0).
        object.__setattr__(self, "_kpad", _PAD.get(self.key_len, 0))
        object.__setattr__(self, "_vpad", _PAD.get(self.val_len, 0))
        object.__setattr__(self, "row_width", 0 if self._kpad or self._vpad
                           else self.key_len + self.val_len)

    # ------------------------------------------------------------- sizing

    @property
    def header_size(self) -> int:
        """Bytes of length headers per record under this layout."""
        return (4 if self.key_len is VARIABLE else 0) + \
               (4 if self.val_len is VARIABLE else 0)

    def field_size(self, hint: int | None, data: bytes) -> int:
        if hint is VARIABLE:
            return 4 + len(data)
        if hint == CSTRING:
            return len(data) + 1
        return hint

    def encoded_size(self, key: bytes, value: bytes) -> int:
        """Exact encoded byte count of one record."""
        return self.field_size(self.key_len, key) + \
            self.field_size(self.val_len, value)

    # ----------------------------------------------------------- encoding

    def _check_field(self, hint: int | None, data: bytes, name: str) -> None:
        if hint == CSTRING:
            if b"\0" in data:
                raise ValueError(
                    f"{name} contains a NUL byte but the layout declares "
                    f"it NUL-terminated")
        elif hint is not VARIABLE and len(data) != hint:
            raise ValueError(
                f"{name} is {len(data)} bytes but the layout fixes it at "
                f"{hint} bytes")

    def encode(self, key: bytes, value: bytes) -> bytes:
        """Encode one record."""
        kl, vl = self.key_len, self.val_len
        if kl is VARIABLE and vl is VARIABLE:
            return _U32x2.pack(len(key), len(value)) + key + value
        # Inline field tests; ``_check_field`` only words the error.
        if kl is not VARIABLE and \
                (b"\0" in key if kl == CSTRING else len(key) != kl):
            self._check_field(kl, key, "key")
        if vl is not VARIABLE and \
                (b"\0" in value if vl == CSTRING else len(value) != vl):
            self._check_field(vl, value, "value")
        parts = []
        if kl is VARIABLE:
            parts.append(_U32.pack(len(key)))
        parts.append(key)
        if kl == CSTRING:
            parts.append(b"\0")
        if vl is VARIABLE:
            parts.append(_U32.pack(len(value)))
        parts.append(value)
        if vl == CSTRING:
            parts.append(b"\0")
        return b"".join(parts)

    def field_columns(self, hint: int | None, fields, name: str) -> list:
        """The byte columns one field contributes to a block of encoded
        records: length headers, the data itself, terminators.  A
        malformed field raises :meth:`encode`'s error for the first
        offender."""
        lens = list(map(len, fields))
        if hint is VARIABLE:
            return [map(_U32.pack, lens), fields]
        if b"\0" in b"".join(fields) if hint == CSTRING \
                else lens.count(hint) != len(lens):
            for data in fields:
                self._check_field(hint, data, name)
        return [fields, repeat(b"\0")] if hint == CSTRING else [fields]

    def encode_run(self, keys, values) -> list[bytes]:
        """Encode one block of records, a column at a time.

        ``keys`` and ``values`` are equally long sequences; the result
        holds :meth:`encode`'s bytes for each pair, and a malformed
        field fails the whole block before anything is returned.
        """
        cols = self.field_columns(self.key_len, keys, "key") + \
            self.field_columns(self.val_len, values, "value")
        if self.key_len is VARIABLE and self.val_len is VARIABLE:
            # The paper's layout leads with both lengths; two packed
            # u32 are the bytes of one ``<II`` header.
            cols[1], cols[2] = cols[2], cols[1]
        return list(map(b"".join, zip(*cols)))

    def encode_into(self, buf: bytearray, offset: int, key: bytes,
                    value: bytes, limit: int | None = None) -> int | None:
        """Encode one record directly at ``buf[offset:]``; returns the
        new offset.

        The zero-staging-copy path used by the shuffle: the map
        callback's record materialises straight inside the send-buffer
        partition, which is the design point the paper's Section III-B
        makes against MR-MPI's extra copies.  The caller guarantees
        capacity, or passes ``limit``: a record that would end past it
        is not written and ``None`` is returned (like
        :meth:`~repro.memory.pages.Page.write`).
        """
        kl, vl = self.key_len, self.val_len
        klen, vlen = len(key), len(value)
        if kl is not VARIABLE and \
                (b"\0" in key if kl == CSTRING else klen != kl):
            self._check_field(kl, key, "key")
        if vl is not VARIABLE and \
                (b"\0" in value if vl == CSTRING else vlen != vl):
            self._check_field(vl, value, "value")
        end = offset + klen + vlen + self._kpad + self._vpad
        if limit is not None and end > limit:
            return None
        if kl is VARIABLE and vl is VARIABLE:
            _U32x2.pack_into(buf, offset, klen, vlen)
            buf[offset + 8 : end - vlen] = key
            buf[end - vlen : end] = value
            return end
        if kl is VARIABLE:
            _U32.pack_into(buf, offset, klen)
            offset += 4
        buf[offset : offset + klen] = key
        offset += klen
        if kl == CSTRING:
            buf[offset] = 0
            offset += 1
        if vl is VARIABLE:
            _U32.pack_into(buf, offset, vlen)
            offset += 4
        buf[offset : offset + vlen] = value
        if vl == CSTRING:
            buf[end - 1] = 0
        return end

    # ----------------------------------------------------------- decoding

    def _decode_field(self, hint: int | None, buf: bytes,
                      offset: int) -> tuple[bytes, int]:
        start, stop, offset = self._scan_field(hint, buf, offset, len(buf))
        return bytes(buf[start:stop]), offset

    def decode(self, buf: bytes, offset: int = 0) -> tuple[bytes, bytes, int]:
        """Decode one record; returns ``(key, value, next_offset)``."""
        if self.key_len is VARIABLE and self.val_len is VARIABLE:
            # The paper's layout: one 8-byte header (both lengths)
            # before the actual data.
            if offset + 8 > len(buf):
                raise ValueError(f"truncated record header at offset {offset}")
            klen, vlen = _U32x2.unpack_from(buf, offset)
            start = offset + 8
            end = start + klen + vlen
            if end > len(buf):
                raise ValueError(f"truncated record at offset {offset}")
            return (bytes(buf[start : start + klen]),
                    bytes(buf[start + klen : end]), end)
        key, offset = self._decode_field(self.key_len, buf, offset)
        value, offset = self._decode_field(self.val_len, buf, offset)
        return key, value, offset

    def _scan_field(self, hint: int | None, buf, offset: int,
                    end: int) -> tuple[int, int, int]:
        """Bounds of one field: ``(data_start, data_end, next_offset)``."""
        if hint is VARIABLE:
            if offset + 4 > end:
                raise ValueError(f"truncated length header at offset {offset}")
            (n,) = _U32.unpack_from(buf, offset)
            start = offset + 4
            if start + n > end:
                raise ValueError(f"truncated field at offset {offset}")
            return start, start + n, start + n
        if hint == CSTRING:
            stop = buf.find(b"\0", offset, end)
            if stop < 0:
                raise ValueError(f"unterminated NUL string at offset {offset}")
            return offset, stop, stop + 1
        if offset + hint > end:
            raise ValueError(f"truncated fixed field at offset {offset}")
        return offset, offset + hint, offset + hint

    def scan(self, buf, end: int | None = None):
        """Column-scan a packed run of records into offset columns.

        Returns ``(roff, koff, kend, voff, vend)``: int64 numpy columns
        where record ``i`` occupies ``buf[roff[i]:roff[i+1]]``, its key
        is ``buf[koff[i]:kend[i]]`` and its value
        ``buf[voff[i]:vend[i]]``.  ``roff`` has one extra trailing entry
        (the scan end), so it doubles as the record-boundary table the
        bulk-copy paths split on.  The walk reads one header per record
        and appends one offset; every other column is derived from
        ``roff`` and the key lengths in a few array operations (columns
        may be views of one another: read them, do not write).  ``buf``
        must be ``bytes`` or ``bytearray`` (CSTRING scanning needs
        ``find``); pass ``end`` to scan a valid prefix.
        """
        if end is None:
            end = len(buf)
        kl, vl = self.key_len, self.val_len
        if rec := self.row_width:
            # Fixed/fixed: pure arithmetic, no walk.
            if end % rec:
                raise ValueError(
                    f"buffer length {end} is not a multiple of the fixed "
                    f"record size {rec}")
            roff = np.arange(0, end + 1, rec)
            return roff, roff[:-1], roff[:-1] + kl, roff[:-1] + kl, roff[1:]
        if isinstance(buf, memoryview):
            buf = bytes(buf)
        starts = array("q")
        mark = starts.append
        offset = 0
        if kl is VARIABLE and vl is VARIABLE:
            unpack, last = _U32x2.unpack_from, end - 8
            while offset <= last:
                mark(offset)
                klen, vlen = unpack(buf, offset)
                offset += 8 + klen + vlen
            if offset < end:
                raise ValueError(f"truncated record header at offset {offset}")
            if offset > end:
                raise ValueError(f"truncated record at offset {starts[-1]}")
        elif kl == CSTRING and not self._vpad:
            # The WordCount hint shape, NUL-ended key and fixed value:
            # one ``find`` per record, key lengths from the marks.
            find, step = buf.find, 1 + vl
            while offset < end:
                mark(offset)
                stop = find(b"\0", offset, end)
                if stop < 0:
                    raise ValueError(
                        f"unterminated NUL string at offset {offset}")
                offset = stop + step
            if offset > end:
                raise ValueError(
                    f"truncated fixed field at offset {offset - vl}")
        else:
            klens = array("q")
            note, field = klens.append, self._scan_field
            while offset < end:
                mark(offset)
                start, stop, offset = field(kl, buf, offset, end)
                note(stop - start)
                offset = field(vl, buf, offset, end)[2]
        mark(end)
        roff = np.frombuffer(starts, np.int64)
        if len(roff) == 1:
            return roff, roff[:0], roff[:0], roff[:0], roff[:0]
        if kl is VARIABLE and vl is VARIABLE:
            # Key lengths straight from the headers the walk visited.
            heads = sliding_window_view(np.frombuffer(buf, np.uint8, end), 4)
            koff = roff[:-1] + 8
            kend = koff + heads[roff[:-1]].view("<u4")[:, 0]
            return roff, koff, kend, kend, roff[1:]
        if kl == CSTRING and not self._vpad:
            kend = roff[1:] - (1 + vl)
            return roff, roff[:-1], kend, kend + 1, roff[1:]
        # [u32 klen?] key [NUL?] [u32 vlen?] value [NUL?]
        koff = roff[:-1] + (4 if kl is VARIABLE else 0)
        kend = koff + np.frombuffer(klens, np.int64)
        voff = kend + (kl == CSTRING) + (4 if vl is VARIABLE else 0)
        return roff, koff, kend, voff, roff[1:] - (vl == CSTRING)

    # ------------------------------------------------- fixed/fixed runs

    def rows(self, buf) -> np.ndarray:
        """A packed fixed/fixed run as an ``(n, row_width)`` uint8
        matrix over ``buf`` (no copy), one record per row."""
        return np.frombuffer(buf, np.uint8).reshape(-1, self.row_width)

    def column(self, rows: np.ndarray, by_value: bool = False) -> np.ndarray:
        """The key (value) of every row as one ``S<width>`` column, a
        view.  numpy compares ``S`` items over the whole item, so the
        column sorts and searches in ``bytes`` order, NULs included;
        reading an item strips trailing NULs, so leave by ``tobytes``."""
        field = rows[:, self.key_len :] if by_value \
            else rows[:, : self.key_len]
        return field.view(f"S{field.shape[1]}")[:, 0]

    def iter_records(self, buf: bytes | memoryview) -> Iterator[tuple[bytes, bytes]]:
        """Yield every record of a packed buffer."""
        if isinstance(buf, memoryview):
            buf = bytes(buf)
        offset = 0
        end = len(buf)
        while offset < end:
            key, value, offset = self.decode(buf, offset)
            yield key, value

    def count_records(self, buf: bytes | memoryview) -> int:
        return sum(1 for _ in self.iter_records(buf))


#: The default layout: both fields variable (8-byte header per record).
DEFAULT_LAYOUT = KVLayout()
