"""Shuffle/spill codecs: the paper's KV-compression optimization.

The paper's Figures 11-12 show compression wins that *grow with skew*:
the more duplicate keys a KV stream carries, the more a key-aware
encoding saves.  This module provides the pluggable codec layer behind
``MimirConfig.codec``:

- :class:`ZlibCodec` - general-purpose DEFLATE over the packed run.
- :class:`KVDedupCodec` - key-dedup/varint framing: every unique key
  is stored once in a first-seen dictionary and records become columns
  of varint key indexes, varint value lengths and value bytes, which is
  where skewed streams collapse.  Both directions are column passes a
  block of records at a time, and the round trip is byte-exact.
- :class:`ChainCodec` - composition (``"dedup+zlib"`` runs the varint
  framing and then DEFLATE over the residue).

Every encoded chunk is wrapped in a one-byte frame: ``0x00`` means the
payload is stored raw (the codec would have grown it - incompressible
data never regresses), ``0x01`` means encoded.  Frames are
deterministic, so identical inputs produce identical spill files and
wire bytes on every rank.
"""

from __future__ import annotations

import zlib
from itertools import islice

import numpy as np

from repro.core.batch import FrameBatch, KVBatch
from repro.core.bucket import group_run
from repro.core.errors import ConfigError
from repro.core.records import BLOCK, KVLayout, byte_ranges

_RAW = b"\x00"
_ENCODED = b"\x01"

#: DEFLATE level of :class:`ZlibCodec`: zlib's default, a constant.
ZLIB_LEVEL = 6


#: A varint carries 7 bits per byte, low group first, with the high bit
#: set on every byte but its last; values below 2**32 take <= 5 bytes.
_SHIFTS = np.arange(0, 35, 7, dtype=np.uint32)


def _varints(column) -> bytes:
    """The varints of a column of non-negative ints below 2**32."""
    column = np.asarray(column, np.uint32)
    top = int(column.max()) if len(column) else 0
    if top < 0x80:                  # every varint is one byte
        return column.astype(np.uint8).tobytes()
    rest = column[:, None] >> _SHIFTS[: (top.bit_length() + 6) // 7]
    groups = (rest & 0x7F | (rest > 0x7F) << 7).astype(np.uint8)
    keep = rest != 0
    keep[:, 0] = True
    return groups[keep].tobytes()


def _read_varints(data: bytes, offset: int, n: int) -> tuple[np.ndarray, int]:
    """``n`` varints from ``data[offset:]`` as int64, and the offset
    after them.  The column ends at its ``n``-th byte below 0x80, within
    ``5 * n`` bytes: one search over that window, no walk."""
    window = np.frombuffer(data, np.uint8, min(5 * n, len(data) - offset),
                           offset)
    ends = np.flatnonzero(window < 0x80)[:n]
    if len(ends) < n:
        raise ValueError(f"truncated varint column at offset {offset}")
    stop = int(ends[-1]) + 1 if n else 0
    if stop == n:                   # every varint is one byte
        return window[:n].astype(np.int64), offset + n
    starts = np.concatenate(([0], ends[:-1] + 1))
    width = ends + 1 - starts
    if width.max() > 5:
        raise ValueError(f"varint over 5 bytes in the column at offset "
                         f"{offset}")
    groups = (window[:stop] & 0x7F).astype(np.int64)
    groups <<= 7 * (np.arange(stop) - np.repeat(starts, width))
    return np.add.reduceat(groups, starts), offset + stop


def _byte_column(lens: np.ndarray, offset: int,
                 end: int) -> tuple[np.ndarray, int]:
    """Start offsets of consecutive byte strings of ``lens`` from
    ``offset``, and the offset after them (at most ``end``)."""
    stops = offset + np.cumsum(lens)
    stop = int(stops[-1]) if len(stops) else offset
    if stop > end:
        raise ValueError(f"truncated byte column at offset {offset}")
    return stops - lens, stop


class Codec:
    """One reversible transform over a packed record run."""

    #: Registry spec; subclasses override.
    name = "identity"

    def encode(self, data: bytes, scan=None) -> bytes:  # pragma: no cover
        """Encode the run ``data``; ``scan()``, if given, is its
        :class:`~repro.core.batch.KVBatch`, for a stage that reads the
        run's offset columns (the caller counts records from it)."""
        raise NotImplementedError

    def decode(self, data: bytes) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    def read(self, data: bytes) -> "bytes | FrameBatch":
        """:meth:`decode`, except that a dedup stage's output stays its
        :class:`~repro.core.batch.FrameBatch`, unpacked."""
        return self.decode(data)

    # ------------------------------------------------------------ framing

    def encode_frame(self, data: bytes, scan=None) -> bytes:
        """Encode with the skip-if-bigger guard; never grows by > 1 byte."""
        body = self.encode(data, scan)
        if len(body) >= len(data):
            return _RAW + data
        return _ENCODED + body

    def read_frame(self, frame) -> "bytes | FrameBatch":
        """The run a frame holds: packed records, or a dedup frame's
        :class:`~repro.core.batch.FrameBatch` (:meth:`read`)."""
        if isinstance(frame, memoryview):
            frame = bytes(frame)
        if not frame:
            return b""
        flag, body = frame[:1], frame[1:]
        if flag == _RAW:
            return bytes(body)
        if flag == _ENCODED:
            return self.read(bytes(body))
        raise ValueError(f"bad codec frame flag {flag!r}")

    def decode_frame(self, frame) -> bytes:
        """The packed records a frame holds."""
        run = self.read_frame(frame)
        return run if run.__class__ is bytes else run.data


class ZlibCodec(Codec):
    """DEFLATE the packed run (the paper's general-purpose baseline),
    at :data:`ZLIB_LEVEL`."""

    name = "zlib"

    def encode(self, data: bytes, scan=None) -> bytes:
        return zlib.compress(data, ZLIB_LEVEL)

    def decode(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as error:
            raise ValueError(f"bad zlib stream: {error}") from error


class KVDedupCodec(Codec):
    """Key-dedup/varint framing for skewed key distributions.

    The frame is columns: ``varint nkeys | nkeys varint key lengths |
    key bytes | varint nrecords``, keys numbered in first-seen order,
    then per :data:`~repro.core.records.BLOCK` records ``varint key
    indexes | varint value lengths | value bytes``.  Each side is a few
    column passes per block.  :meth:`read` is the one frame parser: it
    hands the frame out as int32 columns over its bytes, and decoding
    is :meth:`KVLayout.pack <repro.core.records.KVLayout.pack>` over
    them, so the output is the exact original run (containers and the
    shuffle only ever store ``layout.encode`` output).
    """

    name = "dedup"

    def __init__(self, layout: KVLayout):
        self.layout = layout

    def encode(self, data: bytes, scan=None) -> bytes:
        batch = KVBatch(data, self.layout) if scan is None else scan()
        flat = np.frombuffer(batch.data, np.uint8)
        index: dict[bytes, int] = {}
        keys = batch.keys_bytes()
        klens, kbytes, body = [], [], []
        for lo in range(0, len(batch), BLOCK):
            new, ids = group_run(index, list(islice(keys, BLOCK)))
            klens.append(_varints(np.fromiter(map(len, new), np.int32,
                                              len(new))))
            kbytes.append(b"".join(new))
            voff = batch.voff[lo : lo + BLOCK]
            vlen = batch.vend[lo : lo + BLOCK] - voff
            body += (_varints(ids), _varints(vlen),
                     flat[byte_ranges(voff, vlen)].tobytes())
        return b"".join([_varints([len(index)]), *klens, *kbytes,
                         _varints([len(batch)]), *body])

    def read(self, data: bytes) -> FrameBatch:
        """The frame ``data`` as a batch over its columns
        (:class:`~repro.core.batch.FrameBatch`).  Its structure is
        checked here (a typed ``ValueError``), its fields when they are
        packed.  It is read a block at a time into int32 columns, so
        the temporaries stay those of one block."""
        end = len(data)
        (nkeys,), offset = _read_varints(data, 0, 1)
        klen, offset = _read_varints(data, offset, int(nkeys))
        koff, offset = _byte_column(klen, offset, end)
        (nrecords,), offset = _read_varints(data, offset, 1)
        # A record takes at least a key index and a value length byte.
        if 2 * nrecords > end - offset:
            raise ValueError(f"truncated varint column at offset {offset}")
        # Three arrays, not one: pass one of convert keeps ``voff``.
        ids, voff, vlen = (np.empty(int(nrecords), np.int32)
                           for _ in range(3))
        for lo in range(0, int(nrecords), BLOCK):
            hi = min(lo + BLOCK, int(nrecords))
            block, offset = _read_varints(data, offset, hi - lo)
            if block.max() >= nkeys:
                raise ValueError(f"key index {block.max()} in a frame of "
                                 f"{nkeys} keys")
            ids[lo:hi] = block
            lens, offset = _read_varints(data, offset, hi - lo)
            starts, offset = _byte_column(lens, offset, end)
            voff[lo:hi], vlen[lo:hi] = starts, lens
        if offset != end:
            raise ValueError(f"{end - offset} trailing bytes after the "
                             f"last record")
        return FrameBatch((data, koff.astype(np.int32),
                           klen.astype(np.int32), ids, voff, vlen),
                          self.layout)

    def decode(self, data: bytes) -> bytes:
        return self.read(data).data


class ChainCodec(Codec):
    """Apply stages in order on encode, in reverse on decode."""

    def __init__(self, stages: list[Codec]):
        if not stages:
            raise ValueError("ChainCodec needs at least one stage")
        self.stages = list(stages)
        self.name = "+".join(stage.name for stage in self.stages)

    def encode(self, data: bytes, scan=None) -> bytes:
        data = self.stages[0].encode(data, scan)
        for stage in self.stages[1:]:
            data = stage.encode(data)
        return data

    def decode(self, data: bytes) -> bytes:
        for stage in reversed(self.stages):
            data = stage.decode(data)
        return data

    def read(self, data: bytes) -> "bytes | FrameBatch":
        for stage in reversed(self.stages[1:]):
            data = stage.decode(data)
        return self.stages[0].read(data)


#: Specs accepted by ``MimirConfig.codec``.
CODEC_SPECS = ("zlib", "dedup", "dedup+zlib")


def get_codec(spec: str | None, layout: KVLayout) -> Codec | None:
    """Resolve a ``MimirConfig.codec`` spec against a KV layout."""
    if spec is None:
        return None
    if spec == "zlib":
        return ZlibCodec()
    if spec == "dedup":
        return KVDedupCodec(layout)
    if spec == "dedup+zlib":
        return ChainCodec([KVDedupCodec(layout), ZlibCodec()])
    raise ConfigError(
        f"unknown codec {spec!r}; expected one of {CODEC_SPECS}")


def note_encode(metrics, raw_len: int, frame_len: int) -> None:
    """Emit the ``core.codec.*`` counters for one encoded chunk."""
    if metrics is not None:
        metrics.inc("core.codec.chunks")
        metrics.inc("core.codec.bytes_in", raw_len)
        metrics.inc("core.codec.bytes_out", frame_len)
