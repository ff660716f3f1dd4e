"""Shuffle/spill codecs: the paper's KV-compression optimization.

The paper's Figures 11-12 show compression wins that *grow with skew*:
the more duplicate keys a KV stream carries, the more a key-aware
encoding saves.  This module provides the pluggable codec layer behind
``MimirConfig.codec``:

- :class:`ZlibCodec` - general-purpose DEFLATE over the packed run.
- :class:`KVDedupCodec` - key-dedup/varint framing: every unique key
  is stored once in a first-seen dictionary and records become
  ``(varint key-index, value)`` pairs, which is where skewed streams
  collapse.  Decoding re-encodes each record through the layout, so
  the round trip is byte-exact.
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

from repro.core.batch import KVBatch
from repro.core.errors import ConfigError
from repro.core.records import KVLayout

_RAW = b"\x00"
_ENCODED = b"\x01"


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(buf, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = buf[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


class Codec:
    """One reversible transform over a packed record run."""

    #: Registry spec; subclasses override.
    name = "identity"

    def encode(self, data: bytes) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    def decode(self, data: bytes) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------ framing

    def encode_frame(self, data: bytes) -> bytes:
        """Encode with the skip-if-bigger guard; never grows by > 1 byte."""
        body = self.encode(data)
        if len(body) >= len(data):
            return _RAW + data
        return _ENCODED + body

    def decode_frame(self, frame) -> bytes:
        if isinstance(frame, memoryview):
            frame = bytes(frame)
        if not frame:
            return b""
        flag, body = frame[:1], frame[1:]
        if flag == _RAW:
            return bytes(body)
        if flag == _ENCODED:
            return self.decode(bytes(body))
        raise ValueError(f"bad codec frame flag {flag!r}")


class ZlibCodec(Codec):
    """DEFLATE the packed run (the paper's general-purpose baseline)."""

    name = "zlib"

    def __init__(self, level: int = 6):
        self.level = level

    def encode(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decode(self, data: bytes) -> bytes:
        return zlib.decompress(data)


class KVDedupCodec(Codec):
    """Key-dedup/varint framing for skewed key distributions.

    Encoding: a first-seen key dictionary (varint count, then varint
    length + key bytes each), followed by one ``(varint key-index,
    varint value-length, value bytes)`` triple per record.  Decoding
    re-encodes every record through the layout, so the output is the
    exact original byte run (containers and the shuffle only ever
    store ``layout.encode`` output).
    """

    name = "dedup"

    def __init__(self, layout: KVLayout):
        self.layout = layout

    def encode(self, data: bytes) -> bytes:
        index: dict[bytes, int] = {}
        keys: list[bytes] = []
        body = bytearray()
        for key, value in KVBatch(data, self.layout).pairs_bytes():
            slot = index.get(key)
            if slot is None:
                slot = index[key] = len(keys)
                keys.append(key)
            _write_varint(body, slot)
            _write_varint(body, len(value))
            body += value
        head = bytearray()
        _write_varint(head, len(keys))
        for key in keys:
            _write_varint(head, len(key))
            head += key
        return bytes(head + body)

    def decode(self, data: bytes) -> bytes:
        nkeys, offset = _read_varint(data, 0)
        keys: list[bytes] = []
        for _ in range(nkeys):
            klen, offset = _read_varint(data, offset)
            keys.append(data[offset : offset + klen])
            offset += klen
        encode = self.layout.encode
        out = bytearray()
        end = len(data)
        while offset < end:
            slot, offset = _read_varint(data, offset)
            vlen, offset = _read_varint(data, offset)
            out += encode(keys[slot], data[offset : offset + vlen])
            offset += vlen
        return bytes(out)


class ChainCodec(Codec):
    """Apply stages in order on encode, in reverse on decode."""

    def __init__(self, stages: list[Codec]):
        if not stages:
            raise ValueError("ChainCodec needs at least one stage")
        self.stages = list(stages)
        self.name = "+".join(stage.name for stage in self.stages)

    def encode(self, data: bytes) -> bytes:
        for stage in self.stages:
            data = stage.encode(data)
        return data

    def decode(self, data: bytes) -> bytes:
        for stage in reversed(self.stages):
            data = stage.decode(data)
        return data


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
