"""The scalar shuffle: what the engine's column router is checked against.

One record at a time, the way the send buffer was filled before every
emit became a block: encode the record in place inside its destination
partition, and when it does not fit, run one exchange round and write
it at the start of the emptied partition.  The engine no longer has a
per-record path; these two functions are the oracle the block paths
must reproduce byte for byte, exchange for exchange.  The reading side
is :func:`iter_records`: one ``decode`` per record, what the column
scan must agree with.  The out-of-core regroup has its oracles here
too: :func:`spill_partitions` stages one record at a time, and
:func:`encode_kmv_record` encodes one KMV record per group.
"""

import struct

import numpy as np

from repro.core.errors import RecordTooLargeError
from repro.core.records import CSTRING, VARIABLE
from repro.core.shuffle import hash_partition

_U32 = struct.Struct("<I")


def _field_bytes(hint, data, name):
    """One field as the layout stores it: header, data, terminator."""
    if hint is VARIABLE:
        return _U32.pack(len(data)) + data
    if hint == CSTRING:
        if b"\0" in data:
            raise ValueError(
                f"{name} contains a NUL byte but the layout declares it "
                f"NUL-terminated")
        return data + b"\0"
    if len(data) != hint:
        raise ValueError(
            f"{name} is {len(data)} bytes but the layout fixes it at "
            f"{hint} bytes")
    return data


def encode_into(layout, buf, offset, key, value, limit=None):
    """Encode one record at ``buf[offset:]`` and return the new offset,
    or ``None`` (nothing written) when it would end past ``limit``.
    The paper's layout leads with both lengths: with both fields
    ``VARIABLE`` the two u32 headers come first."""
    kbytes = _field_bytes(layout.key_len, key, "key")
    vbytes = _field_bytes(layout.val_len, value, "value")
    if layout.key_len is VARIABLE and layout.val_len is VARIABLE:
        record = kbytes[:4] + vbytes[:4] + key + value
    else:
        record = kbytes + vbytes
    end = offset + len(record)
    if limit is not None and end > limit:
        return None
    buf[offset:end] = record
    return end


def emit(shuffler, key, value):
    """Place one record in its :class:`~repro.core.shuffle.Shuffler`
    partition, exchanging first when the partition is full."""
    dest = shuffler.partitioner(key, shuffler.nprocs)
    base = dest * shuffler.part_size
    limit = base + shuffler.part_size
    start = base + shuffler._fill[dest]
    end = encode_into(shuffler.layout, shuffler._send, start, key, value,
                      limit)
    if end is None:
        size = len(_field_bytes(shuffler.layout.key_len, key, "key")) + \
            len(_field_bytes(shuffler.layout.val_len, value, "value"))
        if size > shuffler.part_size:
            raise RecordTooLargeError(size, shuffler.part_size,
                                      "send-buffer partition")
        shuffler.exchange(done=False)
        start = base
        end = encode_into(shuffler.layout, shuffler._send, base, key, value)
    shuffler._fill[dest] = end - base
    shuffler.records_sent += 1
    shuffler.bytes_sent += end - start


def iter_records(layout, buf):
    """Every ``(key, value)`` of a packed run, one ``decode`` at a time."""
    offset = 0
    while offset < len(buf):
        key, value, offset = layout.decode(buf, offset)
        yield key, value


def spill_partitions(batches, writers, page_size):
    """Route each record to ``writers[crc32(key) % n]``, staging it in
    its partition's buffer, which is written after exactly the record
    that brings it to ``page_size``; the rest is written at the end, in
    partition order.  Returns the payload bytes."""
    staging = [bytearray() for _ in writers]
    scanned = 0
    for batch in batches:
        scanned += batch.payload_bytes
        for part, record in zip(hash_partition(batch.keys_bytes(),
                                               len(writers)),
                                batch.records_bytes()):
            staging[part] += record
            if len(staging[part]) >= page_size:
                writers[part].write_chunk(staging[part])
                staging[part] = bytearray()
    for part, buf in enumerate(staging):
        if buf:
            writers[part].write_chunk(buf)
    return scanned


def encode_kmv_record(layout, key, values):
    """One complete KMV record: ``key field | u32 count | u32 length per
    value (VARIABLE only) | values (each NUL-ended for CSTRING)``."""
    sep = b"\0" if layout.val_len == CSTRING else b""
    return b"".join([
        _U32.pack(len(key)) if layout.key_len is VARIABLE else b"", key,
        b"\0" if layout.key_len == CSTRING else b"", _U32.pack(len(values)),
        np.fromiter(map(len, values), "<u4", len(values)).tobytes()
        if layout.val_len is VARIABLE else b"",
        sep.join(values), sep if values else b""])
