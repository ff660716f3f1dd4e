"""Interleaved map + aggregate: Mimir's implicit shuffle.

The send buffer is one statically allocated block divided into ``p``
equal partitions, one per destination rank.  The user-defined map
callback inserts KVs *directly* into the partition chosen by hashing
the key - there is no staging copy (paper Section III-B).  When a
partition fills, the map phase is suspended and all ranks run one
``MPI_Alltoallv`` round; received records flow into the output KVC and
the map resumes.  Because each sender contributes at most one partition
(``comm_buffer_size / p`` bytes) per destination per round, the total
received per round can never exceed one send buffer - so the receive
buffer is the same size as the send buffer, never larger (the paper's
"unexpected side benefit").

Termination: ranks that exhaust their input keep participating in
exchange rounds with empty partitions; after every round an allreduce
of done-flags decides whether the aggregate phase is over.
"""

from __future__ import annotations

import zlib
from itertools import islice, repeat, tee
from operator import itemgetter
from typing import Callable

import numpy as np

from repro.cluster import RankEnv
from repro.core.batch import KVBatch
from repro.core.codec import get_codec, note_encode
from repro.core.config import MimirConfig
from repro.core.errors import RecordTooLargeError
from repro.core.kvcontainer import KVContainer
from repro.core.records import BLOCK, KVLayout


def default_partitioner(key: bytes, nprocs: int) -> int:
    """Stable key-to-rank hash (crc32: deterministic across processes)."""
    return zlib.crc32(key) % nprocs


def hash_partition(keys, nparts: int):
    """:func:`default_partitioner` over a column of keys: a lazy
    ``crc32(key) % nparts`` per key with no Python frame per key."""
    return map(nparts.__rmod__, map(zlib.crc32, keys))


#: The byte-at-a-time CRC-32 table, read off zlib itself: the CRC of
#: the single byte ``b`` is ``table[b ^ 0xFF] ^ 0xFF000000``.
_CRC_TABLE = np.array([zlib.crc32(bytes([b ^ 0xFF])) ^ 0xFF000000
                       for b in range(256)], np.uint32)


def crc32_rows(keys: np.ndarray) -> np.ndarray:
    """``zlib.crc32`` of every row of an ``(n, width)`` uint8 matrix:
    the table-driven CRC, one byte column of all keys at a time."""
    crc = np.full(len(keys), 0xFFFFFFFF, np.uint32)
    for column in keys.T:
        crc = _CRC_TABLE[(crc ^ column) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def pair_columns(pairs):
    """An iterable of ``(key, value)`` pairs as two lazy columns."""
    keys, values = tee(pairs)
    return map(itemgetter(0), keys), map(itemgetter(1), values)


class Shuffler:
    """One map/aggregate phase's communication state for one rank."""

    def __init__(self, env: RankEnv, config: MimirConfig,
                 out_kvc: KVContainer,
                 partitioner: Callable[[bytes, int], int] | None = None,
                 trace=None):
        self.env = env
        self.config = config
        self.out_kvc = out_kvc
        self.trace = trace
        self.layout: KVLayout = out_kvc.layout
        self.partitioner = partitioner or default_partitioner
        self.nprocs = env.comm.size
        self.part_size = config.partition_size(self.nprocs)

        # Statically allocated, equally sized send and receive buffers.
        env.tracker.allocate(config.comm_buffer_size, "send_buffer")
        env.tracker.allocate(config.comm_buffer_size, "recv_buffer")
        self._send = bytearray(config.comm_buffer_size)
        self._fill = [0] * self.nprocs  # bytes used per partition
        self.codec = get_codec(config.codec, self.layout)
        self.rounds = 0
        self.records_sent = 0
        self.bytes_sent = 0
        #: Records and calls that arrived through the bulk emits.
        self.batch_records = 0
        self.batch_calls = 0
        self._closed = False

    # -------------------------------------------------------------- emit

    def emit(self, key: bytes, value: bytes) -> None:
        """Insert one KV directly into its destination partition.

        Zero staging copy: the record is encoded in place inside the
        send-buffer partition (paper Section III-B).  Synchronous on
        purpose: a kernel may advance the clock between two emits, so
        buffering them would reorder its reads against exchanges.
        """
        dest = self.partitioner(key, self.nprocs)
        base = dest * self.part_size
        start = base + self._fill[dest]
        end = self.layout.encode_into(self._send, start, key, value,
                                      base + self.part_size)
        if end is None:
            n = self.layout.encoded_size(key, value)
            if n > self.part_size:
                raise RecordTooLargeError(n, self.part_size,
                                          "send-buffer partition")
            # Partition full: suspend map, run one aggregate round.
            self.exchange(done=False)
            start = base
            end = self.layout.encode_into(self._send, base, key, value)
        self._fill[dest] = end - base
        self.records_sent += 1
        self.bytes_sent += end - start

    # --------------------------------------------------------- bulk emits
    #
    # Partition fills, exchange trigger points, and the resulting byte
    # streams are identical to repeated single emits; only errors
    # surface a block early (before the block's earlier records land).

    def emit_run(self, keys, value: bytes) -> int:
        """Emit ``(key, value)`` for every key, sharing one value."""
        return self._emit_columns(iter(keys), repeat(value))

    def emit_pairs(self, pairs) -> int:
        """Emit an iterable of ``(key, value)`` pairs; returns its length."""
        return self._emit_columns(*pair_columns(pairs))

    def _emit_columns(self, keys, values) -> int:
        """Encode and route two lazy columns, a block at a time."""
        count = 0
        while block := list(islice(keys, BLOCK)):
            self._route(
                self.layout.encode_run(block,
                                       list(islice(values, len(block)))),
                self._dests(block))
            count += len(block)
        self.batch_records += count
        self.batch_calls += 1
        return count

    def emit_batch(self, batch: KVBatch) -> None:
        """Route every record of a :class:`KVBatch` by its key hash.

        Records move as slices or rows of the batch, never re-encoded.
        """
        if not self.layout.row_width:
            dests = self._dests(batch.keys_bytes())
        elif self.partitioner is default_partitioner:
            dests = crc32_rows(batch.rows[:, : self.layout.key_len]) \
                % self.nprocs
        else:
            dests = np.fromiter(self._dests(batch.keys_bytes()), np.int64,
                                len(batch))
        self._emit_encoded(batch, dests)

    def emit_keyed_batch(self, batch: KVBatch, dest_for,
                         by_value: bool = False) -> None:
        """Route every record of a batch to ``dest_for(column)``, called
        once: the batch's keys (values with ``by_value``) in, an integer
        array of one destination rank per record out.  The column is
        :meth:`KVBatch.column` when the layout fixes both lengths, the
        lazy ``keys_bytes()`` / ``values_bytes()`` otherwise (the range
        partitioner of the global sort is the one caller)."""
        if self.layout.row_width:
            dests = dest_for(batch.column(by_value))
        else:
            dests = iter(dest_for(
                batch.values_bytes() if by_value else batch.keys_bytes()))
        self._emit_encoded(batch, dests)

    def _emit_encoded(self, batch: KVBatch, dests) -> None:
        # ``dests``: an iterator drained a block of slices at a time, or
        # (fixed/fixed) a column sliced along with the blocks of rows.
        if self.layout.row_width:
            rows = batch.rows
            for lo in range(0, len(rows), BLOCK):
                self._route(rows[lo : lo + BLOCK], dests[lo : lo + BLOCK],
                            self.layout.row_width)
        else:
            records = batch.records_bytes()
            while block := list(islice(records, BLOCK)):
                self._route(block, dests)
        self.batch_records += len(batch)
        self.batch_calls += 1

    def _dests(self, keys):
        """Lazy destination rank per key."""
        if self.partitioner is default_partitioner:
            return hash_partition(keys, self.nprocs)
        return map(self.partitioner, keys, repeat(self.nprocs))

    def _route(self, records, dests, width: int = 0) -> None:
        """Place one block of encoded records, taking one destination
        per record from ``dests``: the column router every bulk emit
        ends in (with ``width``: a matrix of such rows, a ``dests`` array).

        Per round: a stable sort by destination, a running sum per
        destination to find the first record that does not fit its
        partition, one join and one slice store per destination for
        the records before it, an exchange, then on from that record.
        """
        n = len(records)
        if width:
            sizes = np.full(n, width)
        else:
            sizes = np.fromiter(map(len, records), np.int64, n)
            dests = np.fromiter(islice(dests, n), np.int64, n)
        part_size, fill, send = self.part_size, self._fill, self._send
        if sizes.max() > part_size:
            raise RecordTooLargeError(int(sizes[sizes > part_size][0]),
                                      part_size, "send-buffer partition")
        start = 0
        while start < n:
            order = np.argsort(dests[start:], kind="stable") + start
            cuts = [0, *(np.flatnonzero(np.diff(dests[order])) + 1).tolist(),
                    len(order)]
            runs = [order[a:b] for a, b in zip(cuts, cuts[1:])]
            stop = n
            for run in runs:
                room = part_size - fill[dests[run[0]]]
                fits = np.searchsorted(np.cumsum(sizes[run]), room, "right")
                if fits < len(run):
                    stop = min(stop, int(run[fits]))
            for run in runs:
                dest = int(dests[run[0]])
                placed = run[: np.searchsorted(run, stop)]
                chunk = records[placed].tobytes() if width else \
                    b"".join([records[i] for i in placed.tolist()])
                base = dest * part_size + fill[dest]
                send[base : base + len(chunk)] = chunk
                fill[dest] += len(chunk)
            if stop < n:
                self.exchange(done=False)
            start = stop
        self.records_sent += n
        self.bytes_sent += int(sizes.sum())

    # ---------------------------------------------------------- exchange

    def exchange(self, done: bool) -> bool:
        """One aggregate round; returns True when all ranks are done."""
        sends = []
        total = 0
        send_view = memoryview(self._send)
        for dest in range(self.nprocs):
            base = dest * self.part_size
            # Zero-copy: each part is a view over the live send buffer.
            # The collective engine materialises it inside the enter
            # barrier, so no joined per-rank byte string is built here.
            part = send_view[base : base + self._fill[dest]]
            total += self._fill[dest]
            if self.codec is not None and self._fill[dest]:
                frame = self.codec.encode_frame(bytes(part))
                note_encode(self.env.metrics, self._fill[dest], len(frame))
                self.env.charge_compute(self._fill[dest])
                part = frame
            sends.append(part)
        received = self.env.comm.alltoallv(sends)
        # Clear in place: the router holds a local alias to this list
        # across mid-block exchanges, so rebinding would leave it
        # counting against stale fills.
        for dest in range(self.nprocs):
            self._fill[dest] = 0
        self.rounds += 1

        recv_total = 0
        for part in received:
            if part:
                if self.codec is not None:
                    part = self.codec.decode_frame(part)
                    self.env.charge_compute(len(part))
                self.out_kvc.extend_encoded(part)
                recv_total += len(part)
        # Copying out of the send buffer and into the KVC is local work.
        self.env.charge_compute(total + recv_total)
        if self.trace is not None:
            self.trace.emit(self.env, "exchange",
                            f"round {self.rounds}",
                            sent=total, received=recv_total, done=done)
        return self.env.comm.all_true(done)

    def finish(self) -> None:
        """Input exhausted: drain and keep joining rounds until all done."""
        while not self.exchange(done=True):
            pass
        self.close()

    def close(self) -> None:
        """Free the communication buffers."""
        if not self._closed:
            self.env.tracker.free(self.config.comm_buffer_size, "send_buffer")
            self.env.tracker.free(self.config.comm_buffer_size, "recv_buffer")
            self._send = bytearray(0)
            self._closed = True
