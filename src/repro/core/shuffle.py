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
from itertools import repeat
from typing import Callable

from repro.cluster import RankEnv
from repro.core.batch import KVBatch
from repro.core.codec import get_codec, note_encode
from repro.core.config import MimirConfig
from repro.core.errors import RecordTooLargeError
from repro.core.kvcontainer import KVContainer
from repro.core.records import KVLayout


def default_partitioner(key: bytes, nprocs: int) -> int:
    """Stable key-to-rank hash (crc32: deterministic across processes)."""
    return zlib.crc32(key) % nprocs


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
        send-buffer partition (paper Section III-B).
        """
        n = self.layout.encoded_size(key, value)
        dest = self.partitioner(key, self.nprocs)
        if n > self.part_size:
            raise RecordTooLargeError(n, self.part_size,
                                      "send-buffer partition")
        if self._fill[dest] + n > self.part_size:
            self.exchange(done=False)
        base = dest * self.part_size + self._fill[dest]
        self.layout.encode_into(self._send, base, key, value)
        self._fill[dest] += n
        self.records_sent += 1
        self.bytes_sent += n

    def emit_record(self, record: bytes | memoryview, dest: int) -> None:
        """Insert a pre-encoded record bound for rank ``dest``."""
        n = len(record)
        if n > self.part_size:
            raise RecordTooLargeError(n, self.part_size,
                                      "send-buffer partition")
        if self._fill[dest] + n > self.part_size:
            # Partition full: suspend map, run one aggregate round.
            self.exchange(done=False)
        base = dest * self.part_size + self._fill[dest]
        self._send[base : base + n] = record
        self._fill[dest] += n
        self.records_sent += 1
        self.bytes_sent += n

    # --------------------------------------------------------- bulk emits
    #
    # Partition fills, exchange trigger points, and the resulting byte
    # streams are identical to repeated single emits.

    def emit_run(self, keys, value: bytes) -> int:
        """Emit ``(key, value)`` for every key, sharing one value."""
        return self.emit_pairs(zip(keys, repeat(value)))

    def emit_pairs(self, pairs) -> int:
        """Emit an iterable of ``(key, value)`` pairs; returns its length."""
        layout = self.layout
        partitioner = self.partitioner
        nprocs = self.nprocs
        part_size = self.part_size
        fill = self._fill
        send = self._send
        count = 0
        nbytes = 0
        for key, value in pairs:
            n = layout.encoded_size(key, value)
            dest = partitioner(key, nprocs)
            if n > part_size:
                raise RecordTooLargeError(n, part_size,
                                          "send-buffer partition")
            if fill[dest] + n > part_size:
                self.exchange(done=False)
            base = dest * part_size + fill[dest]
            layout.encode_into(send, base, key, value)
            fill[dest] += n
            count += 1
            nbytes += n
        self.records_sent += count
        self.bytes_sent += nbytes
        self.batch_records += count
        self.batch_calls += 1
        return count

    def emit_batch(self, batch: KVBatch) -> None:
        """Route every record of a :class:`KVBatch` by its key hash.

        Records are copied as arena slices straight into their
        partitions - no per-record encode, no per-record bytes objects
        (the default crc32 partitioner hashes the key slice in place).
        """
        partitioner = self.partitioner
        nprocs = self.nprocs
        arena = batch.arena
        roff = batch.roff
        for i, (ks, ke) in enumerate(zip(batch.koff, batch.kend)):
            dest = partitioner(arena[ks:ke], nprocs)
            self.emit_record(arena[roff[i] : roff[i + 1]], dest)
        self.batch_records += len(batch)
        self.batch_calls += 1

    def emit_keyed_batch(self, batch: KVBatch, dest_for) -> None:
        """Route every record of a batch via ``dest_for(key_bytes)``.

        Used by the range partitioner of the global sort, whose
        splitter comparison needs orderable ``bytes`` keys.
        """
        arena = batch.arena
        roff = batch.roff
        for i, (ks, ke) in enumerate(zip(batch.koff, batch.kend)):
            dest = dest_for(bytes(arena[ks:ke]))
            self.emit_record(arena[roff[i] : roff[i + 1]], dest)
        self.batch_records += len(batch)
        self.batch_calls += 1

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
        # Clear in place: the batch emits hold a local alias to this
        # list across mid-batch exchanges, so rebinding would leave
        # them counting against stale fills.
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
