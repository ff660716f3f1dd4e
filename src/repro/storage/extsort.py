"""External-sort storage backend: spill to local runs, then k-way merge.

Grounded in Sanders, "Connecting MapReduce Computations to Realistic
Machine Models" (arXiv:2002.07553): once the working set exceeds
aggregate memory, the optimal plan is the external-sort plan - form
memory-sized sorted runs on node-local storage, then stream a k-way
merge whose footprint is one frame per open run.  This module ships
both halves:

- :class:`ExternalSortBackend` - a :class:`~repro.storage.base.
  StorageBackend` whose ``spill/`` namespace is costed with a
  *node-local* disk model (no cross-node sharing, lower latency)
  while every other path pays the shared-store model.  Run traffic is
  therefore cheap, exactly the asymmetry that makes the external plan
  win.
- :func:`external_sort_file` - a driver that sorts a file of
  fixed-size records into one globally ordered output using only the
  protocol surface (costed reads, framed spill runs via
  :class:`~repro.io.spill.SpillWriter` with a :mod:`~repro.core.codec`
  codec, ``write_at`` output stripes).  Per-rank memory is bounded by
  ``run_budget`` + one frame per open run regardless of input size, so
  a terasort-class input larger than the cluster's aggregate memory
  budget completes where the in-memory path OOMs.

The driver is backend-agnostic - it runs (and is tested) on the PFS
and KV backends too; this backend just prices it realistically.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.mpi.costmodel import PFSModel
from repro.storage.kv import DEFAULT_NSHARDS, ShardedKVBackend

if TYPE_CHECKING:
    from repro.io.spill import SpillReader

#: Prefixes priced with the node-local model (run/spill traffic).
LOCAL_PREFIXES = ("spill/",)

#: How much cheaper node-local scratch is than the shared store:
#: latency divides by this, bandwidth multiplies (a local NVMe/SSD vs.
#: a contended PFS pipe; the precise factor only shapes virtual time).
LOCAL_SPEEDUP = 4.0


class ExternalSortBackend(ShardedKVBackend):
    """Sharded store with a cheap node-local ``spill/`` namespace.

    ``model`` prices the globally shared namespace (inputs, outputs,
    checkpoints, journal); ``local_model`` prices paths under
    :data:`LOCAL_PREFIXES` and defaults to the shared model sped up by
    :data:`LOCAL_SPEEDUP` with no write penalty.  Everything else -
    chaos hooks, retry taxonomy, metrics, atomicity contracts - is the
    inherited protocol behaviour, so recovery code cannot tell this
    backend apart from the others.
    """

    name = "extsort"

    def __init__(self, model: PFSModel | None = None,
                 local_model: PFSModel | None = None,
                 nshards: int = DEFAULT_NSHARDS):
        super().__init__(model, nshards=nshards)
        if local_model is None:
            shared = self.model
            local_model = PFSModel(
                latency=shared.latency / LOCAL_SPEEDUP,
                bandwidth=shared.bandwidth * LOCAL_SPEEDUP,
                io_ratio=shared.io_ratio)
        self.local_model = local_model

    def _cost(self, path: str, nbytes: int, write: bool = False) -> float:
        model = self.local_model if path.startswith(LOCAL_PREFIXES) \
            else self.model
        return model.access_cost(nbytes, write)


# ------------------------------------------------------------ the driver

@dataclass
class ExternalSortResult:
    """Per-rank outcome of :func:`external_sort_file`."""

    records_local: int      # records this rank merged into the output
    runs_written: int       # sorted runs this rank formed
    output_path: str


class _RunCursor:
    """Streams one sorted run frame-by-frame; holds a single frame."""

    def __init__(self, reader: "SpillReader", record_size: int):
        self._reader = reader
        self._record_size = record_size
        self._frame = b""
        self._pos = 0
        self.exhausted = False
        self._refill()

    def _refill(self) -> None:
        for frame in self._reader:
            if frame:
                self._frame, self._pos = frame, 0
                return
        self.exhausted = True

    def head_key(self, key_size: int) -> bytes:
        return self._frame[self._pos:self._pos + key_size]

    def pop(self) -> bytes:
        record = self._frame[self._pos:self._pos + self._record_size]
        self._pos += self._record_size
        if self._pos >= len(self._frame):
            self._refill()
        return record


def _sample_splitters(env, store, input_path, *, record_size, key_size,
                      nrecords, samples_per_rank=32) -> list[bytes]:
    """Agree on ``size - 1`` key splitters from strided key samples."""
    comm = env.comm
    samples = []
    if nrecords:
        stride = max(1, nrecords // max(1, samples_per_rank))
        for index in range(comm.rank, nrecords, stride * comm.size):
            data = store.read(comm, input_path, index * record_size,
                              key_size)
            samples.append(data)
    merged = sorted(b for part in comm.allgather(samples) for b in part)
    if not merged or comm.size == 1:
        return []
    return [merged[(i * len(merged)) // comm.size]
            for i in range(1, comm.size)]


def external_sort_file(env, input_path: str, output_path: str, *,
                       record_size: int, key_size: int,
                       run_budget: int = 64 * 1024,
                       frame_bytes: int = 8 * 1024,
                       codec: str | None = "zlib",
                       tag: str = "extsort") -> ExternalSortResult:
    """Globally sort ``input_path`` into ``output_path``; collective.

    Classic two-phase external sort over the storage protocol:

    1. **Run formation.**  Each rank reads its contiguous record slice
       in ``run_budget``-sized chunks, sorts each chunk in memory
       (charged to the rank's tracker, so the budget is *enforced*,
       not assumed), range-partitions it by sampled splitters, and
       spills each partition segment as a codec-framed sorted run
       (frames of ``frame_bytes``, so merge read-ahead is one small
       frame per run).
    2. **Merge.**  After a barrier and a run-manifest allgather, rank
       ``p`` k-way heap-merges every rank's runs for partition ``p``
       and stripes the result into ``output_path`` at its exact global
       offset via ``write_at``.

    Only protocol calls are used, so the function runs on any backend;
    on :class:`ExternalSortBackend` the run traffic is priced at
    node-local rates.  Emits ``storage.extsort.runs`` and
    ``storage.extsort.merged_records``.
    """
    # Imported here rather than at module level: the spill/codec stack
    # imports back through repro.io -> repro.storage, and this module is
    # reachable from the package __init__ during that import.
    from repro.core.codec import get_codec
    from repro.core.records import KVLayout
    from repro.io.spill import SpillReader, SpillWriter

    if record_size <= 0 or not 0 < key_size <= record_size:
        raise ValueError(
            f"bad record geometry: record_size={record_size}, "
            f"key_size={key_size}")
    comm, store, tracker = env.comm, env.pfs, env.tracker
    run_budget = max(record_size, run_budget - run_budget % record_size)

    nbytes = store.size(input_path)
    if nbytes % record_size:
        raise ValueError(
            f"{input_path!r} is {nbytes} bytes, not a multiple of "
            f"record_size {record_size}")
    nrecords = nbytes // record_size
    splitters = _sample_splitters(env, store, input_path,
                                  record_size=record_size,
                                  key_size=key_size, nrecords=nrecords)
    nparts = comm.size

    per_rank = -(-nrecords // comm.size)
    first = min(nrecords, comm.rank * per_rank)
    last = min(nrecords, first + per_rank)
    layout = KVLayout(key_len=key_size, val_len=record_size - key_size)
    run_codec = get_codec(codec, layout)

    # ---- phase 1: memory-bounded sorted runs, partitioned by splitter
    manifest: list[tuple[int, str, list[tuple[int, int]]]] = []
    part_bytes = [0] * nparts
    position, chunk_index = first, 0
    while position < last:
        count = min(run_budget // record_size, last - position)
        span = count * record_size
        tracker.allocate(span, "extsort_run")
        try:
            chunk = store.read(comm, input_path,
                               position * record_size, span)
            records = sorted(
                (chunk[off:off + record_size]
                 for off in range(0, span, record_size)),
                key=lambda r: r[:key_size])
            env.charge_compute(span)
            segments: list[list[bytes]] = [[] for _ in range(nparts)]
            for record in records:
                segments[bisect_right(splitters,
                                      record[:key_size])].append(record)
            for part, segment in enumerate(segments):
                if not segment:
                    continue
                writer = SpillWriter(
                    store, comm,
                    f"{tag}/p{part}/c{chunk_index}", codec=run_codec)
                payload = b"".join(segment)
                part_bytes[part] += len(payload)
                step = max(record_size,
                           frame_bytes - frame_bytes % record_size)
                for off in range(0, len(payload), step):
                    writer.write_chunk(payload[off:off + step])
                manifest.append((part, writer.path, writer.chunks))
        finally:
            tracker.free(span, "extsort_run")
        position += count
        chunk_index += 1
    env.metrics.inc("storage.extsort.runs", len(manifest))

    # ---- phase 2: every run durable; merge this rank's partition
    counts = comm.allgather(part_bytes)
    my_offset = sum(sum(rank_counts[:comm.rank])
                    for rank_counts in counts)
    runs = [entry for rank_manifest in comm.allgather(manifest)
            for entry in rank_manifest if entry[0] == comm.rank]

    cursors = []
    for _part, path, chunks in runs:
        tracker.allocate(frame_bytes, "extsort_merge")
        cursors.append(_RunCursor(
            SpillReader(store, comm, path, list(chunks), codec=run_codec),
            record_size))
    heap = [(cursor.head_key(key_size), seq, cursor)
            for seq, cursor in enumerate(cursors) if not cursor.exhausted]
    heapq.heapify(heap)

    tracker.allocate(run_budget, "extsort_merge")
    out = bytearray()
    written = merged = 0
    try:
        while heap:
            _key, seq, cursor = heapq.heappop(heap)
            out += cursor.pop()
            merged += 1
            if not cursor.exhausted:
                heapq.heappush(heap, (cursor.head_key(key_size), seq,
                                      cursor))
            if len(out) >= run_budget:
                store.write_at(comm, output_path, my_offset + written, out)
                written += len(out)
                out = bytearray()
        if out:
            store.write_at(comm, output_path, my_offset + written, out)
        elif written == 0 and comm.rank == 0 \
                and not store.exists(output_path):
            store.write_at(comm, output_path, 0, b"")
    finally:
        tracker.free(run_budget, "extsort_merge")
        for _part, path, _chunks in runs:
            store.delete(path)
        tracker.free(frame_bytes * len(cursors), "extsort_merge")
    env.charge_compute(merged * record_size)
    env.metrics.inc("storage.extsort.merged_records", merged)
    comm.barrier()
    return ExternalSortResult(records_local=merged,
                              runs_written=sum(1 for entry in manifest),
                              output_path=output_path)
