"""Global (cross-rank) sample sort for Mimir KV data.

``sort_local`` orders one rank's records; :func:`global_sort` produces
a total order across ranks: after sorting, every key on rank ``r``
compares less-than-or-equal to every key on rank ``r+1`` and each
rank's records are locally sorted.

Classic sample sort over the existing primitives: each rank publishes
a sample of its keys (allgather), identical splitters are derived
everywhere, records are shuffled with a range partitioner (called
once per page), and each rank sorts what it received.  Under a layout
that fixes both lengths a page is a matrix and its sort field a numpy
column: ``sort``, ``searchsorted`` and ``argsort`` over columns, rows
gathered by index.  Any other layout orders ``bytes`` fields with
``sorted`` and one C ``bisect_right`` per record.

Out of core, when the records to sort were spilled, both sorts run as
an external sort (the plan arXiv:2002.07553 calls realistic once data
exceeds memory): sorted runs sized from what the tracker has free,
each spilled as it is made, then a stable k-way merge into the output
container, which spills as it grows.  No step holds more than a run.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from functools import partial
from itertools import chain, islice, starmap

import numpy as np

from repro.cluster import RankEnv
from repro.core.batch import KVBatch
from repro.core.config import MimirConfig
from repro.core.kvcontainer import KVContainer
from repro.core.records import BLOCK
from repro.core.shuffle import Shuffler

#: Samples each rank contributes per destination rank.
DEFAULT_OVERSAMPLE = 8


def choose_splitters(samples: list[bytes], nprocs: int) -> list[bytes]:
    """Derive ``nprocs - 1`` splitters from the pooled key samples."""
    if nprocs <= 1 or not samples:
        return []
    ordered = sorted(samples)
    splitters = []
    for i in range(1, nprocs):
        idx = min(len(ordered) - 1, (i * len(ordered)) // nprocs)
        splitters.append(ordered[idx])
    return splitters


def range_partitioner(splitters: list[bytes]):
    """Partitioner sending keys to the rank owning their key range."""

    def partition(key: bytes, nprocs: int) -> int:
        return min(bisect_right(splitters, key), nprocs - 1)

    return partition


def sorted_records(batches, by_value: bool = False, key_fn=None,
                   ) -> list[bytes]:
    """The encoded records of ``batches`` in stable order of key, value,
    or ``key_fn(key, value)`` if given; charges nothing."""
    keys, records = [], []
    for batch in batches:
        keys.extend(
            starmap(key_fn, batch.pairs_bytes()) if key_fn is not None
            else batch.values_bytes() if by_value else batch.keys_bytes())
        records.extend(batch.records_bytes())
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys
    return list(map(records.__getitem__, order))


def sorted_container(env: RankEnv, batches, out: KVContainer,
                     by_value: bool = False, key_fn=None,
                     runs=None) -> KVContainer:
    """Fill ``out`` (an empty container the job made) with the records
    of ``batches`` ordered by key, by value, or by ``key_fn(key, value)``
    if given (stable); returns it.

    Records move as the encoded bytes they already are: joined in
    sorted order they re-split into pages exactly as per-record
    insertion would.  With ``runs`` (the job's ``container(layout,
    tag)``, passed when the records were spilled) they are sorted a run
    at a time and merged instead (:func:`_sort_runs`, :func:`_merge`).
    """
    if runs is not None:
        return _merge(env, _sort_runs(env, batches, out, by_value, key_fn,
                                      runs), out, by_value, key_fn, runs)
    layout = out.layout
    matrix = layout.row_width and key_fn is None
    if matrix:
        rows = layout.rows(b"".join([batch.data for batch in batches]))
        order = np.argsort(layout.column(rows, by_value), kind="stable")
    else:
        records = sorted_records(batches, by_value, key_fn)
    # Any cut of the sorted run at record boundaries re-splits into the
    # same pages; a block at a time keeps the gathered copy small.
    for lo in range(0, len(rows if matrix else records), BLOCK):
        out.extend_encoded(rows[order[lo : lo + BLOCK]].tobytes() if matrix
                           else b"".join(records[lo : lo + BLOCK]))
    env.charge_compute(out.nbytes)
    return out


# ------------------------------------------------------------ out of core

def _sort_runs(env: RankEnv, batches, out: KVContainer, by_value: bool,
               key_fn, runs) -> list[KVContainer]:
    """Sort ``batches`` a run at a time into spilled containers.

    A run takes batches while the tracker has room for them twice over
    (the held batches and the sort's joined copy, charged as
    ``"sort_run"``) plus the run container's page.  Each run is sorted
    in memory by :func:`sorted_container`, then spilled whole.
    """
    tracker, page = env.tracker, out.pool.page_size
    made, held, size = [], [], 0
    for batch in chain(batches, [None]):
        if held and (batch is None or
                     not tracker.would_fit(2 * len(batch.data) + page)):
            run = sorted_container(env, held, runs(out.layout, "sort_run"),
                                   by_value, key_fn)
            run.spill()
            tracker.free(2 * size, "sort_run")
            made.append(run)
            held, size = [], 0
        if batch is not None:
            tracker.allocate(2 * len(batch.data), "sort_run")
            held.append(batch)
            size += len(batch.data)
    return made


class _RunCursor:
    """Streams one sorted run a batch at a time; holds a single batch
    and slices its head record out of it on demand."""

    def __init__(self, batches, field):
        self._batches = batches
        self._field = field     # (batch, i) -> record i's sort field
        self.exhausted = False
        self._refill()

    def _refill(self) -> None:
        for batch in self._batches:
            if len(batch):
                self._batch, self._pos = batch, 0
                return
        self.exhausted = True

    def head_key(self):
        return self._field(self._batch, self._pos)

    def pop(self) -> bytes:
        batch, pos = self._batch, self._pos
        record = batch.data[batch.roff[pos] : batch.roff[pos + 1]]
        self._pos += 1
        if self._pos == len(batch):
            self._refill()
        return record


def _merge(env: RankEnv, made: list[KVContainer], out: KVContainer,
           by_value: bool, key_fn, runs) -> KVContainer:
    """Stable k-way merge of the sorted runs ``made`` into ``out``.

    Each open run holds one page-sized batch and the output stages up
    to a page, all charged as ``"sort_merge"``; the fan-in is what the
    tracker has room for, less a page for the target's tail.  With more
    runs than that, the first ones merge into a new spilled run that
    takes their place, so run order (the tiebreak) is kept and the
    result is the stable sort.
    """
    def field(batch, i):
        data = batch.data
        if by_value and key_fn is None:
            return data[batch.voff[i] : batch.vend[i]]
        key = data[batch.koff[i] : batch.kend[i]]
        return key if key_fn is None else \
            key_fn(key, data[batch.voff[i] : batch.vend[i]])

    tracker, page = env.tracker, out.pool.page_size
    while True:
        room = tracker.available
        fan_in = len(made) if room is None else max(2, room // page - 2)
        head, made = made[:fan_in], made[fan_in:]
        target = runs(out.layout, "sort_run") if made else out
        charge = page * (len(head) + 1)
        tracker.allocate(charge, "sort_merge")
        heap = [(cursor.head_key(), seq, cursor) for seq, cursor in
                enumerate(_RunCursor(run.consume_batches(), field)
                          for run in head) if not cursor.exhausted]
        heapq.heapify(heap)
        staged, staged_bytes = [], 0
        while heap:
            _key, seq, cursor = heap[0]
            record = cursor.pop()
            if cursor.exhausted:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (cursor.head_key(), seq, cursor))
            staged.append(record)
            staged_bytes += len(record)
            if staged_bytes >= page or not heap:
                target.extend_encoded(b"".join(staged),
                                      np.cumsum([0, *map(len, staged)]))
                staged, staged_bytes = [], 0
        tracker.free(charge, "sort_merge")
        env.charge_compute(target.nbytes)
        if not made:
            return out
        target.spill()
        made.insert(0, target)


def _sample(kvc: KVContainer, by_value: bool, want: int,
            presorted: bool = False) -> list[bytes]:
    """Up to ``want`` of this rank's sort fields, taken at regular
    strides of their sorted order (``kvc`` is left intact).  A
    ``presorted`` container is already in that order: one pass picks
    the same fields while holding only the picks."""
    if not len(kvc):
        return []
    fields = KVBatch.values_bytes if by_value else KVBatch.keys_bytes
    if presorted:
        stride, picked, seen = max(1, len(kvc) // want), [], 0
        for batch in kvc.batches():
            picked.extend(islice(fields(batch), -seen % stride, None, stride))
            seen += len(batch)
            if len(picked) >= want:
                break
        return picked[:want]
    if kvc.layout.row_width:
        local = np.sort(np.concatenate(
            [batch.column(by_value) for batch in kvc.batches()]))
        picked = local[:: max(1, len(local) // want)][:want].tobytes()
        return [picked[i : i + local.itemsize]
                for i in range(0, len(picked), local.itemsize)]
    local = sorted([field for batch in kvc.batches()
                    for field in fields(batch)])
    return local[:: max(1, len(local) // want)][:want]


def global_sort(env: RankEnv, kvc: KVContainer, config: MimirConfig,
                mid: KVContainer, out: KVContainer, *, runs,
                by_value: bool = False,
                oversample: int = DEFAULT_OVERSAMPLE) -> KVContainer:
    """Globally sort ``kvc`` (consumed) across all ranks, through two
    empty containers the job made: ``mid`` receives the range shuffle
    and is drained into ``out``, this rank's slice of the total order.

    Duplicate keys may land on either side of a splitter boundary but
    the global order is still correct (splitters compare with ``<=``).
    Records move as arena slices (rows) of their container pages, never
    re-encoded.

    Out of core, spilled records are sorted in runs made by ``runs``
    (the job's ``container``, see :func:`sorted_container`): a spilled
    ``kvc`` is first sorted locally, so its sample is one streaming
    pass, and a spilled ``mid`` is sorted into ``out``.  When ``kvc``
    and ``mid`` cannot both be resident, the input's resident pages go
    to its spill file (after its spilled prefix, so order is kept)
    before ``mid`` takes pages, and ``mid`` spills as it grows.
    """
    comm = env.comm
    want = max(1, comm.size * oversample)
    if config.out_of_core and kvc.spilled:
        kvc.spill()
        kvc = sorted_container(env, kvc.consume_batches(),
                               runs(kvc.layout, kvc.tag), by_value,
                               runs=runs)
        sample = _sample(kvc, by_value, want, presorted=True)
    else:
        sample = _sample(kvc, by_value, want)
    pooled = [key for part in comm.allgather(sample) for key in part]
    splitters = choose_splitters(pooled, comm.size)
    matrix = kvc.layout.row_width

    def dest_for(column):
        """:func:`range_partitioner` over a page's sort fields."""
        if matrix:
            ranks = np.searchsorted(np.array(splitters, column.dtype),
                                    column, "right")
        else:
            ranks = np.fromiter(
                map(partial(bisect_right, splitters), column), np.int64)
        return np.minimum(ranks, comm.size - 1)

    # Range-shuffle, then order locally.
    if config.out_of_core and not env.tracker.would_fit(
            kvc.nbytes + 2 * config.comm_buffer_size):
        kvc.spill()
    shuffler = Shuffler(env, config, mid)
    for batch in kvc.consume_batches():
        shuffler.emit_keyed_batch(batch, dest_for, by_value)
    shuffler.finish()
    env.charge_compute(shuffler.bytes_sent)
    if config.out_of_core and mid.spilled:
        mid.spill()
        return sorted_container(env, mid.consume_batches(), out, by_value,
                                runs=runs)
    return sorted_container(env, mid.consume_batches(), out, by_value)
