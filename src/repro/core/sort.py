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
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import starmap

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


def sorted_container(env: RankEnv, batches, out: KVContainer,
                     by_value: bool = False, key_fn=None) -> KVContainer:
    """Fill ``out`` (an empty container the job made) with the records
    of ``batches`` ordered by key, by value, or by ``key_fn(key, value)``
    if given (stable); returns it.

    Records move as the encoded bytes they already are: joined in
    sorted order they re-split into pages exactly as per-record
    insertion would.
    """
    layout = out.layout
    matrix = layout.row_width and key_fn is None
    if matrix:
        rows = layout.rows(b"".join([batch.data for batch in batches]))
        order = np.argsort(layout.column(rows, by_value), kind="stable")
    else:
        keys, records = [], []
        for batch in batches:
            keys.extend(
                starmap(key_fn, batch.pairs_bytes()) if key_fn is not None
                else batch.values_bytes() if by_value else batch.keys_bytes())
            records.extend(batch.records_bytes())
        order = sorted(range(len(keys)), key=keys.__getitem__)
        del keys
    # Any cut of the sorted run at record boundaries re-splits into the
    # same pages; a block at a time keeps the gathered copy small.
    for lo in range(0, len(order), BLOCK):
        block = order[lo : lo + BLOCK]
        out.extend_encoded(rows[block].tobytes() if matrix else
                           b"".join(map(records.__getitem__, block)))
    env.charge_compute(out.nbytes)
    return out


def _sample(kvc: KVContainer, by_value: bool, want: int) -> list[bytes]:
    """Up to ``want`` of this rank's sort fields, taken at regular
    strides of their sorted order (``kvc`` is left intact)."""
    if not len(kvc):
        return []
    if kvc.layout.row_width:
        local = np.sort(np.concatenate(
            [batch.column(by_value) for batch in kvc.batches()]))
        picked = local[:: max(1, len(local) // want)][:want].tobytes()
        return [picked[i : i + local.itemsize]
                for i in range(0, len(picked), local.itemsize)]
    fields = KVBatch.values_bytes if by_value else KVBatch.keys_bytes
    local = sorted([field for batch in kvc.batches()
                    for field in fields(batch)])
    return local[:: max(1, len(local) // want)][:want]


def global_sort(env: RankEnv, kvc: KVContainer, config: MimirConfig,
                mid: KVContainer, out: KVContainer, *,
                by_value: bool = False,
                oversample: int = DEFAULT_OVERSAMPLE) -> KVContainer:
    """Globally sort ``kvc`` (consumed) across all ranks, through two
    empty containers the job made: ``mid`` receives the range shuffle
    and is drained into ``out``, this rank's slice of the total order.

    Duplicate keys may land on either side of a splitter boundary but
    the global order is still correct (splitters compare with ``<=``).
    Records move as arena slices (rows) of their container pages, never
    re-encoded.
    """
    comm = env.comm
    sample = _sample(kvc, by_value, max(1, comm.size * oversample))
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
    shuffler = Shuffler(env, config, mid)
    for batch in kvc.consume_batches():
        shuffler.emit_keyed_batch(batch, dest_for, by_value)
    shuffler.finish()
    env.charge_compute(shuffler.bytes_sent)
    return sorted_container(env, mid.consume_batches(), out, by_value)
