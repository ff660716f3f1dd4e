"""Global (cross-rank) sample sort for Mimir KV data.

``sort_local`` orders one rank's records; :func:`global_sort` produces
a total order across ranks: after sorting, every key on rank ``r``
compares less-than-or-equal to every key on rank ``r+1`` and each
rank's records are locally sorted.

Classic sample sort over the existing primitives: each rank publishes
a sample of its keys (allgather), identical splitters are derived
everywhere, records are shuffled with a range partitioner (one
bisection per record), and each rank sorts what it received.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.cluster import RankEnv
from repro.core.batch import KVBatch
from repro.core.config import MimirConfig
from repro.core.kvcontainer import KVContainer
from repro.core.records import BLOCK, KVLayout
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


def sorted_container(env: RankEnv, batches, fields, layout: KVLayout,
                     config: MimirConfig, tag: str) -> KVContainer:
    """A new container holding the records of ``batches`` ordered by
    ``fields(batch)`` (one sort field per record; stable).

    Records move as the encoded slices they already are: joined in
    sorted order they re-split into pages exactly as per-record
    insertion would.
    """
    keys: list = []
    records: list[bytes] = []
    for batch in batches:
        keys.extend(fields(batch))
        records.extend(batch.records_bytes())
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys
    out = KVContainer(env.tracker, layout, config.page_size, tag=tag)
    # Any cut of the sorted run at record boundaries re-splits into the
    # same pages; a block at a time keeps the joined copy small.
    for lo in range(0, len(order), BLOCK):
        out.extend_encoded(b"".join(map(records.__getitem__,
                                        order[lo : lo + BLOCK])))
    env.charge_compute(out.nbytes)
    return out


def global_sort(env: RankEnv, kvc: KVContainer, config: MimirConfig, *,
                by_value: bool = False,
                oversample: int = DEFAULT_OVERSAMPLE,
                out_tag: str = "kv_gsorted") -> KVContainer:
    """Globally sort ``kvc`` (consumed) across all ranks.

    Returns this rank's slice of the total order.  Duplicate keys may
    land on either side of a splitter boundary but the global order is
    still correct (splitters compare with ``<=``).  Records move as
    arena slices of their container pages, never re-encoded.
    """
    comm = env.comm
    fields = KVBatch.values_bytes if by_value else KVBatch.keys_bytes

    # Sample this rank's sort fields at regular strides.
    local = [field for batch in kvc.batches() for field in fields(batch)]
    want = max(1, comm.size * oversample)
    stride = max(1, len(local) // want)
    sample = sorted(local)[::stride][:want] if local else []

    pooled = [key for part in comm.allgather(sample) for key in part]
    partition = range_partitioner(choose_splitters(pooled, comm.size))
    dest_for = lambda field: partition(field, comm.size)  # noqa: E731

    # Range-shuffle, then order locally.
    out = KVContainer(env.tracker, kvc.layout, config.page_size,
                      tag=out_tag)
    shuffler = Shuffler(env, config, out)
    for batch in kvc.consume_batches():
        shuffler.emit_keyed_batch(batch, dest_for, by_value)
    shuffler.finish()
    env.charge_compute(shuffler.bytes_sent)
    return sorted_container(env, out.consume_batches(), fields, out.layout,
                            config, out_tag)
