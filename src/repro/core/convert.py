"""Two-pass KV-to-KMV conversion (paper Section III-A, Figure 5).

Pass one scans the KVC and gathers, per unique key, the value count and
total value bytes in a hash bucket; that is enough to lay out every KMV
record at its exact final position.  Pass two re-scans the KVC -
destructively, freeing KV pages as they drain - and copies each value
into its reserved slot.  The KMVC therefore grows while the KVC
shrinks, instead of both being held in full as MR-MPI does.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterator

import numpy as np

from repro.cluster import RankEnv
from repro.core.batch import KMVBatch, KVBatch
from repro.core.bucket import Bucket, group_run
from repro.core.config import MimirConfig
from repro.core.kmvcontainer import KMVContainer
from repro.core.kvcontainer import KVContainer
from repro.core.records import BLOCK, byte_ranges
from repro.core.shuffle import hash_partition


def convert_to_kmv(env: RankEnv, kvc: KVContainer, config: MimirConfig,
                   tag: str = "kmvc") -> KMVContainer:
    """Convert ``kvc`` (consumed) into a new KMV container."""
    # Per entry: the key plus two u64 counters.
    sizes = Bucket(env.tracker, config.bucket_entry_overhead + 16,
                   "convert_bucket")

    # Pass 1: group every page, then gather per-key sizes.
    pages = [_group_page(sizes, batch) for batch in kvc.batches()]
    counts, totals = np.zeros((2, len(sizes)), np.int64)
    for _, voff, vend, groups in pages:
        np.add.at(counts, groups, 1)
        np.add.at(totals, groups, vend - voff)
    pages.reverse()

    # Lay out one exactly sized slot per unique key, in first-seen order.
    kmvc = KMVContainer(env.tracker, kvc.layout, config.page_size, tag=tag)
    kmvc.reserve_run(list(sizes.index), counts, totals)

    # Pass 2: fill values while releasing KV pages (and their columns).
    scanned = 0
    for chunk in kvc.consume_chunks():
        payload, voff, vend, groups = pages.pop()
        kmvc.fill_run(groups, chunk, voff, vend)
        scanned += payload
    kmvc.finish_fill()

    sizes.free()
    env.charge_compute(2 * scanned)
    return kmvc


def _group_page(sizes: Bucket, batch: KVBatch):
    """Pass one over one page, a block of records per call.

    Returns the page's payload bytes and what pass two needs of it, so
    the page is never scanned again: where its values are and which
    group (slot) each belongs to.
    """
    keys = batch.keys_bytes()
    groups = np.empty(len(batch), np.intp)
    for lo in range(0, len(batch), BLOCK):
        groups[lo : lo + BLOCK] = sizes.enter_run(list(islice(keys, BLOCK)))
    # Offsets within one page fit 31 bits, as the fill's byte index
    # needs.
    return (batch.payload_bytes, batch.voff.astype(np.int32),
            batch.vend.astype(np.int32), groups)


def iter_grouped_batches(env: RankEnv, kvc: KVContainer, config: MimirConfig,
                         ) -> Iterator[KMVBatch]:
    """Stream the groups of ``kvc`` (consumed) as ``KMVBatch`` blocks.

    The in-memory path materialises a KMV container (the paper's
    convert) and drains it.  With ``config.out_of_core`` and a KV set
    too large to group in memory, the out-of-core path is used instead:
    KVs are hash-partitioned into PFS runs sized to the remaining
    memory budget and each partition is grouped and yielded on its own,
    so the full KMV never exists at once.
    """
    if config.out_of_core and _needs_partitioned_convert(env, kvc):
        yield from _iter_partitions(env, kvc, config)
        return
    kmvc = convert_to_kmv(env, kvc, config)
    yield from kmvc.consume_batches()


def iter_grouped(env: RankEnv, kvc: KVContainer, config: MimirConfig,
                 ) -> Iterator[tuple[bytes, list[bytes]]]:
    """:func:`iter_grouped_batches`, flattened to one group at a time."""
    return chain.from_iterable(iter_grouped_batches(env, kvc, config))


def _needs_partitioned_convert(env: RankEnv, kvc: KVContainer) -> bool:
    """Whether grouping in memory would blow the rank's budget."""
    if kvc.spilled:
        return True
    available = env.tracker.available
    if available is None:
        return False
    # Rough projection: the KMV is about the KV payload plus bucket
    # bookkeeping; require comfortable headroom.
    return kvc.nbytes * 2 > available


def _iter_partitions(env: RankEnv, kvc: KVContainer, config: MimirConfig,
                     ) -> Iterator[KMVBatch]:
    from repro.io.spill import SpillWriter

    available = env.tracker.available
    budget = max(config.page_size,
                 (available // 4) if available is not None
                 else kvc.nbytes or config.page_size)
    npart = max(1, -(-max(kvc.nbytes, 1) // budget))

    # Per-job spill redirection (MimirConfig.storage) applies to the
    # partitioned-convert scratch files, same as container spill.
    store = env.storage_for(config.storage) if config.storage else env.pfs
    writers = [SpillWriter(store, env.comm, f"cvt_{kvc.tag}_part{i}")
               for i in range(npart)]
    staging: list[bytearray] = [bytearray() for _ in range(npart)]
    layout = kvc.layout
    scanned = 0
    for batch in kvc.consume_batches():
        scanned += batch.payload_bytes
        # Records move as slices of the page, routed by a hash column;
        # a staged chunk is written after exactly the record that
        # brings it to a page.
        for part, record in zip(hash_partition(batch.keys_bytes(), npart),
                                batch.records_bytes()):
            staging[part] += record
            if len(staging[part]) >= config.page_size:
                writers[part].write_chunk(staging[part])
                staging[part] = bytearray()
    for part, buf in enumerate(staging):
        if buf:
            writers[part].write_chunk(buf)
    env.charge_compute(scanned)

    for writer in writers:
        kmv, grouped_bytes = _group_partition(layout, writer.reader())
        # The partition's working set is charged while it is live.
        env.tracker.allocate(grouped_bytes, "convert_partition")
        try:
            yield kmv
        finally:
            env.tracker.free(grouped_bytes, "convert_partition")
            writer.discard()
        env.charge_compute(grouped_bytes)


def _group_partition(layout, chunks) -> tuple[KMVBatch, int]:
    """One partition's groups and payload bytes: values stay in arrival
    order, a stable sort of int32 first-seen group ids orders offsets."""
    index, grouped_bytes = {}, 0
    ids, lens, values = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)], []
    for chunk in chunks:
        batch = KVBatch(chunk, layout)
        grouped_bytes += batch.payload_bytes
        keys, src = batch.keys_bytes(), np.frombuffer(batch.data, np.uint8)
        for lo in range(0, len(batch), BLOCK):
            ids.append(group_run(index, list(islice(keys, BLOCK)))[1]
                       .astype(np.int32))
            voff = batch.voff[lo : lo + BLOCK]
            lens.append((batch.vend[lo : lo + BLOCK] - voff).astype(np.int32))
            values.append(src[byte_ranges(voff, lens[-1])])
    # Each column is freed as soon as the next is built: the peak is
    # the charged payload plus about 16 B per record.
    values = b"".join(values)
    ids, lens = np.concatenate(ids), np.concatenate(lens)
    counts = np.bincount(ids, minlength=len(index))
    ids = np.argsort(ids, kind="stable")  # the order that sorts the ids
    vend = np.cumsum(lens, dtype=np.int32)[ids]
    return KMVBatch(layout, list(index), counts, vend - lens[ids], vend,
                    values), grouped_bytes
