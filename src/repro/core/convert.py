"""Two-pass KV-to-KMV conversion (paper Section III-A, Figure 5).

Pass one reads the KVC (a codec-frozen dedup page as its frame's
columns, any other page by one scan) and gathers, per unique key, the
value count and total value bytes in a hash bucket; that is enough to
lay out every KMV record at its exact final position.  Pass two
re-reads the KVC - destructively, freeing KV pages as they drain - and
copies each value into its reserved slot, a KV page per call, from the
12 B per record index pass one left (int32 value bounds and slot ids).
The KMVC therefore grows while the KVC shrinks, instead of both being
held in full as MR-MPI does.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterator

import numpy as np

from repro.cluster import RankEnv
from repro.core.batch import KMVBatch, KVBatch, iter_slices
from repro.core.bucket import ENTRY_OVERHEAD, Bucket, group_run
from repro.core.config import MimirConfig
from repro.core.kmvcontainer import KMVContainer
from repro.core.kvcontainer import KVContainer
from repro.core.records import BLOCK, Fields, byte_ranges
from repro.core.shuffle import hash_partition


def convert_to_kmv(env: RankEnv, kvc: KVContainer, config: MimirConfig,
                   tag: str = "kmvc") -> KMVContainer:
    """Convert ``kvc`` (consumed) into a new KMV container."""
    # Per entry: the key plus two u64 counters.
    sizes = Bucket(env.tracker, ENTRY_OVERHEAD + 16, "convert_bucket")

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

    # Pass 2: fill values while releasing KV pages (and their columns),
    # from the runs pass one indexed.
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
    group (slot) each belongs to.  A frozen dedup page
    (:class:`~repro.core.batch.FrameBatch`) enters its key dictionary
    once, in first-seen order - the order its records bring the keys -
    and its values are where the frame holds them.
    """
    if batch.frame is not None:
        body, koff, klen, ids, voff, vlen = batch.frame
        slots = sizes.enter_run(list(iter_slices(body, koff, koff + klen)))
        return (batch.payload_bytes, voff, voff + vlen,
                slots.astype(np.int32)[ids])
    keys = batch.keys_bytes()
    groups = np.empty(len(batch), np.int32)
    for lo in range(0, len(batch), BLOCK):
        groups[lo : lo + BLOCK] = sizes.enter_run(list(islice(keys, BLOCK)))
    # Offsets within one page, and slot ids, fit 31 bits: the index
    # pass two needs is 12 B per record.
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

    writers = [SpillWriter(env.pfs, env.comm, f"cvt_{kvc.tag}_part{i}")
               for i in range(npart)]
    env.charge_compute(spill_partitions(kvc.consume_batches(), writers,
                                        config.page_size))

    for writer in writers:
        kmv, grouped_bytes = _group_partition(kvc.layout, writer.reader())
        # The partition's working set is charged while it is live.
        env.tracker.allocate(grouped_bytes, "convert_partition")
        try:
            yield kmv
        finally:
            env.tracker.free(grouped_bytes, "convert_partition")
            writer.discard()
        env.charge_compute(grouped_bytes)


def split_by_dest(batch: KVBatch, dests: np.ndarray, lo: int):
    """Records ``lo:lo + len(dests)`` of ``batch`` grouped by destination,
    stably: ``(order, data, roff, runs)``, the gathered records' indexes,
    bytes and offsets, and per destination ``(dest, first, stop)``."""
    order = np.argsort(dests, kind="stable")
    starts = batch.roff[order + lo]
    sizes = batch.roff[order + lo + 1] - starts
    data = np.frombuffer(batch.data, np.uint8)[
        byte_ranges(starts, sizes)].tobytes()
    firsts = np.flatnonzero(np.diff(dests[order], prepend=-1))
    bounds = [*firsts.tolist(), len(order)]
    return order, data, np.concatenate(([0], np.cumsum(sizes))), zip(
        dests[order[firsts]].tolist(), bounds, bounds[1:])


def spill_partitions(batches, writers, page_size: int) -> int:
    """Route records to ``writers[crc32(key) % n]`` a block per call;
    returns their payload bytes.  A partition's staged bytes are written
    right after the record that brings them to a page, in record order
    (``tests/scalar_reference.py`` has the record-at-a-time oracle)."""
    staged, scanned = [bytearray() for _ in writers], 0
    for batch in batches:
        scanned += batch.payload_bytes
        keys = batch.keys_bytes()
        for lo in range(0, len(batch), BLOCK):
            dests = np.fromiter(hash_partition(islice(keys, BLOCK),
                                               len(writers)), np.intp)
            order, data, roff, runs = split_by_dest(batch, dests, lo)
            full = []
            for part, first, stop in runs:
                at, ends = roff[first], roff[first + 1 : stop + 1]
                # Staged bytes sit before ``at``: the chunk is full at the
                # first record end a page past where they start.
                cut = ends.searchsorted(at - len(staged[part]) + page_size)
                while cut < len(ends):
                    full.append((order[first + cut], part,
                                 staged[part] + data[at : ends[cut]]))
                    staged[part], at = bytearray(), ends[cut]
                    cut = ends.searchsorted(at + page_size)
                staged[part] += data[at : ends[-1]]
            for _, part, chunk in sorted(full):
                writers[part].write_chunk(chunk)
    for writer, chunk in zip(writers, staged):
        writer.write_chunk(chunk)  # an empty chunk writes nothing
    return scanned


def _group_partition(layout, chunks) -> tuple[KMVBatch, int]:
    """One partition's groups and payload bytes: values stay in arrival
    order (one :class:`Fields` gather per chunk, rows when they are one
    width), a stable sort of int32 first-seen group ids orders
    offsets."""
    index, grouped_bytes = {}, 0
    ids, lens, values = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)], []
    for chunk in chunks:
        batch = KVBatch(chunk, layout)
        grouped_bytes += batch.payload_bytes
        keys = batch.keys_bytes()
        for lo in range(0, len(batch), BLOCK):
            ids.append(group_run(index, list(islice(keys, BLOCK)))[1]
                       .astype(np.int32))
        lens.append((batch.vend - batch.voff).astype(np.int32))
        values.append(Fields(np.frombuffer(batch.data, np.uint8),
                             batch.voff, lens[-1]).flat())
    # Each column is freed as soon as the next is built: the peak is
    # the charged payload plus about 16 B per record (the int32 ids and
    # lengths, then the order that sorts them).
    values = b"".join(values)
    ids, lens = np.concatenate(ids), np.concatenate(lens)
    counts = np.bincount(ids, minlength=len(index))
    ids = np.argsort(ids, kind="stable")  # the order that sorts the ids
    vend = np.cumsum(lens, dtype=np.int32)[ids]
    return KMVBatch(layout, list(index), counts, vend - lens[ids], vend,
                    values), grouped_bytes
