"""Two-pass KV-to-KMV conversion (paper Section III-A, Figure 5).

Pass one scans the KVC and gathers, per unique key, the value count and
total value bytes in a hash bucket; that is enough to lay out every KMV
record at its exact final position.  Pass two re-scans the KVC -
destructively, freeing KV pages as they drain - and copies each value
into its reserved slot.  The KMVC therefore grows while the KVC
shrinks, instead of both being held in full as MR-MPI does.
"""

from __future__ import annotations

from typing import Iterator

from repro.cluster import RankEnv
from repro.core.bucket import CountingBucket
from repro.core.config import MimirConfig
from repro.core.kmvcontainer import KMVContainer
from repro.core.kvcontainer import KVContainer


def convert_to_kmv(env: RankEnv, kvc: KVContainer, config: MimirConfig,
                   tag: str = "kmvc") -> KMVContainer:
    """Convert ``kvc`` (consumed) into a new KMV container."""
    sizes = CountingBucket(env.tracker, config.bucket_entry_overhead)

    # Pass 1: gather per-key sizes.
    scanned = 0
    for key, value in kvc.records():
        sizes.add(key, len(value))
        scanned += len(key) + len(value)

    # Lay out one exactly sized slot per unique key, in first-seen order.
    kmvc = KMVContainer(env.tracker, kvc.layout, config.page_size, tag=tag)
    slots: dict[bytes, int] = {
        key: kmvc.reserve(key, count, total)
        for key, (count, total) in sizes.items()
    }

    # Pass 2: fill values while releasing KV pages.
    for key, value in kvc.consume():
        kmvc.append_value(slots[key], value)
    kmvc.finish_fill()

    sizes.free()
    env.charge_compute(2 * scanned)
    return kmvc


def iter_grouped_batches(env: RankEnv, kvc: KVContainer, config: MimirConfig,
                         ) -> "Iterator[list[tuple[bytes, list[bytes]]]]":
    """Stream the ``(key, values)`` groups of ``kvc`` (consumed), one
    group-list per KMV page.

    The in-memory path materialises a KMV container (the paper's
    convert) and drains it.  With ``config.out_of_core`` and a KV set
    too large to group in memory, the out-of-core path is used instead:
    KVs are hash-partitioned into PFS runs sized to the remaining
    memory budget and each partition is grouped and yielded on its own,
    so the full KMV never exists at once.
    """
    if config.out_of_core and _needs_partitioned_convert(env, kvc):
        for groups in _iter_partition_dicts(env, kvc, config):
            yield list(groups.items())
        return
    kmvc = convert_to_kmv(env, kvc, config)
    yield from kmvc.consume_batches()


def iter_grouped(env: RankEnv, kvc: KVContainer, config: MimirConfig,
                 ) -> "Iterator[tuple[bytes, list[bytes]]]":
    """:func:`iter_grouped_batches`, flattened to one group at a time."""
    for groups in iter_grouped_batches(env, kvc, config):
        yield from groups


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


def _iter_partition_dicts(env: RankEnv, kvc: KVContainer,
                          config: MimirConfig,
                          ) -> "Iterator[dict[bytes, list[bytes]]]":
    import zlib

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
    for key, value in kvc.consume():
        scanned += len(key) + len(value)
        part = zlib.crc32(key) % npart
        staging[part] += layout.encode(key, value)
        if len(staging[part]) >= config.page_size:
            writers[part].write_chunk(staging[part])
            staging[part] = bytearray()
    for part, buf in enumerate(staging):
        if buf:
            writers[part].write_chunk(buf)
    env.charge_compute(scanned)

    for writer in writers:
        groups: dict[bytes, list[bytes]] = {}
        grouped_bytes = 0
        for chunk in writer.reader():
            for key, value in layout.iter_records(chunk):
                groups.setdefault(key, []).append(value)
                grouped_bytes += len(key) + len(value)
        # The partition's working set is charged while it is live.
        env.tracker.allocate(grouped_bytes, "convert_partition")
        try:
            yield groups
        finally:
            env.tracker.free(grouped_bytes, "convert_partition")
            writer.discard()
        env.charge_compute(grouped_bytes)
