"""Partial reduction (paper Section III-C1, Figure 6).

For reduce operations with "partial-reduce invariance" (commutative and
associative merging, e.g. WordCount's sum), the convert and reduce
phases are replaced by a single streaming pass: KVs are scanned out of
the post-shuffle KVC (destructively - pages free as they drain) and
hashed into a bucket of unique KVs; on a duplicate key the user
callback folds the incoming value into the bucketed one.  No KMV is
ever materialised, so the memory high-water mark is the unique-key set
instead of the full grouped dataset.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster import RankEnv
from repro.core.batch import is_batch_kernel
from repro.core.bucket import AccountedBucket
from repro.core.config import MimirConfig
from repro.core.kvcontainer import KVContainer
from repro.core.records import KVLayout

#: ``pr_fn(key, value_a, value_b) -> value`` - same contract as a
#: combine callback: fold two values of one key into one.
PartialReduceFn = Callable[[bytes, bytes, bytes], bytes]


def partial_reduce(env: RankEnv, kvc: KVContainer, pr_fn,
                   config: MimirConfig, out_layout: KVLayout | None = None,
                   out_tag: str = "kv_out",
                   stats: dict | None = None, seed: KVContainer | None = None,
                   seed_consume: bool = True) -> KVContainer:
    """Fold ``kvc`` (consumed) into one KV per unique key.

    ``pr_fn`` is either a per-record fold (``pr_fn(key, a, b) -> value``)
    or, when marked with :func:`~repro.core.batch.batch_kernel`, a
    whole-batch fold called as ``pr_fn(bucket, batch)`` once per
    container page.  Both forms produce the same bucket contents (and
    so the same output).

    ``seed`` pre-loads the bucket from an existing aggregate *before*
    any new record folds in, so an incremental window fold (seed = the
    running aggregate, ``kvc`` = the new micro-batch) folds in the same
    old-then-new order as one uninterrupted pass over all records.
    """
    batch_fn = is_batch_kernel(pr_fn)
    bucket = AccountedBucket(env.tracker, config.bucket_entry_overhead,
                             tag="pr_bucket")
    scanned = 0
    batch_records = 0
    batch_pages = 0
    if seed is not None:
        for batch in (seed.consume_batches() if seed_consume
                      else seed.batches()):
            scanned += batch.payload_bytes
            for key, value in batch.pairs_bytes():
                existing = bucket.get(key)
                if existing is None:
                    bucket.set(key, value)
                elif batch_fn:
                    raise ValueError(
                        "seed container has duplicate keys; batch-kernel "
                        "folds need a unique-key (already reduced) seed")
                else:
                    bucket.set(key, pr_fn(key, existing, value))
    for batch in kvc.consume_batches():
        scanned += batch.payload_bytes
        if batch_fn:
            pr_fn(bucket, batch)
            batch_records += len(batch)
            batch_pages += 1
        else:
            for key, value in batch.pairs_bytes():
                existing = bucket.get(key)
                if existing is None:
                    bucket.set(key, value)
                else:
                    bucket.set(key, pr_fn(key, existing, value))

    out = KVContainer(env.tracker, out_layout or kvc.layout,
                      config.page_size, tag=out_tag)
    for key, value in bucket.drain():
        out.add(key, value)
    env.charge_compute(scanned + out.nbytes)
    if stats is not None:
        stats.update(batch_records=batch_records, batch_pages=batch_pages)
    return out
