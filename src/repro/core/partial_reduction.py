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
from repro.core.bucket import Bucket
from repro.core.kvcontainer import KVContainer

#: ``pr_fn(key, value_a, value_b) -> value`` - same contract as a
#: combine callback: fold two values of one key into one.
PartialReduceFn = Callable[[bytes, bytes, bytes], bytes]


def partial_reduce(env: RankEnv, kvc: KVContainer, pr_fn, out: KVContainer,
                   stats: dict | None = None, seed: KVContainer | None = None,
                   seed_consume: bool = True,
                   consume: bool = True) -> KVContainer:
    """Fold ``kvc`` into one KV per unique key, appended to ``out`` (an
    empty container the job made) and returned; ``consume=False`` folds
    ``kvc`` in place and leaves it intact.

    ``pr_fn`` is either a per-record fold (``pr_fn(key, a, b) -> value``)
    or, when marked with :func:`~repro.core.batch.batch_kernel`, a
    batch fold called as ``pr_fn(acc, ids, rows)`` once per block of
    records over the bucket's value matrix (fixed-width values only, a
    :class:`~repro.core.errors.ConfigError` otherwise).  Both forms
    produce the same bucket contents (and so the same output).

    ``seed`` pre-loads the bucket from an existing aggregate *before*
    any new record folds in, so an incremental window fold (seed = the
    running aggregate, ``kvc`` = the new micro-batch) folds in the same
    old-then-new order as one uninterrupted pass over all records.
    """
    batch_fn = is_batch_kernel(pr_fn)
    bucket = Bucket(env.tracker, tag="pr_bucket", fold=pr_fn,
                    layout=kvc.layout)
    scanned = 0
    nrecords = npages = 0
    if seed is not None:
        seeded = 0
        for batch in (seed.consume_batches() if seed_consume
                      else seed.batches()):
            scanned += batch.payload_bytes
            seeded += bucket.fold_columns(batch.keys_bytes(),
                                          batch.values_bytes())
        if batch_fn and seeded != len(bucket):
            raise ValueError(
                "seed container has duplicate keys; batch-kernel "
                "folds need a unique-key (already reduced) seed")
    for batch in kvc.consume_batches() if consume else kvc.batches():
        scanned += batch.payload_bytes
        bucket.fold_columns(batch.keys_bytes(), batch.values_bytes())
        nrecords += len(batch)
        npages += 1

    for keys, values in bucket.drain():
        out.add_run(keys, values)
    env.charge_compute(scanned + out.nbytes)
    if stats is not None and batch_fn:
        stats.update(batch_records=nrecords, batch_pages=npages)
    return out
