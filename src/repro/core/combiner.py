"""KV compression: map-side combining (paper Section III-C2).

When the application supplies a combine callback, map output is routed
into a hash bucket instead of the send-buffer partitions.  Duplicate
keys are merged on the spot by the callback; the aggregate phase is
delayed until the map input is exhausted, at which point the bucket is
drained into the shuffler (reclaiming bucket memory entry-by-entry) and
the normal exchange rounds run.

The paper's caveats apply by construction: the bucket costs memory
(charged to the tracker), merging costs compute (charged to the
clock), and the win only materialises when the compression ratio is
high enough.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable

from repro.cluster import RankEnv
from repro.core.bucket import AccountedBucket
from repro.core.config import MimirConfig
from repro.core.shuffle import Shuffler

#: ``combine_fn(key, value_a, value_b) -> value`` merges two values of
#: one key into one (must be commutative and associative).
CombineFn = Callable[[bytes, bytes, bytes], bytes]


class Combiner:
    """Map-side combine stage in front of a :class:`Shuffler`."""

    def __init__(self, env: RankEnv, config: MimirConfig,
                 combine_fn: CombineFn, shuffler: Shuffler):
        self.env = env
        self.combine_fn = combine_fn
        self.shuffler = shuffler
        self.bucket = AccountedBucket(env.tracker,
                                      config.bucket_entry_overhead,
                                      tag="compress_bucket")
        #: None reproduces the paper (unbounded bucket, aggregate fully
        #: delayed); a byte budget enables the bounded-flush improvement
        #: the paper lists as future work.
        self.bucket_budget = config.combiner_bucket_budget
        self.records_in = 0
        self.records_merged = 0
        self.partial_flushes = 0
        self.batch_records = 0
        self.batch_calls = 0

    def emit(self, key: bytes, value: bytes) -> None:
        """Insert one KV, merging with any bucketed duplicate."""
        self.records_in += 1
        self._merge(key, value)
        if self.bucket_budget is not None and \
                self.bucket.accounted_bytes > self.bucket_budget:
            self._partial_flush()

    def _merge(self, key: bytes, value: bytes) -> None:
        existing = self.bucket.get(key)
        if existing is None:
            self.bucket.set(key, value)
        else:
            merged = self.combine_fn(key, existing, value)
            self.bucket.set(key, merged)
            self.records_merged += 1

    # --------------------------------------------------------- bulk emits

    def emit_run(self, keys, value: bytes) -> int:
        """Merge ``(key, value)`` for every key, sharing one value."""
        return self.emit_pairs(zip(keys, repeat(value)))

    def emit_pairs(self, pairs) -> int:
        """Merge an iterable of ``(key, value)`` pairs; returns its length."""
        count = 0
        for key, value in pairs:
            self._merge(key, value)
            count += 1
        self.records_in += count
        self.batch_records += count
        self.batch_calls += 1
        if self.bucket_budget is not None and \
                self.bucket.accounted_bytes > self.bucket_budget:
            self._partial_flush()
        return count

    def emit_batch(self, batch) -> None:
        """Merge every record of a :class:`~repro.core.batch.KVBatch`."""
        self.emit_pairs(batch.pairs_bytes())

    def _partial_flush(self) -> None:
        """Drain the bucket mid-map, bounding its memory footprint.

        Compression restarts empty afterwards, trading some compression
        ratio for a hard cap on the bucket's contribution to the peak.
        """
        self.env.charge_compute(self._drain_to_shuffler())
        self.partial_flushes += 1

    def _drain_to_shuffler(self) -> int:
        """Drain the bucket; returns the merged payload bytes moved."""
        bucket = self.bucket
        # Every entry is accounted as key + value + entry_overhead bytes.
        merged_bytes = (bucket.accounted_bytes
                        - len(bucket) * bucket.entry_overhead)
        self.shuffler.emit_pairs(bucket.drain())
        return merged_bytes

    def finish(self) -> None:
        """Drain the bucket into the shuffler and run the aggregate."""
        # Merging work is proportional to the records that went through
        # the bucket, not just the survivors.
        self.env.charge_compute(self._drain_to_shuffler())
        metrics = self.env.metrics
        metrics.inc("core.combine.records_in", self.records_in)
        metrics.inc("core.combine.merged", self.records_merged)
        if self.partial_flushes:
            metrics.inc("core.combine.flushes", self.partial_flushes)
        self.shuffler.finish()
