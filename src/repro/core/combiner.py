"""KV compression: map-side combining (paper Section III-C2).

When the application supplies a combine callback, map output is routed
into a hash bucket instead of the send-buffer partitions.  Duplicate
keys are merged on the spot by the callback; the aggregate phase is
delayed until the map input is exhausted, at which point the bucket is
drained into the shuffler (reclaiming bucket memory block by block) and
the normal exchange rounds run.

The paper's caveats apply by construction: the bucket costs memory
(charged to the tracker), merging costs compute (charged to the
clock), and the win only materialises when the compression ratio is
high enough.
"""

from __future__ import annotations

from itertools import chain, repeat, starmap
from typing import Callable

from repro.cluster import RankEnv
from repro.core.bucket import Bucket
from repro.core.config import MimirConfig
from repro.core.shuffle import Shuffler, pair_columns

#: ``combine_fn(key, value_a, value_b) -> value`` merges two values of
#: one key into one (must be commutative and associative).  Marked with
#: :func:`~repro.core.batch.batch_kernel` it is a batch fold instead,
#: ``combine_fn(acc, ids, rows)`` (see :class:`~repro.core.bucket.Bucket`).
CombineFn = Callable[[bytes, bytes, bytes], bytes]


class Combiner:
    """Map-side combine stage in front of a :class:`Shuffler`."""

    def __init__(self, env: RankEnv, config: MimirConfig,
                 combine_fn: CombineFn, shuffler: Shuffler):
        self.env = env
        self.shuffler = shuffler
        self.bucket = Bucket(env.tracker, tag="compress_bucket",
                             fold=combine_fn, layout=shuffler.layout)
        #: None reproduces the paper (unbounded bucket, aggregate fully
        #: delayed); a byte budget enables the bounded-flush improvement
        #: the paper lists as future work.
        self.bucket_budget = config.combiner_bucket_budget
        self.records_in = 0
        #: Entries drained to the shuffler so far.
        self.records_out = 0
        self.partial_flushes = 0
        self.batch_records = 0
        self.batch_calls = 0

    @property
    def records_merged(self) -> int:
        """Records folded into an entry that was already there."""
        return self.records_in - self.records_out - len(self.bucket)

    def emit_block(self, keys: list, values: list) -> None:
        """Merge one staged block of ``ctx.emit`` records (two equally
        long lists, at most a block); not counted as a bulk emit."""
        self.bucket.fold_block(keys, values)
        self.records_in += len(keys)
        if self.bucket_budget is not None:
            self._keep_budget()

    # --------------------------------------------------------- bulk emits

    def emit_run(self, keys, value: bytes) -> int:
        """Merge ``(key, value)`` for every key, sharing one value."""
        return self._emit_columns(iter(keys), repeat(value))

    def emit_pairs(self, pairs) -> int:
        """Merge an iterable of ``(key, value)`` pairs; returns its length."""
        return self._emit_columns(*pair_columns(pairs))

    def emit_batch(self, batch) -> None:
        """Merge every record of a :class:`~repro.core.batch.KVBatch`."""
        self._emit_columns(batch.keys_bytes(), batch.values_bytes())

    def _emit_columns(self, keys, values) -> int:
        count = self.bucket.fold_columns(keys, values)
        self.records_in += count
        self.batch_records += count
        self.batch_calls += 1
        if self.bucket_budget is not None:
            self._keep_budget()
        return count

    def _keep_budget(self) -> None:
        """Checked once per emit call (a staged block is one): over
        budget, drain the bucket mid-map.  Compression restarts empty
        afterwards, trading some compression ratio for a hard cap on
        the bucket's contribution to the peak."""
        if self.bucket.accounted_bytes > self.bucket_budget:
            self._flush()
            self.partial_flushes += 1

    def _flush(self) -> None:
        """Drain the bucket into the shuffler, charging the merge."""
        bucket = self.bucket
        # Merging work is proportional to the records that went through
        # the bucket, not just the survivors: every entry is accounted
        # as key + value + entry_overhead bytes.
        merged_bytes = (bucket.accounted_bytes
                        - len(bucket) * bucket.entry_overhead)
        self.records_out += len(bucket)
        # The shuffler pulls a block of pairs at a time, so a block's
        # accounting is released exactly when its records are routed.
        self.shuffler.emit_pairs(
            chain.from_iterable(starmap(zip, bucket.drain())))
        self.env.charge_compute(merged_bytes)

    def finish(self) -> None:
        """Drain the bucket into the shuffler and run the aggregate."""
        self._flush()
        metrics = self.env.metrics
        metrics.inc("core.combine.records_in", self.records_in)
        metrics.inc("core.combine.merged", self.records_merged)
        if self.partial_flushes:
            metrics.inc("core.combine.flushes", self.partial_flushes)
        self.shuffler.finish()
