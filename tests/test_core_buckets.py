"""The accounted hash bucket behind compression, partial reduction,
convert and the skew sampler, against the per-record dict fold the
block passes replaced."""

import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.pagerank import PR_HINT_LAYOUT, pack_f64, pr_combine, \
    pr_fold_batch
from repro.apps.wordcount import wc_combine, wc_fold_batch
from repro.core import ConfigError, KVBatch, KVContainer, KVLayout, \
    MimirConfig, pack_u64
from repro.core.bucket import ENTRY_OVERHEAD, Bucket
from repro.core.combiner import Combiner
from repro.core.partial_reduction import partial_reduce
from repro.core.records import BLOCK, CSTRING, VARIABLE
from repro.memory import MemoryLimitExceeded, MemoryTracker
from tests.conftest import small_blocks


def LAST(key, a, b):
    """A fold that replaces: what ``dict[key] = value`` does."""
    return b


def CONCAT(key, a, b):
    return a + b


def drained(bucket):
    return [pair for keys, values in bucket.drain()
            for pair in zip(keys, values)]


def fold_one(bucket, key, value):
    """One record through ``fold_columns``: a one-record block."""
    assert bucket.fold_columns(iter([key]), iter([value])) == 1


def items(bucket):
    """The entries in slot order, without draining them."""
    values = bucket.values[: len(bucket)]
    return list(zip(bucket.index, values if isinstance(values, list)
                    else map(bytes, values)))


class TestAccountedBucket:
    """One record at a time: ``fold_columns`` over one-record blocks."""

    def test_set_and_get(self):
        b = Bucket(MemoryTracker(), fold=LAST)
        fold_one(b, b"k", b"v")
        assert dict(items(b)) == {b"k": b"v"}
        assert len(b) == 1

    def test_insert_charges_tracker(self):
        t = MemoryTracker()
        b = Bucket(t, entry_overhead=10, fold=LAST)
        fold_one(b, b"key", b"val")  # 3 + 3 + 10
        assert t.current == 16
        assert b.accounted_bytes == 16

    def test_replace_same_size_no_delta(self):
        t = MemoryTracker(keep_timeline=True)
        b = Bucket(t, entry_overhead=10, fold=LAST)
        fold_one(b, b"k", b"aa")
        fold_one(b, b"k", b"bb")
        assert len(t.timeline) == 1
        assert dict(items(b)) == {b"k": b"bb"}

    def test_replace_grows_and_shrinks(self):
        t = MemoryTracker()
        b = Bucket(t, entry_overhead=0, fold=LAST)
        fold_one(b, b"k", b"a")
        fold_one(b, b"k", b"aaaa")
        assert t.current == 1 + 4
        fold_one(b, b"k", b"")
        assert t.current == 1

    def test_drain_yields_and_frees(self):
        t = MemoryTracker()
        b = Bucket(t, entry_overhead=5, fold=LAST)
        fold_one(b, b"a", b"1")
        fold_one(b, b"b", b"2")
        assert drained(b) == [(b"a", b"1"), (b"b", b"2")]
        assert t.current == 0
        assert len(b) == 0

    def test_drain_frees_incrementally(self):
        t = MemoryTracker()
        b = Bucket(t, entry_overhead=5, fold=LAST)
        for i in range(10):
            fold_one(b, b"k%d" % i, b"v")
        levels = [t.current]
        with small_blocks(3):
            for keys, _ in b.drain():
                # Released before it is handed out.
                levels.append(t.current)
        assert levels == [80, 56, 32, 8, 0]

    def test_free_releases_all(self):
        t = MemoryTracker()
        b = Bucket(t, fold=LAST)
        fold_one(b, b"a", b"1")
        fold_one(b, b"b", b"2")
        b.free()
        assert t.current == 0
        assert len(b) == 0
        b.free()  # idempotent

    def test_respects_memory_limit(self):
        t = MemoryTracker(limit=100)
        b = Bucket(t, entry_overhead=40, fold=LAST)
        fold_one(b, b"a", b"1")
        with pytest.raises(MemoryLimitExceeded):
            fold_one(b, b"bbbbbbbbbb", b"1" * 30)

    def test_insertion_order_preserved(self):
        b = Bucket(MemoryTracker(), fold=LAST)
        for i in (3, 1, 2):
            fold_one(b, b"%d" % i, b"x")
        assert list(b.index) == [b"3", b"1", b"2"]


class TestCountingBucket:
    """The slots alone (convert's pass one, the skew sampler): counts
    and totals are columns the caller hangs off the returned ids."""

    def test_counts_and_totals(self):
        cb = Bucket(MemoryTracker())
        ids = cb.enter_run([b"k", b"k", b"j"])
        assert ids.tolist() == [0, 0, 1]
        assert list(cb.index) == [b"k", b"j"]
        assert np.bincount(ids).tolist() == [2, 1]
        assert np.bincount(ids, [5, 3, 1]).tolist() == [8, 1]
        assert cb.enter_run([b"j", b"i"]).tolist() == [1, 2]
        assert len(cb) == 3

    def test_only_new_keys_charge(self):
        t = MemoryTracker(keep_timeline=True)
        cb = Bucket(t, entry_overhead=4 + 16)
        cb.enter_run([b"k"])
        assert t.current == cb.accounted_bytes == 1 + 4 + 16
        cb.enter_run([b"k", b"k"])
        assert len(t.timeline) == 1
        cb.enter_run([b"k", b"ab", b"c", b"ab"])
        assert t.current == (1 + 2 + 1) + 3 * 20
        assert len(t.timeline) == 2  # one allocation per block

    def test_free(self):
        t = MemoryTracker()
        cb = Bucket(t)
        cb.enter_run([b"a", b"b"])
        cb.free()
        assert t.current == 0
        assert len(cb) == 0


@given(st.lists(st.tuples(st.binary(min_size=1, max_size=4),
                          st.binary(max_size=4)), max_size=60))
def test_property_bucket_matches_dict(pairs):
    t = MemoryTracker()
    b = Bucket(t, entry_overhead=7, fold=LAST)
    model = {}
    for k, v in pairs:
        fold_one(b, k, v)
        model[k] = v
    assert dict(items(b)) == model
    expected = sum(len(k) + len(v) + 7 for k, v in model.items())
    assert t.current == expected
    assert dict(drained(b)) == model
    assert t.current == 0


class TestDrainIsLinear:
    """Work by count, not by clock: the old drain popped the dict from
    the front through ``next(iter(...))`` and took 12 s for 160 k."""

    @pytest.mark.parametrize("fold, layout", [
        (wc_combine, None), (wc_fold_batch, KVLayout(VARIABLE, 8))])
    def test_one_free_per_block(self, fold, layout):
        n = 200_000
        nblocks = -(-n // BLOCK)
        t = MemoryTracker(keep_timeline=True)
        b = Bucket(t, fold=fold, layout=layout)
        assert b.fold_columns((b"%d" % i for i in range(n)),
                              repeat(pack_u64(1))) == n
        assert len(t.timeline) == nblocks  # one charge per block in
        filled = t.current
        assert filled == b.accounted_bytes == \
            sum(len(b"%d" % i) for i in range(n)) + n * (8 + 48)
        seen = 0
        for keys, values in b.drain():
            assert len(keys) == len(values) == min(BLOCK, n - seen)
            seen += len(keys)
            assert keys[-1] == b"%d" % (seen - 1)
        assert seen == n
        assert len(t.timeline) == 2 * nblocks  # one free per block out
        assert sum(sample.delta for sample in t.timeline[nblocks:]) == \
            -filled
        assert t.current == b.accounted_bytes == len(b) == 0


# --------------------------------------------------- the scalar reference
# The loop ``core/`` ran per record until the bucket became columns: one
# dict probe, one ``fold(key, a, b)``, one ``set`` and one tracker charge
# per record.  Kept here as the oracle; releases on drain are by block,
# ahead of the block, as the engine's are.

class ScalarBucket:
    def __init__(self, tracker, entry_overhead, tag="bucket"):
        self.tracker = tracker
        self.entry_overhead = entry_overhead
        self.tag = tag
        self.data = {}
        self.accounted_bytes = 0
        self.merged = 0

    def _charge(self, delta):
        if delta > 0:
            self.tracker.allocate(delta, self.tag)
        else:
            self.tracker.free(-delta, self.tag)
        self.accounted_bytes += delta

    def fold(self, key, value, fn):
        old = self.data.get(key)
        if old is None:
            self._charge(len(key) + len(value) + self.entry_overhead)
        else:
            value = fn(key, old, value)
            self._charge(len(value) - len(old))
            self.merged += 1
        self.data[key] = value

    def drain(self, block):
        pairs = list(self.data.items())
        self.data.clear()
        for lo in range(0, len(pairs), block):
            chunk = pairs[lo : lo + block]
            self._charge(-sum(len(k) + len(v) + self.entry_overhead
                              for k, v in chunk))
            yield chunk


def scalar_combine(calls, fn, overhead, budget, block):
    """The combiner, per record: what leaves for the shuffler, what is
    charged to the clock, and the bucket and tracker after every call."""
    tracker = MemoryTracker()
    bucket = ScalarBucket(tracker, overhead)
    stream, charged, after = [], [], []

    def flush():
        charged.append(bucket.accounted_bytes
                       - len(bucket.data) * overhead)
        for chunk in bucket.drain(block):
            stream.extend(chunk)

    for _, pairs in calls:
        for key, value in pairs:
            bucket.fold(key, value, fn)
        if budget is not None and bucket.accounted_bytes > budget:
            flush()
        after.append((tracker.current, list(bucket.data.items())))
    flush()
    return stream, charged, after, bucket.merged, tracker.peak


def scalar_partial_reduce(tracker, kvc, fn, config, block, seed=None):
    bucket = ScalarBucket(tracker, ENTRY_OVERHEAD)
    for source in (seed, kvc):
        if source is not None:
            for key, value in source.consume():
                bucket.fold(key, value, fn)
    out = KVContainer(tracker, kvc.layout, config.page_size)
    for chunk in bucket.drain(block):
        for key, value in chunk:
            out.add(key, value)
    return out


class StubEnv:
    """What the combiner and partial reduction use of a rank."""

    def __init__(self):
        self.tracker = MemoryTracker()
        self.metrics = self
        self.charged = []
        self.counters = {}

    def charge_compute(self, nbytes):
        self.charged.append(nbytes)

    def inc(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value


class ListShuffler:
    """Receives what the combiner drains, in order."""

    def __init__(self, layout):
        self.layout = layout
        self.pairs = []

    def emit_pairs(self, pairs):
        self.pairs.extend(pairs)

    def finish(self):
        pass


KEYS = [b"", b"a", b"b", b"ab", b"ba", b"abc", b"\0", b"key-7"]
#: (fold, its batch form or None, layout, value strategy)
COUNT_LAYOUT = KVLayout(VARIABLE, 8)
SUMS = (wc_combine, wc_fold_batch, COUNT_LAYOUT,
        st.integers(0, 2 ** 40).map(pack_u64))
JOINS = (CONCAT, None, KVLayout(), st.binary(max_size=3))


@st.composite
def fold_cases(draw):
    plain, batch, layout, values = draw(st.sampled_from([SUMS, JOINS]))
    fold = batch if batch and draw(st.booleans()) else plain
    records = draw(st.lists(st.tuples(st.sampled_from(KEYS), values),
                            max_size=70))
    return plain, fold, layout, records


@st.composite
def emit_calls(draw, records):
    """Cut a record stream into emit calls of every kind."""
    calls, at = [], 0
    while at < len(records):
        kind = draw(st.sampled_from(["emit", "pairs", "run", "batch"]))
        size = 1 if kind == "emit" else draw(st.integers(0, 15))
        pairs = records[at : at + size]
        if kind == "run":
            pairs = [(key, records[at][1]) for key, _ in pairs]
        calls.append((kind, pairs))
        at += size
    return calls


class TestAgainstScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), fold_cases(), st.integers(1, 9),
           st.one_of(st.none(), st.integers(1, 400)))
    def test_combiner(self, data, case, block, budget):
        """Every emit kind x block boundaries x budget x fold form:
        bucket contents and order and ``tracker.current`` after every
        call, the drained stream, the compute charges, ``records_merged``,
        the flush count and ``tracker.peak``."""
        plain, fold, layout, records = case
        calls = data.draw(emit_calls(records))
        config = MimirConfig(layout=layout, combiner_bucket_budget=budget)
        stream, charged, after, merged, peak = scalar_combine(
            calls, plain, ENTRY_OVERHEAD, budget, block)

        env, sink = StubEnv(), ListShuffler(layout)
        with small_blocks(block):
            combiner = Combiner(env, config, fold, sink)
            for (kind, pairs), expected in zip(calls, after):
                if kind == "emit":
                    (key, value), = pairs
                    combiner.emit_block([key], [value])
                elif kind == "run":
                    combiner.emit_run([key for key, _ in pairs],
                                      pairs[0][1] if pairs else b"")
                elif kind == "pairs":
                    assert combiner.emit_pairs(iter(pairs)) == len(pairs)
                else:
                    combiner.emit_batch(KVBatch(
                        b"".join(layout.encode(*pair) for pair in pairs),
                        layout))
                assert (env.tracker.current,
                        items(combiner.bucket)) == expected
            combiner.finish()
        assert sink.pairs == stream
        assert env.charged == charged
        assert combiner.records_in == len(records)
        assert combiner.records_merged == merged == \
            env.counters["core.combine.merged"]
        assert combiner.partial_flushes == len(charged) - 1
        assert env.tracker.peak == peak
        assert env.tracker.current == 0

    @settings(max_examples=150, deadline=None)
    @given(fold_cases(), st.integers(1, 9),
           st.one_of(st.none(), st.lists(st.sampled_from(KEYS), max_size=9)))
    def test_partial_reduce(self, case, block, seed_keys):
        """Pages x block boundaries x seed container x fold form: the
        output stream, the compute charge, ``tracker.current`` and
        ``tracker.peak``."""
        plain, fold, layout, records = case
        config = MimirConfig(layout=layout, page_size=64)
        seed_records = None
        if seed_keys is not None:
            # A batch fold takes an already reduced (unique-key) seed.
            if fold is not plain:
                seed_keys = list(dict.fromkeys(seed_keys))
            value = records[0][1] if records else (
                b"" if layout.val_len is VARIABLE else pack_u64(3))
            seed_records = [(key, value) for key in seed_keys]

        def containers(tracker):
            made = []
            for pairs in (records, seed_records):
                kvc = None
                if pairs is not None:
                    kvc = KVContainer(tracker, layout, config.page_size)
                    for pair in pairs:
                        kvc.add(*pair)
                made.append(kvc)
            return made

        reference = MemoryTracker()
        kvc, seed = containers(reference)
        expected = scalar_partial_reduce(reference, kvc, plain, config,
                                         block, seed)
        env = StubEnv()
        kvc, seed = containers(env.tracker)
        scanned = sum(len(key) + len(value) for key, value in
                      records + (seed_records or []))
        with small_blocks(block):
            out = partial_reduce(
                env, kvc, fold,
                KVContainer(env.tracker, layout, config.page_size), seed=seed)
        assert list(out.records()) == list(expected.records())
        assert env.charged == [scanned + out.nbytes]
        assert env.tracker.current == reference.current == out.memory_bytes
        assert env.tracker.peak == reference.peak

    def test_a_shrinking_fold_is_charged_by_block(self):
        """The one place block charging shows: a value that shrinks and
        grows back inside a block is charged its net size, so the peak
        may sit below the per-record one, never above."""
        t = MemoryTracker()
        b = Bucket(t, entry_overhead=0, fold=LAST)
        b.fold_columns(iter([b"k"] * 3), iter([b"aaaa", b"", b"aa"]))
        assert dict(items(b)) == {b"k": b"aa"}
        assert t.current == t.peak == 3


class TestBatchFoldContract:
    def test_kernel_sees_only_the_records_after_a_keys_first(self):
        seen = []

        def fold(acc, ids, rows):
            seen.append((acc.tolist(), ids.tolist(), rows.tolist()))

        fold.is_batch_kernel = True
        b = Bucket(MemoryTracker(), fold=fold, layout=KVLayout(1, 1))
        b.fold_columns(iter([b"a", b"b", b"a", b"c", b"b"]),
                       iter([b"1", b"2", b"3", b"4", b"5"]))
        # Firsts (a=1, b=2, c=4) are stored by the bucket; the kernel
        # gets the rest in record order, against all live slots.
        assert seen == [([[49], [50], [52]], [0, 1], [[51], [53]])]
        b.fold_columns(iter([b"d"]), iter([b"6"]))
        assert len(seen) == 1  # nothing left to fold: not called
        assert items(b) == [(b"a", b"1"), (b"b", b"2"),
                                   (b"c", b"4"), (b"d", b"6")]

    @pytest.mark.parametrize("layout", [None, KVLayout(),
                                        KVLayout(8, CSTRING)])
    def test_variable_width_values_are_a_typed_error(self, layout):
        with pytest.raises(ConfigError, match="fixed-width values"):
            Bucket(MemoryTracker(), fold=wc_fold_batch, layout=layout)

    def test_a_value_of_the_wrong_width_is_rejected(self):
        b = Bucket(MemoryTracker(), fold=wc_fold_batch,
                   layout=KVLayout(VARIABLE, 8))
        with pytest.raises(ValueError, match="8 bytes wide"):
            b.fold_columns(iter([b"k", b"j"]), iter([pack_u64(1), b"short"]))


# Cancellation, signed zeros, infinities of both signs (their sum is
# NaN), NaNs, denormals, and neighbours that round differently by order.
ADVERSARIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
               1e16, -1e16, 1.0, -1.0, 1.0 + 2 ** -52, 2 ** -53, 5e-324,
               -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 0.2, 0.3]
VERTICES = [pack_u64(v) for v in range(4)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(VERTICES),
                          st.sampled_from(ADVERSARIAL) | st.floats()),
                max_size=60), st.integers(1, 9))
@example([(VERTICES[0], x) for x in (1e16, 1.0, -1e16, 1.0)], 2)
@example([(VERTICES[0], x) for x in (-0.0, -0.0, 0.0, -0.0)], 3)
@example([(VERTICES[0], x) for x in (math.inf, -math.inf, 1.0)], 9)
# The hardware passes on one operand's NaN, sign included.
@example([(VERTICES[0], x) for x in (math.nan, -math.nan)], 1)
def test_pr_fold_batch_is_bit_equal_to_pr_combine(contributions, block):
    """``add.at`` folds in record order, so not one bit differs."""
    buckets = [Bucket(MemoryTracker(), fold=fold, layout=PR_HINT_LAYOUT)
               for fold in (pr_combine, pr_fold_batch)]
    with small_blocks(block):
        for bucket in buckets:
            bucket.fold_columns((key for key, _ in contributions),
                                (pack_f64(x) for _, x in contributions))
    assert items(buckets[0]) == items(buckets[1])


def test_a_nan_sum_is_the_one_quiet_nan():
    """Which NaN a float add passes on is the hardware's choice, and
    CPython's specialised add (once ``pr_combine`` is warm) chooses the
    other one: both fold forms give the one quiet NaN, cold or warm."""
    nans = pack_f64(math.nan), pack_f64(-math.nan)
    sums = {pr_combine(b"", *pair) for pair in (nans, nans[::-1])
            for _ in range(64)}
    assert sums == {pack_f64(math.nan)}
