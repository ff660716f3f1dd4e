"""Convert paths: in-memory two-pass vs partitioned out-of-core."""

import random
import struct
import time
import tracemalloc
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.wordcount import wc_map, wc_reduce, wc_reduce_batch
from repro.cluster import Cluster
from repro.core import (
    CSTRING,
    VARIABLE,
    KMVContainer,
    KVContainer,
    KVLayout,
    Mimir,
    MimirConfig,
    ReduceContext,
    pack_u64,
    unpack_u64,
)
from repro.core import convert
from repro.core.batch import KVBatch
from repro.core.bucket import ENTRY_OVERHEAD
from repro.core.convert import (
    _group_partition,
    _needs_partitioned_convert,
    convert_to_kmv,
    iter_grouped,
    spill_partitions,
)
from repro.core.kmvcontainer import encode_kmv_runs, iter_kmv_batches
from repro.core.records import BLOCK
from repro.memory import MemoryTracker
from repro.memory.pages import Page, PagePool
from repro.mpi import COMET
from tests.conftest import fit_field, small_blocks
from tests import scalar_reference
from tests.scalar_reference import encode_kmv_record, iter_records

CFG = MimirConfig(page_size=1024, comm_buffer_size=1024)
OOC = MimirConfig(page_size=1024, comm_buffer_size=1024, out_of_core=True)


def with_env(fn, limit=None):
    cluster = Cluster(COMET, nprocs=1, memory_limit=limit)
    return cluster.run(fn).returns[0]


def fill(env, pairs, config=CFG, **kvc_kwargs):
    kvc = KVContainer(env.tracker, config.layout, config.page_size,
                      **kvc_kwargs)
    for k, v in pairs:
        kvc.add(k, v)
    return kvc


PAIRS = [(b"k%02d" % (i % 7), b"v%03d" % (i % 1000)) for i in range(240)]


def groupby(pairs):
    groups: dict[bytes, list[bytes]] = {}
    for k, v in pairs:
        groups.setdefault(k, []).append(v)
    return groups


class TestInMemoryConvert:
    def test_groups_match_reference(self):
        def job(env):
            kvc = fill(env, PAIRS)
            kmvc = convert_to_kmv(env, kvc, CFG)
            return dict(kmvc.consume())

        assert with_env(job) == groupby(PAIRS)

    def test_iter_grouped_in_memory(self):
        def job(env):
            kvc = fill(env, PAIRS)
            return dict(iter_grouped(env, kvc, CFG))

        assert with_env(job) == groupby(PAIRS)

    def test_empty_kvc(self):
        def job(env):
            kvc = fill(env, [])
            return list(iter_grouped(env, kvc, CFG))

        assert with_env(job) == []


class TestPartitionedConvert:
    def test_spilled_kvc_takes_partitioned_path(self):
        def job(env):
            kvc = fill(env, PAIRS, config=OOC, spill_env=env,
                       resident_page_budget=1)
            assert kvc.spilled
            assert _needs_partitioned_convert(env, kvc)
            groups = dict(iter_grouped(env, kvc, OOC))
            return groups, env.tracker.current

        groups, leftover = with_env(job)
        assert groups == groupby(PAIRS)
        assert leftover == 0

    def test_tight_budget_triggers_partitioning(self):
        def job(env):
            kvc = fill(env, PAIRS)
            return kvc.nbytes, _needs_partitioned_convert(env, kvc)

        # Resident KVs need 2x headroom to group in memory: a 10K
        # budget (4K of pages held, ~3.7K of payload) fails the check,
        # an ample one passes it.
        tight = Cluster(COMET, nprocs=1, memory_limit=10 * 1024)
        nbytes, needs = tight.run(job).returns[0]
        assert nbytes * 2 > 10 * 1024 - 4 * 1024  # precondition holds
        assert needs

        ample = Cluster(COMET, nprocs=1, memory_limit=1 << 20)
        _, needs = ample.run(job).returns[0]
        assert not needs

    def test_partitioned_values_complete(self):
        # Values per key survive partitioning intact (multiset check).
        def job(env):
            kvc = fill(env, PAIRS, config=OOC, spill_env=env,
                       resident_page_budget=1)
            return {k: sorted(vs)
                    for k, vs in iter_grouped(env, kvc, OOC)}

        expected = {k: sorted(vs) for k, vs in groupby(PAIRS).items()}
        assert with_env(job) == expected

    def test_partition_files_cleaned_up(self):
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)

        def job(env):
            kvc = fill(env, PAIRS, config=OOC, spill_env=env,
                       resident_page_budget=1)
            list(iter_grouped(env, kvc, OOC))

        cluster.run(job)
        assert not cluster.pfs.listdir("spill/")


class TestEndToEndOOCReduce:
    def test_reduce_over_spilled_input_correct(self):
        text = b" ".join(b"w%03d" % (i % 40) for i in range(3000))
        cluster = Cluster(COMET, nprocs=2, memory_limit=48 * 1024)
        cluster.pfs.store("t.txt", text)
        config = MimirConfig(page_size=2048, comm_buffer_size=2048,
                             input_chunk_size=512, out_of_core=True)

        def job(env):
            mimir = Mimir(env, config)
            kvs = mimir.map_text_file(
                "t.txt", lambda ctx, chunk: [
                    ctx.emit(w, pack_u64(1)) for w in chunk.split()])
            out = mimir.reduce(
                kvs, lambda ctx, k, vs: ctx.emit(k, pack_u64(
                    sum(unpack_u64(v) for v in vs))))
            counts = {k: unpack_u64(v) for k, v in out.records()}
            out.free()
            return counts

        merged: Counter = Counter()
        for part in cluster.run(job).returns:
            merged.update(part)
        assert merged == Counter(text.split())


# ------------------------------ columnar convert == the scalar two-pass one

class ScalarConvert:
    """The per-record two-pass convert the column passes replaced, kept
    here as their reference: pass one counts values and value bytes per
    unique key (one tracker charge per new key), one exactly sized slot
    is then reserved per key in first-seen order, and pass two copies
    one value at a time to its slot's cursors while the KV pages drain:
    its length (VARIABLE values) into the lengths column after the
    count, the value (and a NUL for CSTRING) after all the lengths.
    """

    def __init__(self, tracker, layout, page_size, entry_overhead):
        self.tracker = tracker
        self.layout = layout
        self.pool = PagePool(tracker, page_size, tag="kmvc")
        self.entry_overhead = entry_overhead + 16
        self.pages = []     # (Page, charged bytes)
        # key -> [page, offset of its next length, of its next value]
        self.cursor = {}

    def reserve(self, key, nvalues, total):
        layout, unit = self.layout, self.pool.page_size
        vextra = {VARIABLE: 4, CSTRING: 1}.get(layout.val_len, 0)
        size = layout.field_size(layout.key_len, key) + 4 + total + \
            nvalues * vextra
        if size > unit:
            # Jumbo: whole page units, dedicated - but its slack stays
            # open to later small records.
            charged = -(-size // unit) * unit
            self.tracker.allocate(charged, "kmvc")
            self.pages.append((Page(charged, "kmvc"), charged))
        elif not self.pages or self.pages[-1][0].remaining < size:
            self.pages.append((self.pool.acquire(), unit))
        page = self.pages[-1][0]
        head = (struct.pack("<I", len(key)) if layout.key_len is VARIABLE
                else b"") + key + \
            (b"\0" if layout.key_len == CSTRING else b"") + \
            struct.pack("<I", nvalues)
        page.data[page.used : page.used + len(head)] = head
        lengths = page.used + len(head)
        self.cursor[key] = [page, lengths, lengths + nvalues * (
            4 if layout.val_len is VARIABLE else 0)]
        page.used += size

    def append_value(self, key, value):
        page, lengths, at = self.cursor[key]
        hint = self.layout.val_len
        if hint is VARIABLE:
            page.data[lengths : lengths + 4] = struct.pack("<I", len(value))
            self.cursor[key][1] = lengths + 4
        encoded = value + (b"\0" if hint == CSTRING else b"")
        page.data[at : at + len(encoded)] = encoded
        self.cursor[key][2] = at + len(encoded)

    def run(self, kvc):
        sizes = {}
        for key, value in kvc.records():
            if key not in sizes:
                self.tracker.allocate(len(key) + self.entry_overhead,
                                      "convert_bucket")
                sizes[key] = [0, 0]
            sizes[key][0] += 1
            sizes[key][1] += len(value)
        for key, (count, total) in sizes.items():
            self.reserve(key, count, total)
        for key, value in kvc.consume():
            self.append_value(key, value)
        self.tracker.free(sum(len(key) + self.entry_overhead
                              for key in sizes), "convert_bucket")
        return [(bytes(page.view), charged) for page, charged in self.pages]


CONVERT_LAYOUTS = [KVLayout(), KVLayout(CSTRING, 8), KVLayout(3, VARIABLE),
                   KVLayout(VARIABLE, CSTRING), KVLayout(CSTRING, CSTRING)]


def convert_both_ways(layout, pairs, page_size):
    """``(columnar, scalar)``: KMV pages as ``(bytes, charged)`` plus the
    tracker's peak and final level, from identical KV containers."""
    config = MimirConfig(page_size=page_size, layout=layout)
    outcomes = []

    def job(env):
        for columnar in (True, False):
            tracker = MemoryTracker()
            kvc = KVContainer(tracker, layout, page_size)
            for key, value in pairs:
                kvc.add(key, value)
            if columnar:
                env.tracker = tracker
                kmvc = convert_to_kmv(env, kvc, config)
                pages = [(bytes(page.view), page.size) for page in kmvc.pages]
                assert kmvc.memory_bytes == sum(c for _, c in pages)
                assert len(kmvc) == len({key for key, _ in pairs})
                assert kmvc.nbytes == sum(len(data) for data, _ in pages)
            else:
                pages = ScalarConvert(tracker, layout, page_size,
                                      ENTRY_OVERHEAD).run(kvc)
            outcomes.append((pages, tracker.peak, tracker.current))

    with_env(job)
    return outcomes


class TestColumnarConvertAgainstScalar:
    @pytest.mark.parametrize("layout", CONVERT_LAYOUTS)
    def test_jumbo_group_then_small_groups(self, layout):
        # One group of two or three pages (its jumbo page keeps some
        # slack), a small group after it that fits that slack, then
        # enough groups to fill further pages - values interleaved.
        rng = random.Random(41)
        big, small = fit_field(layout.key_len, b"big"), \
            fit_field(layout.key_len, b"sml")
        pairs = [(big, fit_field(layout.val_len, b"%07d" % i))
                 for i in range(60)]
        pairs += [(small, fit_field(layout.val_len, b"s"))]
        head = len(pairs)
        pairs += [(fit_field(layout.key_len, b"k%d" % (i % 40)),
                   fit_field(layout.val_len, b"v" * (i % 9)))
                  for i in range(300)] + pairs[:40]
        tail = pairs[head:]
        rng.shuffle(tail)
        with small_blocks(16):
            columnar, scalar = convert_both_ways(
                layout, pairs[:head] + tail, 256)
        assert columnar == scalar
        pages = columnar[0]
        charges = [charged for _, charged in pages]
        assert charges[0] > 256 and charges[0] % 256 == 0   # the jumbo page
        assert small in pages[0][0]           # ... and its slack, used
        assert set(charges[1:]) == {256}

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(CONVERT_LAYOUTS),
           st.lists(st.tuples(st.integers(0, 12), st.binary(max_size=40)),
                    max_size=120),
           st.sampled_from([64, 128, 1024]),
           st.integers(min_value=1, max_value=40))
    def test_random_streams(self, layout, raw, page_size, block):
        pairs = [(fit_field(layout.key_len, b"%x" % key),
                  fit_field(layout.val_len, value)) for key, value in raw]
        # A KV record must fit a KV page; a KMV group need not.
        pairs = [pair for pair in pairs
                 if layout.encoded_size(*pair) <= page_size]
        with small_blocks(block):
            columnar, scalar = convert_both_ways(layout, pairs, page_size)
        assert columnar == scalar

    @pytest.mark.parametrize("layout", CONVERT_LAYOUTS)
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 120),
                              st.one_of(st.none(), st.integers(0, 12))),
                    min_size=1, max_size=4),
           st.integers(1, 40), st.sampled_from([64, 128, 1024]),
           st.integers(1, 40), st.booleans())
    # Zero-width values (a VARIABLE value is its length alone).
    @example([(80, 0)], 12, 64, 3, False)
    # Values of one length: CSTRING ones are a NUL apart.
    @example([(90, 5)], 9, 128, 7, False)
    # A jumbo slot among small ones.
    @example([(40, 4), (40, 4)], 6, 64, 5, True)
    # A run's slots lie on several KMV pages.
    @example([(120, 2)], 40, 64, 40, False)
    # KV pages mixing widths: one width, then many, then another.
    @example([(30, 3), (30, None), (30, 0)], 10, 128, 4, False)
    def test_values_of_one_width(self, layout, segments, nkeys, page_size,
                                 block, jumbo):
        # A segment's values share one width (``None``: widths vary per
        # record), so a KV page is all one width or mixes them.
        pairs = []
        for seg, (count, width) in enumerate(segments):
            for i in range(count):
                size = i % 9 if width is None else width
                pairs.append((fit_field(layout.key_len,
                                        b"%x" % ((7 * i + seg) % nkeys)),
                              fit_field(layout.val_len,
                                        (b"%d" % i).rjust(size, b"v")[:size])))
        if jumbo:
            hot = fit_field(layout.key_len, b"hot")
            pairs[::3] = [(hot, value) for _, value in pairs[::3]]
            pairs += [(hot, pairs[-1][1])] * page_size
        pairs = [pair for pair in pairs
                 if layout.encoded_size(*pair) <= page_size]
        with small_blocks(block):
            columnar, scalar = convert_both_ways(layout, pairs, page_size)
        assert columnar == scalar
        if jumbo:
            assert any(charged > page_size for _, charged in columnar[0])

    def test_scalar_slot_api_is_the_column_code(self):
        # ``reserve``/``append_value`` are one-record calls of
        # ``reserve_run``/``fill_run``: same pages either way.
        groups = groupby(PAIRS)
        built = []
        for scalar in (True, False):
            kmvc = KMVContainer(MemoryTracker(), page_size=256)
            if scalar:
                slots = {key: kmvc.reserve(key, len(values),
                                           sum(map(len, values)))
                         for key, values in groups.items()}
                for key, value in PAIRS:
                    kmvc.append_value(slots[key], value)
            else:
                first = kmvc.reserve_run(
                    list(groups), [len(vs) for vs in groups.values()],
                    [sum(map(len, vs)) for vs in groups.values()])
                order = {key: first + i for i, key in enumerate(groups)}
                ends = np.cumsum([len(value) for _, value in PAIRS])
                kmvc.fill_run(np.array([order[key] for key, _ in PAIRS]),
                              b"".join(value for _, value in PAIRS),
                              ends - [len(value) for _, value in PAIRS],
                              ends)
            kmvc.finish_fill()
            built.append([bytes(page.view) for page in kmvc.pages])
            assert dict(kmvc.records()) == groups
        assert built[0] == built[1]


# ------------------------------ the KMV decoder == a scalar walk, and hostile

def scalar_walk(layout, buf):
    """Every KMV record of ``buf``, one value at a time, as ``(key,
    [(value start, value end), ...])``: the column decoder's reference."""
    groups, at = [], 0
    while at < len(buf):
        if layout.key_len is VARIABLE:
            (klen,) = struct.unpack_from("<I", buf, at)
            key, at = buf[at + 4 : at + 4 + klen], at + 4 + klen
        elif layout.key_len == CSTRING:
            stop = buf.index(b"\0", at)
            key, at = buf[at:stop], stop + 1
        else:
            key, at = buf[at : at + layout.key_len], at + layout.key_len
        (count,) = struct.unpack_from("<I", buf, at)
        at += 4
        if layout.val_len is VARIABLE:
            lengths = struct.unpack_from(f"<{count}I", buf, at)
            at += 4 * count
        spans = []
        for i in range(count):
            if layout.val_len is VARIABLE:
                stop = at + lengths[i]
            elif layout.val_len == CSTRING:
                stop = buf.index(b"\0", at)
            else:
                stop = at + layout.val_len
            spans.append((at, stop))
            at = stop + (layout.val_len == CSTRING)
        groups.append((key, spans))
    return groups


def column_walk(layout, buf):
    """:func:`scalar_walk`, read off the decoder's ``KMVBatch`` columns."""
    groups = []
    for batch in iter_kmv_batches(layout, buf):
        spans = iter(zip(batch.voff.tolist(), batch.vend.tolist()))
        groups += [(key, [next(spans) for _ in range(count)])
                   for key, count in zip(batch.keys, batch.counts.tolist())]
        assert next(spans, None) is None
    return groups


def decoded_or_typed_error(layout, buf):
    """Decode hostile bytes: the result must be a ``ValueError`` after a
    valid prefix (the groups decoded so far re-encode to a prefix of
    ``buf``) or groups that re-encode to all of it - never another
    exception."""
    groups, failed = [], False
    try:
        for batch in iter_kmv_batches(layout, buf):
            groups += batch
    except ValueError:
        failed = True
    again = b"".join(encode_kmv_record(layout, key, values)
                     for key, values in groups)
    assert buf.startswith(again) and (failed or again == buf)


class TestKMVDecoder:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(CONVERT_LAYOUTS),
           st.lists(st.tuples(st.integers(0, 12), st.binary(max_size=40)),
                    max_size=120),
           st.sampled_from([64, 128, 1024]),
           st.integers(min_value=1, max_value=40))
    def test_columns_equal_a_scalar_walk(self, layout, raw, page_size,
                                         block):
        pairs = [(fit_field(layout.key_len, b"%x" % key),
                  fit_field(layout.val_len, value)) for key, value in raw]
        pairs = [pair for pair in pairs
                 if layout.encoded_size(*pair) <= page_size]
        # One group too large for a page: it gets a jumbo page.
        hot = fit_field(layout.key_len, b"hot")
        pairs += [(hot, fit_field(layout.val_len, b"val%d" % i))
                  for i in range(page_size // 2)]
        config = MimirConfig(page_size=page_size, layout=layout)

        def job(env):
            kvc = fill(env, pairs, config)
            with small_blocks(block):
                kmvc = convert_to_kmv(env, kvc, config)
                pages = [bytes(page.view) for page in kmvc.pages]
                assert any(page.size > page_size for page in kmvc.pages)
                assert [column_walk(layout, page) for page in pages] == \
                    [scalar_walk(layout, page) for page in pages]
                assert list(kmvc.records()) == list(groupby(pairs).items())

        with_env(job)

    @pytest.mark.parametrize("layout", CONVERT_LAYOUTS)
    @pytest.mark.parametrize("count", [0, 0x00FFFFFF, 0xFFFFFFFF])
    def test_a_count_past_the_end_fails_before_slicing(self, layout, count):
        # 20 bytes that claim ``count`` values: rejected at once, not
        # after one slice (or length read) per claimed value.
        key = fit_field(layout.key_len, b"key")
        buf = bytearray(encode_kmv_record(
            layout, key, [fit_field(layout.val_len, b"v")]).ljust(20, b"\1"))
        struct.pack_into("<I", buf, layout.field_size(layout.key_len, key),
                         count)
        started = time.perf_counter()
        with pytest.raises(ValueError, match="bad value count"):
            list(iter_kmv_batches(layout, bytes(buf[:20])))
        assert time.perf_counter() - started < 0.1

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(CONVERT_LAYOUTS), st.binary(max_size=120))
    def test_arbitrary_bytes(self, layout, buf):
        with small_blocks(2):
            decoded_or_typed_error(layout, buf)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(CONVERT_LAYOUTS),
           st.lists(st.tuples(st.binary(max_size=6),
                              st.lists(st.binary(max_size=6), min_size=1,
                                       max_size=5)),
                    min_size=1, max_size=8),
           st.lists(st.integers(min_value=0), min_size=1, max_size=4))
    def test_bit_flipped_records(self, layout, groups, flips):
        buf = bytearray(b"".join(
            encode_kmv_record(layout, fit_field(layout.key_len, key),
                              [fit_field(layout.val_len, v) for v in values])
            for key, values in groups))
        for flip in flips:
            buf[flip // 8 % len(buf)] ^= 1 << flip % 8
        with small_blocks(2):
            decoded_or_typed_error(layout, bytes(buf))

    def test_value_rows_name_the_layout_they_cannot_serve(self):
        layout = KVLayout()
        [batch] = iter_kmv_batches(layout, encode_kmv_record(
            layout, b"k", [b"12345678", b"123"]))
        with pytest.raises(ValueError, match=r"layout is KVLayout\("):
            batch.value_rows(8)


class TestKMVEncoder:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CONVERT_LAYOUTS),
           st.lists(st.tuples(st.integers(0, 9), st.binary(max_size=12)),
                    min_size=1, max_size=60),
           st.randoms(use_true_random=False), st.integers(1, 4))
    def test_blocks_equal_one_record_per_group(self, layout, raw, rng,
                                               block):
        pairs = [(fit_field(layout.key_len, b"%x" % key),
                  fit_field(layout.val_len, value)) for key, value in raw]
        chunk = b"".join(layout.encode(*pair) for pair in pairs)
        grouped, _ = _group_partition(layout, [chunk])
        groups = list(range(len(grouped)))
        rng.shuffle(groups)
        with small_blocks(block):
            runs = list(encode_kmv_runs(grouped, np.array(groups)))
        records = [encode_kmv_record(layout, *list(grouped)[g])
                   for g in groups]
        assert [len(roff) - 1 for _, roff in runs] == \
            [len(groups[lo : lo + block])
             for lo in range(0, len(groups), block)]
        assert b"".join(data for data, _ in runs) == b"".join(records)
        assert [roff.tolist() for _, roff in runs] == [
            np.cumsum([0, *map(len, records[lo : lo + block])]).tolist()
            for lo in range(0, len(groups), block)]


class _ChunkLog:
    """A partition's spill writer that logs ``(partition, chunk)``; as
    ``SpillWriter`` does, it writes nothing for an empty chunk."""

    def __init__(self, log, part):
        self.log, self.part = log, part

    def write_chunk(self, data):
        if data:
            self.log.append((self.part, bytes(data)))


class TestRouter:
    """``spill_partitions`` (a block per call) writes the chunks of the
    record-at-a-time staging loop, in the same order."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([KVLayout(), KVLayout(CSTRING, CSTRING)]),
           st.integers(1, 5), st.integers(8, 160),
           st.lists(st.tuples(st.binary(max_size=4),
                              st.sampled_from(["short", "page", "over"]),
                              st.binary(max_size=24)), max_size=80),
           st.lists(st.integers(0, 80), max_size=4),
           st.integers(1, 8))
    def test_same_chunks_as_one_record_at_a_time(
            self, layout, nparts, page_size, raw, cuts, block):
        pairs = []
        for key, size, value in raw:
            key, value = (fit_field(layout.key_len, key),
                          fit_field(layout.val_len, value))
            head = layout.encoded_size(key, b"")
            if size != "short" and head < page_size:
                # A record of exactly a page, or larger than one.
                value = b"v" * (page_size - head + (size == "over") * (
                    len(value) + 1))
            pairs.append((key, value))
        records = [layout.encode(*pair) for pair in pairs]
        bounds = [0, *sorted(min(cut, len(records)) for cut in cuts),
                  len(records)]
        runs = [b"".join(records[a:b]) for a, b in zip(bounds, bounds[1:])]
        logs = []
        for route in (spill_partitions, scalar_reference.spill_partitions):
            log = []
            writers = [_ChunkLog(log, part) for part in range(nparts)]
            with small_blocks(block):
                scanned = route((KVBatch(run, layout) for run in runs),
                                writers, page_size)
            logs.append((scanned, log))
        assert logs[0] == logs[1]
        assert logs[0][0] == sum(map(len, chain(*pairs)))


class TestBatchReduce:
    """``wc_reduce_batch`` (one ``reduceat`` per ``KMVBatch``) against the
    paper-API ``wc_reduce``: the same output pages, clock and per-rank
    peaks, through either convert."""

    TEXT = b" ".join(b"w%03d" % (i * i % 40) for i in range(3000))

    @pytest.mark.parametrize("block", [7, BLOCK])
    @pytest.mark.parametrize("out_of_core", [False, True])
    def test_same_pages_clock_and_peaks(self, out_of_core, block,
                                        monkeypatch):
        partitions = []
        group = convert._group_partition
        monkeypatch.setattr(convert, "_group_partition", lambda *args: (
            partitions.append(args) or group(*args)))
        config = MimirConfig(page_size=2048, comm_buffer_size=2048,
                             input_chunk_size=512, out_of_core=out_of_core)
        runs = []
        for reduce_fn in (wc_reduce, wc_reduce_batch):
            cluster = Cluster(COMET, nprocs=2, memory_limit=48 * 1024
                              if out_of_core else None)
            cluster.pfs.store("t.txt", self.TEXT)

            def job(env):
                mimir = Mimir(env, config)
                out = mimir.reduce(mimir.map_text_file("t.txt", wc_map),
                                   reduce_fn)
                return b"".join(out.chunks())

            with small_blocks(block):
                result = cluster.run(job)
            runs.append((result.returns, result.elapsed, result.peak_bytes))
        assert runs[0] == runs[1]
        assert bool(partitions) == out_of_core
        counts = {}
        for rank_bytes in runs[1][0]:
            counts.update((key, unpack_u64(value)) for key, value in
                          iter_records(KVLayout(), rank_bytes))
        assert counts == Counter(self.TEXT.split())


class TestConvertHostMemory:
    """What convert allocates beyond its tracked buffers is the 12
    B/record index pass one leaves for pass two (int32 value bounds and
    slot ids), plus temporaries bounded by pass two's fill run of ``8 *
    BLOCK`` records and by the block elsewhere - not by the page and not
    by the input."""

    def untracked_peak(self, npages, page_size=64 * 1024):
        layout = CFG.layout
        # Stock 64 KiB pages hold ~2,700 records each.
        config = MimirConfig(page_size=page_size)
        per_page = config.page_size // len(layout.encode(b"key00000",
                                                         pack_u64(0)))

        def job(env):
            kvc = KVContainer(env.tracker, layout, config.page_size)
            for page in range(npages):
                kvc.extend_encoded(b"".join(
                    layout.encode(b"key%05d" % ((7 * i + page) % 1000),
                                  pack_u64(i)) for i in range(per_page)))
            assert kvc.npages == npages
            nrecords = len(kvc)
            env.tracker.reset_peak()
            tracked_before = env.tracker.current
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                kmvc = convert_to_kmv(env, kvc, config)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            tracked = env.tracker.peak - tracked_before
            kmvc.free()
            return nrecords, peak - tracked

        return with_env(job)

    def test_bounded_by_the_block_not_the_page_or_the_input(self):
        few, over_few = self.untracked_peak(6)
        many, over_many = self.untracked_peak(20)
        # A fixed multiple of the block, whatever the input length ...
        assert over_few - 12 * few < 1024 * BLOCK
        assert over_many - 12 * many < 1024 * BLOCK
        # ... and growing by the index alone: page-sized temporaries
        # (int64 columns, tolist() ints) would show up here.
        assert over_many - over_few < 20 * (many - few)

    def test_a_mib_page_is_filled_in_bounded_runs(self):
        # One 1 MiB page holds ~43,700 records.  Pass two takes them a
        # bounded run at a time; temporaries sized by the whole page
        # (about 2 MB more here) would break the bound.
        n, over = self.untracked_peak(1, 1 << 20)
        assert over - 16 * n < 3 * 1024 * BLOCK

    def drain_untracked_peak(self, page_size):
        """Real bytes beyond the tracked ones, less the copy of the page
        it reads, while a batch reduce drains KMV pages of ``page_size``."""
        layout = CFG.layout
        config = MimirConfig(page_size=page_size)

        def job(env):
            kvc = KVContainer(env.tracker, layout, config.page_size)
            kvc.extend_encoded(b"".join(
                layout.encode(b"key%05d" % (i % 12000), pack_u64(i))
                for i in range(24000)))
            kmvc = convert_to_kmv(env, kvc, config)
            copied = max(page.used for page in kmvc.pages)
            ctx = ReduceContext(KVContainer(env.tracker, layout, page_size))
            env.tracker.reset_peak()
            tracked_before = env.tracker.current
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                for kmv in kmvc.consume_batches():
                    wc_reduce_batch(ctx, kmv)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            return peak - (env.tracker.peak - tracked_before) - copied

        return with_env(job)

    def test_a_kmv_drain_is_bounded_by_the_block_not_the_page(self):
        # A MiB page holds 12,000 groups and the drain decodes a block of
        # them at a time: 0.24 MB here, where a page-at-a-time decode
        # holds 2.6 MB.
        assert self.drain_untracked_peak(1 << 20) < 1024 * BLOCK

    def partition_untracked_peak(self, npages):
        """``(records, real bytes beyond the charged ones)`` while one
        out-of-core partition of ``npages`` KV pages is grouped and
        reduced by a batch kernel."""
        layout = CFG.layout
        per_page = MimirConfig().page_size // len(
            layout.encode(b"key00000", pack_u64(0)))
        chunks = [b"".join(layout.encode(b"key%05d" % ((7 * i + page) % 1000),
                                         pack_u64(i)) for i in range(per_page))
                  for page in range(npages)]
        out = KVContainer(MemoryTracker(), layout)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kmv, payload = _group_partition(layout, iter(chunks))
            wc_reduce_batch(ReduceContext(out), kmv)
            del kmv
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return npages * per_page, peak - payload - out.memory_bytes

    def test_an_out_of_core_partition_is_bounded_by_the_block(self):
        few, over_few = self.partition_untracked_peak(6)
        many, over_many = self.partition_untracked_peak(20)
        # Beyond its charged payload a partition holds int32 columns, 15 B
        # per record here, plus temporaries bounded by the block; a
        # ``bytes`` object and a list slot per value held 34 B.
        assert over_few - 24 * few < 1024 * BLOCK
        assert over_many - 24 * many < 1024 * BLOCK
        assert over_many - over_few < 24 * (many - few)
