"""Convert paths: in-memory two-pass vs partitioned out-of-core."""

import random
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import (
    CSTRING,
    VARIABLE,
    KMVContainer,
    KVContainer,
    KVLayout,
    Mimir,
    MimirConfig,
    pack_u64,
    unpack_u64,
)
from repro.core.convert import (
    _needs_partitioned_convert,
    convert_to_kmv,
    iter_grouped,
)
from repro.core.records import BLOCK
from repro.memory import MemoryTracker
from repro.memory.pages import Page, PagePool
from repro.mpi import COMET
from tests.conftest import fit_field, small_blocks

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
    one value at a time to its slot's cursor while the KV pages drain.
    """

    def __init__(self, tracker, layout, page_size, entry_overhead=48):
        self.tracker = tracker
        self.layout = layout
        self.pool = PagePool(tracker, page_size, tag="kmvc")
        self.entry_overhead = entry_overhead + 16
        self.pages = []     # (Page, charged bytes)
        self.cursor = {}    # key -> [page, offset of its next value]

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
        self.cursor[key] = [page, page.used + len(head)]
        page.used += size

    def append_value(self, key, value):
        page, at = self.cursor[key]
        hint = self.layout.val_len
        encoded = (struct.pack("<I", len(value)) if hint is VARIABLE
                   else b"") + value + (b"\0" if hint == CSTRING else b"")
        page.data[at : at + len(encoded)] = encoded
        self.cursor[key][1] = at + len(encoded)

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
                pages = ScalarConvert(
                    tracker, layout, page_size,
                    config.bucket_entry_overhead).run(kvc)
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
                kmvc.fill_run(np.array([order[key] for key, _ in PAIRS]),
                              [value for _, value in PAIRS])
            kmvc.finish_fill()
            built.append([bytes(page.view) for page in kmvc.pages])
            assert dict(kmvc.records()) == groups
        assert built[0] == built[1]


class TestConvertHostMemory:
    """The column passes work a block at a time: what convert allocates
    beyond its tracked buffers is the 16 B/record boundary index pass one
    leaves for pass two, plus temporaries bounded by the block - not by
    the page and not by the input."""

    def untracked_peak(self, npages):
        layout = CFG.layout
        config = MimirConfig()      # stock 64 KiB pages, ~2,700 records each
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
        assert over_few - 16 * few < 1024 * BLOCK
        assert over_many - 16 * many < 1024 * BLOCK
        # ... and growing by the index alone: page-sized temporaries
        # (int64 columns, tolist() ints) would show up here.
        assert over_many - over_few < 20 * (many - few)
