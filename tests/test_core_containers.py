"""KVContainer and KMVContainer: growth, consumption, accounting."""

import random
import zlib
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.wordcount import wc_map
from repro.cluster import Cluster
from repro.core import (
    KMVContainer,
    KVContainer,
    KVLayout,
    Mimir,
    MimirConfig,
    RecordTooLargeError,
    pack_u64,
)
from repro.core.codec import Codec, get_codec
from repro.core.convert import convert_to_kmv
from repro.core.records import CSTRING, VARIABLE
from repro.datasets.words import uniform_text
from repro.memory import MemoryLimitExceeded, MemoryTracker
from repro.mpi import COMET
from tests.conftest import CONTAINER_KINDS, container_kinds, \
    tiered_container


def make_kvc(page_size=256, layout=None, limit=None):
    return KVContainer(MemoryTracker(limit), layout, page_size)


class TestKVContainerBasics:
    def test_empty(self):
        kvc = make_kvc()
        assert len(kvc) == 0
        assert kvc.memory_bytes == 0
        assert list(kvc.records()) == []

    def test_add_and_iterate(self):
        kvc = make_kvc()
        kvc.add(b"a", b"1")
        kvc.add(b"b", b"2")
        assert list(kvc.records()) == [(b"a", b"1"), (b"b", b"2")]
        assert len(kvc) == 2

    def test_pages_grow_on_demand(self):
        kvc = make_kvc(page_size=64)
        for i in range(20):
            kvc.add(b"key%02d" % i, b"v")
        assert kvc.npages > 1
        assert len(kvc) == 20

    def test_record_never_straddles_pages(self):
        kvc = make_kvc(page_size=32)
        for i in range(10):
            kvc.add(b"0123456789", b"ab")  # 20-byte record, 32-byte pages
        # One record per page (two don't fit in 32 bytes).
        assert kvc.npages == 10
        assert list(kvc.records()) == [(b"0123456789", b"ab")] * 10

    def test_record_too_large_raises(self):
        kvc = make_kvc(page_size=16)
        with pytest.raises(RecordTooLargeError):
            kvc.add(b"x" * 32, b"")

    def test_nbytes_counts_payload(self):
        kvc = make_kvc()
        kvc.add(b"ab", b"c")
        assert kvc.nbytes == 8 + 3

    def test_tracker_charged_per_page(self):
        tracker = MemoryTracker()
        kvc = KVContainer(tracker, page_size=128)
        kvc.add(b"k", b"v")
        assert tracker.current == 128

    def test_memory_limit_enforced(self):
        kvc = make_kvc(page_size=128, limit=256)
        kvc.add(b"x" * 100, b"")
        kvc.add(b"y" * 100, b"")
        with pytest.raises(MemoryLimitExceeded):
            kvc.add(b"z" * 100, b"")


class TestKVContainerConsume:
    def test_consume_yields_all_and_frees(self):
        tracker = MemoryTracker()
        kvc = KVContainer(tracker, page_size=64)
        pairs = [(b"k%d" % i, b"v%d" % i) for i in range(30)]
        for k, v in pairs:
            kvc.add(k, v)
        assert tracker.current > 0
        seen = list(kvc.consume())
        assert seen == pairs
        assert tracker.current == 0
        assert len(kvc) == 0

    def test_consume_frees_incrementally(self):
        tracker = MemoryTracker()
        kvc = KVContainer(tracker, page_size=32)
        for i in range(8):
            kvc.add(b"0123456789", b"ab")  # one record per page
        held_during = []
        for _ in kvc.consume():
            held_during.append(tracker.current)
        # Footprint strictly decreases as pages drain.
        assert held_during == sorted(held_during, reverse=True)
        assert held_during[-1] < held_during[0]

    def test_free_releases_everything(self):
        tracker = MemoryTracker()
        kvc = KVContainer(tracker, page_size=64)
        for i in range(10):
            kvc.add(b"abcdef", b"xy")
        kvc.free()
        assert tracker.current == 0
        assert list(kvc.records()) == []


class TestKVContainerEncoded:
    def test_extend_encoded_resplits_at_pages(self):
        layout = KVLayout()
        src = b"".join(layout.encode(b"w%d" % i, b"1") for i in range(40))
        kvc = make_kvc(page_size=64)
        kvc.extend_encoded(src)
        assert len(kvc) == 40
        assert [k for k, _ in kvc.records()] == [b"w%d" % i for i in range(40)]

    def test_extend_empty(self):
        kvc = make_kvc()
        kvc.extend_encoded(b"")
        assert len(kvc) == 0 and not kvc.pages

    def test_add_record_bytes(self):
        layout = KVLayout(key_len=CSTRING, val_len=2)
        kvc = make_kvc(layout=layout)
        kvc.add_record_bytes(layout.encode(b"hi", b"xy"))
        assert list(kvc.records()) == [(b"hi", b"xy")]


class TestFrozenPageSpill:
    def test_a_page_with_nothing_older_to_spill_leaves_as_its_frame(self):
        """Out of core under a limit that holds one page and no frame,
        every freeze finds nothing older to spill and the page leaves
        as the frame the freeze made: one encode per frame, and the
        same spill bytes as encoding the page again would write."""
        env = one_rank_env()
        layout = KVLayout()
        encoded, encode_frame = [], Codec.encode_frame

        def counted(self, data, scan=None):
            encoded.append(len(data))
            return encode_frame(self, data, scan)

        with mock.patch.object(Codec, "encode_frame", counted):
            kvc = KVContainer(MemoryTracker(300), layout, 256, tag="once",
                              spill_env=env,
                              codec=get_codec("dedup+zlib", layout),
                              codec_env=env)
            for i in range(300):
                kvc.add(b"w%d" % (i * 7 % 13), pack_u64(i))
        writer = kvc._spill_writer
        assert not kvc._frozen and writer.nchunks == len(encoded) == 21
        spilled = b"".join(env.pfs.read(env.comm, writer.path, at, size)
                           for at, size in writer.chunks)
        assert (len(spilled), zlib.crc32(spilled)) == (1825, 3646425870)
        assert list(kvc.records()) == [
            (b"w%d" % (i * 7 % 13), pack_u64(i)) for i in range(300)]


    def test_a_spilled_frame_is_charged_like_a_resident_one(self):
        """400 skewed records on 256 B pages: each page is encoded,
        counted and charged once, and charged its packed length on
        every read, whether its frame is resident or spilled.  The
        spill freezes the live tail, so the spilled container holds
        one frame more than the resident one, and nothing else."""
        layout = KVLayout()
        rng = random.Random(9)
        pairs = [(b"popular-%d" % rng.randint(0, 4), pack_u64(i))
                 for i in range(400)]

        def charges(spill):
            env, charged = one_rank_env(), []
            env.charge_compute = charged.append
            kvc = KVContainer(env.tracker, layout, 256, tag="frames",
                              spill_env=env if spill else None,
                              codec=get_codec("dedup+zlib", layout),
                              codec_env=env)
            for key, value in pairs:
                kvc.add(key, value)
            tail = kvc.pages[-1].used
            if spill:
                kvc.spill()
                assert kvc.npages == 0
            filled = sum(charged)
            assert list(kvc.records()) == pairs
            return (filled, sum(charged) - filled,
                    env.metrics.value("core.codec.chunks"), tail)

        resident, spilled = charges(False), charges(True)
        filled, read, chunks, tail = resident
        assert (filled, read, chunks) == (9750, 9750, 39)
        assert spilled == (filled + tail, read + tail, chunks + 1, tail)
        assert read + tail == sum(map(len, map(layout.encode, *zip(*pairs))))


class TestKMVContainer:
    def test_reserve_and_fill(self):
        kmvc = KMVContainer(MemoryTracker(), page_size=256)
        slot = kmvc.reserve(b"key", 3, 6)
        for v in (b"aa", b"bb", b"cc"):
            kmvc.append_value(slot, v)
        kmvc.finish_fill()
        assert list(kmvc.records()) == [(b"key", [b"aa", b"bb", b"cc"])]

    def test_interleaved_fill_of_two_slots(self):
        kmvc = KMVContainer(MemoryTracker(), page_size=256)
        s1 = kmvc.reserve(b"k1", 2, 2)
        s2 = kmvc.reserve(b"k2", 2, 4)
        kmvc.append_value(s1, b"a")
        kmvc.append_value(s2, b"xx")
        kmvc.append_value(s2, b"yy")
        kmvc.append_value(s1, b"b")
        kmvc.finish_fill()
        assert list(kmvc.records()) == [
            (b"k1", [b"a", b"b"]), (b"k2", [b"xx", b"yy"])]

    def test_overfill_rejected(self):
        kmvc = KMVContainer(MemoryTracker(), page_size=256)
        slot = kmvc.reserve(b"k", 1, 1)
        kmvc.append_value(slot, b"x")
        with pytest.raises(ValueError):
            kmvc.append_value(slot, b"y")

    def test_unfilled_slot_detected(self):
        kmvc = KMVContainer(MemoryTracker(), page_size=256)
        kmvc.reserve(b"k", 2, 4)
        with pytest.raises(ValueError):
            kmvc.finish_fill()

    def test_record_spans_exact_size(self):
        layout = KVLayout()  # variable key and values
        kmvc = KMVContainer(MemoryTracker(), layout, page_size=256)
        # key part 4+1, count 4, values 2*(4+2) = 21
        assert kmvc.record_size(b"k", 2, 4) == 21

    def test_fixed_value_record_size(self):
        layout = KVLayout(key_len=CSTRING, val_len=8)
        kmvc = KMVContainer(MemoryTracker(), layout, page_size=256)
        # key 'ab' + NUL = 3, count 4, 2 values * 8 = 16
        assert kmvc.record_size(b"ab", 2, 16) == 23

    def test_oversized_kmv_gets_jumbo_page(self):
        tracker = MemoryTracker()
        kmvc = KMVContainer(tracker, page_size=64)
        slot = kmvc.reserve(b"k", 10, 100)  # record ~169B > 64B page
        for _ in range(10):
            kmvc.append_value(slot, b"x" * 10)
        kmvc.finish_fill()
        # Charged in whole page units (3 x 64 = 192 >= 169).
        assert tracker.current == 192
        assert kmvc.memory_bytes == 192
        assert list(kmvc.records()) == [(b"k", [b"x" * 10] * 10)]
        kmvc.free()
        assert tracker.current == 0

    def test_jumbo_page_freed_on_consume(self):
        tracker = MemoryTracker()
        kmvc = KMVContainer(tracker, page_size=64)
        slot = kmvc.reserve(b"big", 20, 100)
        for _ in range(20):
            kmvc.append_value(slot, b"y" * 5)
        slot2 = kmvc.reserve(b"small", 1, 4)
        kmvc.append_value(slot2, b"abcd")
        kmvc.finish_fill()
        records = list(kmvc.consume())
        assert [k for k, _ in records] == [b"big", b"small"]
        assert tracker.current == 0

    def test_consume_frees_pages(self):
        tracker = MemoryTracker()
        kmvc = KMVContainer(tracker, page_size=64)
        for i in range(8):
            slot = kmvc.reserve(b"key%d" % i, 1, 30)
            kmvc.append_value(slot, b"v" * 30)
        kmvc.finish_fill()
        assert tracker.current > 0
        records = list(kmvc.consume())
        assert len(records) == 8
        assert tracker.current == 0

    def test_cstring_values(self):
        layout = KVLayout(key_len=4, val_len=CSTRING)
        kmvc = KMVContainer(MemoryTracker(), layout, page_size=128)
        slot = kmvc.reserve(b"aaaa", 2, len(b"hi") + len(b"yo"))
        kmvc.append_value(slot, b"hi")
        kmvc.append_value(slot, b"yo")
        kmvc.finish_fill()
        assert list(kmvc.records()) == [(b"aaaa", [b"hi", b"yo"])]


@settings(max_examples=50)
@given(st.lists(st.tuples(st.binary(min_size=1, max_size=8),
                          st.binary(max_size=8)), max_size=60),
       st.sampled_from([64, 128, 256]))
def test_property_kvc_preserves_sequence(pairs, page_size):
    kvc = KVContainer(MemoryTracker(), page_size=page_size)
    for k, v in pairs:
        kvc.add(k, v)
    assert list(kvc.records()) == pairs
    tracker = kvc.pool.tracker
    assert list(kvc.consume()) == pairs
    assert tracker.current == 0


_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "add_run", "extend_encoded"]),
              st.lists(st.tuples(st.binary(min_size=1, max_size=8),
                                 st.binary(max_size=8)),
                       min_size=1, max_size=12)),
    max_size=12)


@container_kinds
@settings(max_examples=25, deadline=None)
@given(ops=_OPS, page_size=st.sampled_from([64, 128]))
def test_property_chunks_are_the_records_in_order(kind, ops, page_size):
    """``chunks()`` is every tier, in insertion order, and reads only."""
    env = Cluster(COMET, nprocs=1, memory_limit=None).run(
        lambda env: env).returns[0]
    kvc = tiered_container(env, kind, page_size=page_size)
    layout, expected = kvc.layout, []
    for op, pairs in ops:
        keys, values = zip(*pairs)
        if op == "add":
            for key, value in pairs:
                kvc.add(key, value)
        elif op == "add_run":
            kvc.add_run(keys, values)
        else:
            kvc.extend_encoded(b"".join(layout.encode_run(keys, values)))
        expected += layout.encode_run(keys, values)
    kvc.pin()  # a reader: allowed while pinned, unlike consume_chunks()
    held = len(kvc), env.tracker.current, kvc.spilled_bytes
    first = b"".join(kvc.chunks())
    assert first == b"".join(expected)
    assert b"".join(kvc.chunks()) == first
    assert (len(kvc), env.tracker.current, kvc.spilled_bytes) == held
    batches = list(kvc.batches())
    assert b"".join(batch.data for batch in batches) == first
    kvc.unpin()
    # The runs ``batches()`` indexes: a dedup frame's body, where its
    # FrameBatch's columns point, and every other run's records.
    assert list(kvc.consume_chunks()) == [
        batch.data if batch.frame is None else batch.frame[0]
        for batch in batches]
    assert env.tracker.current == 0


# ------------------------------------------- receive without a second walk

#: var/var, the WordCount hint, fixed/fixed rows, var/NUL-ended.
LAYOUTS = [KVLayout(), KVLayout(CSTRING, 8), KVLayout(4, 8),
           KVLayout(VARIABLE, CSTRING)]


def conform(field, hint):
    """``field`` bent to ``hint``: cut or padded, or freed of NULs."""
    if hint == CSTRING:
        return field.replace(b"\0", b"n")
    if hint is VARIABLE:
        return field
    return field[:hint].ljust(hint, b"p")


def receiver(env, layout, kind, page_size):
    codec, budget = kind
    return KVContainer(env.tracker, layout, page_size, tag="recv",
                       spill_env=env if budget else None,
                       resident_page_budget=budget,
                       codec=get_codec(codec, layout), codec_env=env)


def one_rank_env():
    return Cluster(COMET, nprocs=1, memory_limit=None).run(
        lambda env: env).returns[0]


def packed_pages(records, page_size):
    """Where per-record insertion cuts pages, written out by hand."""
    pages = []
    for record in records:
        if not pages or len(pages[-1]) + len(record) > page_size:
            pages.append(b"")
        pages[-1] += record
    return pages


_PARTS = st.lists(st.lists(st.tuples(st.binary(max_size=9),
                                     st.binary(max_size=9)), max_size=14),
                  max_size=8)


@settings(max_examples=60, deadline=None)
@given(layout=st.sampled_from(LAYOUTS),
       kind=st.sampled_from(CONTAINER_KINDS), parts=_PARTS,
       page_size=st.integers(28, 160))
# Fixed/fixed rows of 12 B fill a 48 B page exactly, twice, mid-part.
@example(layout=KVLayout(4, 8), kind=(None, None), page_size=48,
         parts=[[(b"a", b"b")] * 3, [(b"c", b"d")] * 6, []])
# A part that exactly fills what the tail page has left.
@example(layout=KVLayout(), kind=(None, None), page_size=40,
         parts=[[(b"k", b"v")], [(b"key", b"value"), (b"", b"")], []])
def test_extend_encoded_cuts_pages_as_per_record_add(layout, kind, parts,
                                                     page_size):
    """One ``extend_encoded`` per received part leaves the pages, the
    spill, ``len()`` and ``nbytes`` that per-record ``add`` does."""
    env = one_rank_env()
    parts = [[(conform(k, layout.key_len), conform(v, layout.val_len))
              for k, v in part] for part in parts]
    bulk = receiver(env, layout, kind, page_size)
    one_by_one = receiver(env, layout, kind, page_size)
    records = []
    for part in parts:
        encoded = [layout.encode(k, v) for k, v in part]
        bulk.extend_encoded(b"".join(encoded))
        for k, v in part:
            one_by_one.add(k, v)
        records += encoded
    assert list(bulk.chunks()) == list(one_by_one.chunks())
    if kind == (None, None):
        assert [bytes(page.view) for page in bulk.pages] == \
            packed_pages(records, page_size)
    assert len(bulk) == len(one_by_one) == len(records)
    assert bulk.nbytes == one_by_one.nbytes == sum(map(len, records))
    assert bulk.spilled_bytes == one_by_one.spilled_bytes
    assert list(bulk.consume_chunks()) == list(one_by_one.consume_chunks())
    assert len(bulk) == 0 and env.tracker.current == 0


class TestReceiveContract:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=str)
    def test_malformed_part_raises_at_the_first_reader(self, layout):
        """A part cut mid-record is copied unwalked when it fits the
        tail page; whichever reads the page first - ``len()`` or a
        batch scan - rejects it."""
        part = b"".join(layout.encode(conform(b"key", layout.key_len),
                                      conform(b"v", layout.val_len))
                        for _ in range(3))[:-1]
        for read in (len, lambda kvc: list(kvc.batches())):
            kvc = make_kvc(page_size=256, layout=layout)
            try:
                kvc.extend_encoded(part)
            except ValueError:
                assert layout.row_width  # fixed rows are counted on entry
                continue
            with pytest.raises(ValueError):
                read(kvc)

    def test_malformed_part_across_a_split(self):
        """Past the split the next record is sized from its header: a
        lying header fails there (truncated, or too large a page)."""
        layout = KVLayout()
        head = b"".join(layout.encode(b"k%d" % i, b"v") for i in range(4))
        for tail, error in ((layout.encode(b"key", b"value")[:-2],
                             ValueError),
                            (layout.encode(b"k" * 80, b"v"),
                             RecordTooLargeError)):
            with pytest.raises(error):
                make_kvc(page_size=48).extend_encoded(head + tail)

    def test_len_reads_no_storage_and_moves_no_clock(self):
        env = one_rank_env()
        layout = KVLayout()
        kvc = receiver(env, layout, (None, 2), 64)
        for i in range(40):
            kvc.extend_encoded(b"".join(layout.encode_run(
                [b"w%d" % i] * 3, [b"x" * (i % 7)] * 3)))
        # Pages were counted as they left memory; only resident ones wait.
        assert kvc.spilled and kvc._unwalked
        assert set(kvc._unwalked) <= set(kvc.pages)
        held = (env.metrics.value("storage.bytes_read"), env.comm.clock.time)
        assert len(kvc) == 120
        assert not kvc._unwalked
        assert (env.metrics.value("storage.bytes_read"),
                env.comm.clock.time) == held

    def test_a_consumed_page_is_let_go_uncounted(self):
        """Draining does not count pages, and does not hold on to the
        ones it has drained until the end."""
        layout = KVLayout()
        kvc = make_kvc(page_size=64)
        for i in range(12):  # two 31-32 B records per page
            kvc.extend_encoded(layout.encode(b"k%d" % i, b"v" * 20))
        assert len(kvc._unwalked) == len(kvc.pages) == 6
        for _ in kvc.consume_chunks():
            # All but the page just handed out.
            assert len(kvc._unwalked) <= len(kvc.pages) + 1
        assert not kvc._unwalked and len(kvc) == 0

    @pytest.mark.parametrize("layout", LAYOUTS[:2], ids=str)
    def test_wordcount_walks_each_received_record_about_once(self, layout):
        """Between the exchange and the end of convert's pass one, a
        received record's header is read once (by pass one) plus the few
        a page split walks: at most 1.2 per record (2 when the receive
        scanned every part)."""
        walks, received = walks_per_received_record(MimirConfig(
            layout=layout))  # the default buffer sizes
        assert received > 5_000
        assert walks <= 1.2 * received, walks / received

    def test_a_frozen_page_is_walked_once(self):
        """Under a dedup codec the sender's encode scans each exchange
        part, and a received page is walked once more, by the scan its
        freeze makes (which counts it too); convert's pass one reads it
        as its frame's columns.  At most 2.2 walks per record (3.9 when
        a freeze counted a page, then scanned it to encode, and pass one
        scanned it packed again)."""
        walks, received = walks_per_received_record(MimirConfig(
            codec="dedup+zlib"))
        assert received > 5_000
        assert walks <= 2.2 * received, walks / received


def walks_per_received_record(config):
    """Record headers read (``fit``, ``scan``, ``record_end``) from a
    two-rank WordCount map through convert's pass one, and the records
    received.  A ``fit`` handed the record offsets searches them and
    reads no header."""
    walked = [0]
    fit, scan, record_end = KVLayout.fit, KVLayout.scan, KVLayout.record_end

    def counting_fit(self, buf, start, room, roff=None):
        stop, n = fit(self, buf, start, room, roff)
        walked[0] += n if roff is None else 0
        return stop, n

    def counting_scan(self, *args):
        columns = scan(self, *args)
        walked[0] += len(columns[0]) - 1
        return columns

    def counting_record_end(self, *args):
        walked[0] += 1
        return record_end(self, *args)

    cluster = Cluster(COMET, nprocs=2, memory_limit=None)
    cluster.pfs.store("t.txt", uniform_text(256 * 1024))

    def job(env):
        mimir = Mimir(env, config)
        kvs = mimir.map_text_file("t.txt", wc_map)
        convert_to_kmv(env, kvs, config).free()
        return mimir.last_map_stats["records"]

    with mock.patch.object(KVLayout, "fit", counting_fit), \
            mock.patch.object(KVLayout, "scan", counting_scan), \
            mock.patch.object(KVLayout, "record_end", counting_record_end):
        received = sum(cluster.run(job).returns)
    return walked[0], received
