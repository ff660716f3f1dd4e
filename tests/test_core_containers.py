"""KVContainer and KMVContainer: growth, consumption, accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import KMVContainer, KVContainer, KVLayout, RecordTooLargeError
from repro.core.records import CSTRING
from repro.memory import MemoryLimitExceeded, MemoryTracker
from repro.mpi import COMET
from tests.conftest import container_kinds, tiered_container


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
        added = kvc.extend_encoded(src)
        assert added == 40
        assert [k for k, _ in kvc.records()] == [b"w%d" % i for i in range(40)]

    def test_extend_empty(self):
        kvc = make_kvc()
        assert kvc.extend_encoded(b"") == 0

    def test_add_record_bytes(self):
        layout = KVLayout(key_len=CSTRING, val_len=2)
        kvc = make_kvc(layout=layout)
        kvc.add_record_bytes(layout.encode(b"hi", b"xy"))
        assert list(kvc.records()) == [(b"hi", b"xy")]


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
    kvc.unpin()
    assert b"".join(kvc.consume_chunks()) == first
    assert env.tracker.current == 0
