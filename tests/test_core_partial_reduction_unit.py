"""partial_reduce and the shared KMV codec in isolation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import KVContainer, KVLayout, pack_u64, unpack_u64
from repro.core.kmvcontainer import iter_kmv_batches
from repro.core.partial_reduction import partial_reduce
from repro.core.records import CSTRING
from repro.mpi import COMET
from tests.scalar_reference import encode_kmv_record


def iter_kmv_buffer(layout, buf):
    """The groups of a packed KMV run, one at a time."""
    for batch in iter_kmv_batches(layout, buf):
        yield from batch


def with_env(fn):
    cluster = Cluster(COMET, nprocs=1, memory_limit=None)
    return cluster.run(fn).returns[0]


class TestPartialReduceUnit:
    def test_folds_duplicates_in_order(self):
        def job(env):
            kvc = KVContainer(env.tracker, page_size=1024)
            for i in range(10):
                kvc.add(b"k%d" % (i % 3), pack_u64(i))
            out = partial_reduce(
                env, kvc,
                lambda k, a, b: pack_u64(unpack_u64(a) + unpack_u64(b)),
                KVContainer(env.tracker, page_size=1024))
            result = {k: unpack_u64(v) for k, v in out.records()}
            out.free()
            return result, env.tracker.current

        result, leftover = with_env(job)
        assert result == {b"k0": 0 + 3 + 6 + 9, b"k1": 1 + 4 + 7,
                          b"k2": 2 + 5 + 8}
        assert leftover == 0

    def test_noncommutative_fold_sees_stream_order(self):
        def job(env):
            kvc = KVContainer(env.tracker, page_size=1024)
            for token in (b"a", b"b", b"c"):
                kvc.add(b"k", token)
            out = partial_reduce(env, kvc, lambda k, a, b: a + b,
                                 KVContainer(env.tracker, page_size=1024))
            result = dict(out.records())
            out.free()
            return result

        # Values fold left-to-right in insertion order.
        assert with_env(job) == {b"k": b"abc"}

    def test_unique_keys_pass_through(self):
        def job(env):
            kvc = KVContainer(env.tracker, page_size=1024)
            pairs = [(b"x%d" % i, b"v%d" % i) for i in range(5)]
            for k, v in pairs:
                kvc.add(k, v)
            out = partial_reduce(env, kvc, lambda k, a, b: a,
                                 KVContainer(env.tracker, page_size=1024))
            result = list(out.records())
            out.free()
            return result, pairs

        result, pairs = with_env(job)
        assert sorted(result) == sorted(pairs)

    def test_empty_input(self):
        def job(env):
            kvc = KVContainer(env.tracker, page_size=1024)
            out = partial_reduce(env, kvc, lambda k, a, b: a,
                                 KVContainer(env.tracker, page_size=1024))
            n = len(out)
            out.free()
            return n

        assert with_env(job) == 0


class TestKMVCodec:
    def test_roundtrip_variable(self):
        layout = KVLayout()
        record = encode_kmv_record(layout, b"key", [b"a", b"bb", b""])
        assert list(iter_kmv_buffer(layout, record)) == \
            [(b"key", [b"a", b"bb", b""])]

    def test_roundtrip_fixed_values(self):
        layout = KVLayout(key_len=CSTRING, val_len=8)
        record = encode_kmv_record(layout, b"word",
                                   [pack_u64(1), pack_u64(2)])
        [(key, values)] = list(iter_kmv_buffer(layout, record))
        assert key == b"word"
        assert [unpack_u64(v) for v in values] == [1, 2]

    def test_multiple_records_stream(self):
        layout = KVLayout()
        buf = (encode_kmv_record(layout, b"a", [b"1"]) +
               encode_kmv_record(layout, b"b", [b"2", b"3"]))
        assert list(iter_kmv_buffer(layout, buf)) == \
            [(b"a", [b"1"]), (b"b", [b"2", b"3"])]

    @given(st.lists(st.tuples(
        st.binary(min_size=1, max_size=8),
        st.lists(st.binary(max_size=8), min_size=1, max_size=6)),
        max_size=10))
    def test_property_codec_roundtrip(self, records):
        layout = KVLayout()
        buf = b"".join(encode_kmv_record(layout, k, vs)
                       for k, vs in records)
        assert list(iter_kmv_buffer(layout, buf)) == records
