"""End-to-end Mimir jobs on a simulated cluster."""

import operator
from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.core import (
    CSTRING,
    KVLayout,
    Mimir,
    MimirConfig,
    pack_u64,
    unpack_u64,
)
from repro.mpi import COMET

TEXT = (b"the quick brown fox jumps over the lazy dog "
        b"the fox and the dog became friends the end ") * 7
EXPECTED = Counter(TEXT.split())

SMALL = MimirConfig(page_size=1024, comm_buffer_size=1024,
                    input_chunk_size=256)


def wc_map(ctx, chunk):
    one = pack_u64(1)
    for word in chunk.split():
        ctx.emit(word, one)


def wc_reduce(ctx, key, values):
    total = sum(unpack_u64(v) for v in values)
    ctx.emit(key, pack_u64(total))


def wc_combine(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


def run_wordcount(nprocs, config=SMALL, combine=False, partial=False,
                  layout=None):
    return run_memtext(nprocs, TEXT, config=config, combine=combine,
                       partial=partial, layout=layout)


def run_memtext(nprocs, text, config=SMALL, combine=False, partial=False,
                layout=None):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("input.txt", text)
    if layout is not None:
        config = config.with_layout(layout)

    def job(env):
        mimir = Mimir(env, config)
        kvs = mimir.map_text_file("input.txt", wc_map,
                                  combine_fn=wc_combine if combine else None)
        if partial:
            out = mimir.partial_reduce(kvs, wc_combine)
        else:
            out = mimir.reduce(kvs, wc_reduce)
        return {k: unpack_u64(v) for k, v in out.records()}

    result = cluster.run(job)
    merged: Counter = Counter()
    for rank_counts in result.returns:
        for word, count in rank_counts.items():
            assert word not in merged, "word reduced on two ranks"
            merged[word] = count
    return merged, result


class TestWordCountCorrectness:
    def test_serial(self):
        merged, _ = run_wordcount(1)
        assert merged == EXPECTED

    def test_parallel(self):
        merged, _ = run_wordcount(4)
        assert merged == EXPECTED

    def test_many_ranks(self):
        merged, _ = run_wordcount(8)
        assert merged == EXPECTED

    def test_with_combiner(self):
        merged, _ = run_wordcount(4, combine=True)
        assert merged == EXPECTED

    def test_with_partial_reduce(self):
        merged, _ = run_wordcount(4, partial=True)
        assert merged == EXPECTED

    def test_with_kv_hint(self):
        merged, _ = run_wordcount(4, layout=KVLayout(key_len=CSTRING,
                                                     val_len=8))
        assert merged == EXPECTED

    def test_hint_plus_combine_plus_partial(self):
        merged, _ = run_wordcount(
            4, combine=True, partial=True,
            layout=KVLayout(key_len=CSTRING, val_len=8))
        assert merged == EXPECTED

    def test_tiny_buffers_force_many_rounds(self):
        config = MimirConfig(page_size=512, comm_buffer_size=256,
                             input_chunk_size=64)
        merged, _ = run_wordcount(4, config=config)
        assert merged == EXPECTED


class TestMemoryBehaviour:
    def test_all_buffers_released_at_end(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("input.txt", TEXT)

        def job(env):
            mimir = Mimir(env, SMALL)
            kvs = mimir.map_text_file("input.txt", wc_map)
            out = mimir.reduce(kvs, wc_reduce)
            out.free()
            return env.tracker.current

        result = cluster.run(job)
        assert result.returns == [0, 0]

    # Fine-grained pages (sub-page savings visible) over a corpus whose
    # per-key multiplicity stays small enough for 512-byte KMV records.
    MEMCFG = MimirConfig(page_size=512, comm_buffer_size=2048,
                         input_chunk_size=512)
    MEMTEXT = " ".join(f"word{i % 100:03d}" for i in range(3000)).encode()

    def _run_mem(self, **kwargs):
        return run_memtext(4, self.MEMTEXT, config=self.MEMCFG, **kwargs)

    def test_kv_hint_reduces_peak_memory(self):
        _, plain = self._run_mem()
        _, hinted = self._run_mem(layout=KVLayout(key_len=CSTRING, val_len=8))
        assert hinted.node_peak_bytes < plain.node_peak_bytes

    def test_partial_reduce_reduces_peak_memory(self):
        _, full = self._run_mem()
        _, partial = self._run_mem(partial=True)
        assert partial.node_peak_bytes < full.node_peak_bytes

    def test_elapsed_positive(self):
        _, result = run_wordcount(4)
        assert result.elapsed > 0


class TestOtherSources:
    def test_map_items(self):
        cluster = Cluster(COMET, nprocs=3, memory_limit=None)

        def job(env):
            items = range(env.comm.rank, 30, env.comm.size)

            def map_fn(ctx, i):
                ctx.emit(b"%d" % (i % 5), pack_u64(i))

            mimir = Mimir(env, SMALL)
            kvs = mimir.map_items(items, map_fn)
            out = mimir.reduce(
                kvs, lambda ctx, k, vs: ctx.emit(k, pack_u64(
                    sum(unpack_u64(v) for v in vs))))
            return {k: unpack_u64(v) for k, v in out.records()}

        result = cluster.run(job)
        merged = {}
        for part in result.returns:
            merged.update(part)
        expected = {}
        for i in range(30):
            key = b"%d" % (i % 5)
            expected[key] = expected.get(key, 0) + i
        assert merged == expected

    def test_map_binary_file(self):
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)
        records = b"".join(pack_u64(i) for i in range(100))
        cluster.pfs.store("data.bin", records)

        def job(env):
            def map_fn(ctx, chunk):
                assert len(chunk) % 8 == 0
                for off in range(0, len(chunk), 8):
                    v = unpack_u64(chunk[off : off + 8])
                    ctx.emit(b"even" if v % 2 == 0 else b"odd", pack_u64(v))

            mimir = Mimir(env, SMALL)
            kvs = mimir.map_binary_file("data.bin", 8, map_fn)
            out = mimir.reduce(
                kvs, lambda ctx, k, vs: ctx.emit(k, pack_u64(len(vs))))
            return {k: unpack_u64(v) for k, v in out.records()}

        result = cluster.run(job)
        merged = {}
        for part in result.returns:
            merged.update(part)
        assert merged == {b"even": 50, b"odd": 50}

    def test_map_kvs_multistage(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("input.txt", TEXT)

        def job(env):
            mimir = Mimir(env, SMALL)
            kvs = mimir.map_text_file("input.txt", wc_map)
            counts = mimir.reduce(kvs, wc_reduce)

            # Stage 2: histogram of counts (count -> how many words).
            def map2(ctx, key, value):
                ctx.emit(value, pack_u64(1))

            stage2 = mimir.map_kvs(counts, map2)
            out = mimir.reduce(
                stage2, lambda ctx, k, vs: ctx.emit(k, pack_u64(
                    sum(unpack_u64(v) for v in vs))))
            return {unpack_u64(k): unpack_u64(v) for k, v in out.records()}

        result = cluster.run(job)
        merged = {}
        for part in result.returns:
            merged.update(part)
        expected = Counter(EXPECTED.values())
        assert merged == dict(expected)

    def test_custom_partitioner(self):
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)

        def job(env):
            def map_fn(ctx, i):
                ctx.emit(b"%04d" % i, pack_u64(i))

            mimir = Mimir(env, SMALL)
            items = range(env.comm.rank, 40, env.comm.size)
            kvs = mimir.map_items(
                items, map_fn,
                partitioner=lambda key, p: int(key) % p)
            # Every key must land on the rank its number selects.
            return sorted(int(k) % env.comm.size == env.comm.rank
                          for k, _ in kvs.records())

        result = cluster.run(job)
        for flags in result.returns:
            assert all(flags)

    def test_write_output(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("input.txt", b"a b a")

        def job(env):
            mimir = Mimir(env, SMALL)
            kvs = mimir.map_text_file("input.txt", wc_map)
            out = mimir.reduce(kvs, wc_reduce)
            mimir.write_output(out, "out/wc",
                               render=lambda k, v: k + b" %d\n" % unpack_u64(v))

        cluster.run(job)
        combined = b"".join(cluster.pfs.fetch(p)
                            for p in cluster.pfs.listdir("out/"))
        lines = sorted(combined.splitlines())
        assert lines == [b"a 2", b"b 1"]


class TestShuffleBalance:
    def test_same_key_lands_on_one_rank(self):
        cluster = Cluster(COMET, nprocs=5, memory_limit=None)
        cluster.pfs.store("input.txt", TEXT)

        def job(env):
            mimir = Mimir(env, SMALL)
            kvs = mimir.map_text_file("input.txt", wc_map)
            return sorted({k for k, _ in kvs.records()})

        result = cluster.run(job)
        seen = {}
        for rank, keys in enumerate(result.returns):
            for key in keys:
                assert key not in seen, (
                    f"{key!r} on ranks {seen[key]} and {rank}")
                seen[key] = rank
        assert set(seen) == set(EXPECTED)


class TestScansOnlyWhereColumnsAreRead:
    def test_a_preserving_reduce_scans_each_page_once(self, monkeypatch):
        """``consume=False`` copies every input page into a scratch
        container and groups that: one scan per page of either, never a
        re-scan of a page whose offsets are known."""
        scans = []
        scan = KVLayout.scan

        def counted(layout, buf, end=None):
            scans.append(len(buf))
            return scan(layout, buf, end)

        def job(env):
            mimir = Mimir(env, SMALL)
            kvs = mimir.map_text_file("input.txt", wc_map)
            pages = kvs.npages
            del scans[:]
            monkeypatch.setattr(KVLayout, "scan", counted)
            out = mimir.reduce(kvs, wc_reduce, consume=False)
            monkeypatch.undo()
            assert len(scans) == 2 * pages
            counts = dict(out.records())
            out.free()
            kvs.free()
            return len(counts)

        cluster = Cluster(COMET, nprocs=1, memory_limit=None)
        cluster.pfs.store("input.txt", TEXT * 4)
        assert cluster.run(job).returns == [len(EXPECTED)]
