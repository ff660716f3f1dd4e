"""Shuffler in isolation: partitions, rounds, buffers, routing."""

import tracemalloc
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import (
    CSTRING,
    VARIABLE,
    KVBatch,
    KVContainer,
    KVLayout,
    MimirConfig,
    RecordTooLargeError,
    pack_u64,
)
from repro.core.bucket import Bucket
from repro.core.records import BLOCK
from repro.core.shuffle import Shuffler, crc32_rows, default_partitioner
from repro.mpi import COMET, RankFailedError

CFG = MimirConfig(page_size=1024, comm_buffer_size=512)


def run_shuffle(nprocs, emit_fn, config=CFG, partitioner=None):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)

    def job(env):
        out = KVContainer(env.tracker, config.layout, config.page_size)
        shuffler = Shuffler(env, config, out, partitioner)
        emit_fn(env, shuffler)
        shuffler.finish()
        stats = (shuffler.rounds, shuffler.records_sent,
                 shuffler.bytes_sent, env.tracker.current)
        records = list(out.records())
        out.free()
        return records, stats

    return cluster.run(job).returns


class TestPartitionSizing:
    def test_partition_is_buffer_over_nprocs(self):
        assert CFG.partition_size(4) == 128
        assert CFG.partition_size(1) == 512

    def test_record_bigger_than_partition_rejected(self):
        def emit(env, shuffler):
            shuffler.emit_block([b"k" * 200], [b"v"])  # > 128B partition

        with pytest.raises(RankFailedError) as exc_info:
            run_shuffle(4, emit)
        assert isinstance(exc_info.value.original, RecordTooLargeError)

    def test_comm_buffers_freed_on_finish(self):
        def emit(env, shuffler):
            shuffler.emit_block([b"k"], [b"v"])

        for _records, (_r, _n, _b, leftover_minus_pages) in \
                run_shuffle(2, emit):
            pass  # leftover checked below via tracker snapshot

        cluster = Cluster(COMET, nprocs=2, memory_limit=None)

        def job(env):
            out = KVContainer(env.tracker, CFG.layout, CFG.page_size)
            shuffler = Shuffler(env, CFG, out, None)
            shuffler.emit_block([b"k"], [b"v"])
            shuffler.finish()
            held = env.tracker.usage_by_tag()
            out.free()
            return held

        for held in cluster.run(job).returns:
            assert "send_buffer" not in held
            assert "recv_buffer" not in held


class TestRounds:
    def test_single_round_for_small_data(self):
        def emit(env, shuffler):
            if env.comm.rank == 0:
                shuffler.emit_block([b"a"], [b"1"])

        results = run_shuffle(2, emit)
        rounds = {stats[0] for _, stats in results}
        assert rounds == {1}

    def test_full_partition_forces_extra_rounds(self):
        def emit(env, shuffler):
            for i in range(100):  # ~17B x 100 per dest >> 128B partition
                shuffler.emit_block([b"k%02d" % (i % 10)], [b"v"])

        results = run_shuffle(4, emit)
        for _, (rounds, sent, _bytes, _cur) in results:
            assert rounds > 1
            assert sent == 100

    def test_all_ranks_same_round_count(self):
        def emit(env, shuffler):
            # Only rank 0 emits a lot; everyone must follow its rounds.
            n = 200 if env.comm.rank == 0 else 1
            for i in range(n):
                shuffler.emit_block([b"x%03d" % i], [b"y"])

        results = run_shuffle(3, emit)
        assert len({stats[0] for _, stats in results}) == 1


class TestRouting:
    def test_default_partitioner_consistency(self):
        assert default_partitioner(b"word", 7) == \
            default_partitioner(b"word", 7)
        assert 0 <= default_partitioner(b"anything", 5) < 5

    def test_records_arrive_at_hash_owner(self):
        def emit(env, shuffler):
            for i in range(40):
                shuffler.emit_block([b"key%02d" % i],
                                    [bytes([env.comm.rank])])

        results = run_shuffle(4, emit)
        for rank, (records, _stats) in enumerate(results):
            for key, _value in records:
                assert default_partitioner(key, 4) == rank

    def test_custom_partitioner_routes_everything_to_zero(self):
        def emit(env, shuffler):
            shuffler.emit_block([b"k%d" % env.comm.rank], [b"v"])

        results = run_shuffle(3, emit, partitioner=lambda k, p: 0)
        counts = [len(records) for records, _ in results]
        assert counts == [3, 0, 0]

    def test_multiset_preserved_end_to_end(self):
        def emit(env, shuffler):
            for i in range(30):
                shuffler.emit_block([b"w%02d" % ((i + env.comm.rank) % 9)],
                                    [b"v"])

        results = run_shuffle(5, emit)
        merged = Counter()
        for records, _ in results:
            merged.update(k for k, _ in records)
        assert sum(merged.values()) == 5 * 30


# ----------------------------------------------- the column router's edges

class TestColumnCrc:
    """Fixed-width keys are hashed a byte column at a time; the ranks
    they land on must be the ones ``zlib.crc32`` picks per key."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=16).flatmap(
        lambda width: st.lists(st.binary(min_size=width, max_size=width),
                               max_size=40)))
    def test_equals_zlib_crc32(self, keys):
        width = len(keys[0]) if keys else 1
        rows = np.frombuffer(b"".join(keys), np.uint8).reshape(-1, width)
        assert crc32_rows(rows).tolist() == [zlib.crc32(k) for k in keys]

    def test_reads_keys_through_a_strided_view(self):
        # What ``emit_batch`` passes: the key columns of a wider matrix.
        rows = np.frombuffer(bytes(range(256)) * 3, np.uint8).reshape(-1, 16)
        assert crc32_rows(rows[:, :5]).tolist() == \
            [zlib.crc32(bytes(row[:5])) for row in rows]


def failure_of(layout, drive, nprocs=2):
    """``(type, message, records routed before it)`` of the error one
    rank's ``drive(shuffler)`` raises."""
    config = MimirConfig(page_size=1024, comm_buffer_size=256, layout=layout)
    routed = []

    def job(env):
        out = KVContainer(env.tracker, layout, config.page_size)
        shuffler = Shuffler(env, config, out)
        try:
            drive(shuffler)
        finally:
            routed.append(shuffler.records_sent)

    with pytest.raises(RankFailedError) as exc_info:
        Cluster(COMET, nprocs=nprocs, memory_limit=None).run(job)
    error = exc_info.value.original
    return type(error), str(error), routed[0]


class TestBulkEmitErrors:
    # (layout, a good record, the bad one): a NUL in a CSTRING field, a
    # wrong fixed length, a record larger than a 128-byte partition.
    CASES = [
        (KVLayout(CSTRING, VARIABLE), (b"ok", b"v"), (b"a\0b", b"v")),
        (KVLayout(VARIABLE, CSTRING), (b"ok", b"v"), (b"k", b"v\0")),
        (KVLayout(4, VARIABLE), (b"good", b"v"), (b"toolong", b"v")),
        (KVLayout(VARIABLE, 2), (b"ok", b"vv"), (b"k", b"v")),
        (KVLayout(), (b"ok", b"v"), (b"k" * 200, b"v")),
        (KVLayout(CSTRING, 8), (b"ok", b"8" * 8), (b"k" * 200, b"8" * 8)),
    ]

    @pytest.mark.parametrize("layout,good,bad", CASES)
    def test_same_exception_as_emit(self, layout, good, bad):
        pairs = [good] * 5 + [bad] + [good] * 5

        def loop(shuffler):
            for key, value in pairs:
                shuffler.emit_block([key], [value])

        kind, message, routed = failure_of(layout, loop)
        assert issubclass(kind, (ValueError, RecordTooLargeError))
        assert routed == 5      # the per-record path fails on the spot
        # The bulk paths raise the same error a block early: before the
        # block's earlier records are routed.
        assert failure_of(layout, lambda shuffler: shuffler.emit_pairs(
            iter(pairs))) == (kind, message, 0)
        if good[1] == bad[1]:
            assert failure_of(layout, lambda shuffler: shuffler.emit_run(
                [key for key, _ in pairs], good[1])) == (kind, message, 0)

    def test_oversized_record_in_a_batch(self):
        layout = KVLayout()
        records = [layout.encode(b"ok", b"v")] * 3 + \
            [layout.encode(b"k" * 200, b"v")]
        batch = KVBatch(b"".join(records), layout)
        kind, message, routed = failure_of(
            layout, lambda shuffler: shuffler.emit_batch(batch))
        assert kind is RecordTooLargeError and routed == 0
        assert message == failure_of(
            layout,
            lambda shuffler: shuffler.emit_block([b"k" * 200], [b"v"]))[1]


class _CountingSink(KVContainer):
    """Counts what arrives and keeps nothing, so a traced peak is the
    emit path's own allocations and not the shuffled data."""

    def extend_encoded(self, buf):
        self.nbytes += len(buf)
        return 0


class TestBulkEmitHostMemory:
    """The router works a block at a time: its temporaries do not grow
    with the length of the run it is handed (a router that took the
    whole run as columns would hold ~150 B per key here)."""

    def emit_run_peak(self, nkeys):
        config = MimirConfig()
        keys = [b"key%05d" % (i % 5000) for i in range(nkeys)]

        def job(env):
            out = _CountingSink(env.tracker, config.layout, config.page_size)
            shuffler = Shuffler(env, config, out)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert shuffler.emit_run(keys, pack_u64(1)) == nkeys
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            shuffler.finish()
            assert out.nbytes == nkeys * config.layout.encoded_size(
                keys[0], pack_u64(1))
            return peak, shuffler.rounds

        return Cluster(COMET, nprocs=1, memory_limit=None).run(job).returns[0]

    def test_emit_run_peak_is_a_multiple_of_the_block(self):
        short, _ = self.emit_run_peak(5_000)
        long, rounds = self.emit_run_peak(50_000)
        assert rounds > 10                  # exchanges cut the call
        assert long < 512 * BLOCK           # 512 B per record of one block
        assert long < 1.5 * short           # ten times the keys, same peak

    def test_drain_is_consumed_a_block_at_a_time(self):
        # ``emit_pairs`` must not list the drain: the bucket releases
        # its accounting block by block as the shuffler pulls.
        config = MimirConfig()
        ahead = []

        def job(env):
            out = _CountingSink(env.tracker, config.layout, config.page_size)
            shuffler = Shuffler(env, config, out)
            bucket = Bucket(env.tracker, fold=lambda key, a, b: b)
            bucket.fold_columns(
                (b"key%05d" % i for i in range(4 * BLOCK + 7)),
                map(pack_u64, range(4 * BLOCK + 7)))

            def watched():
                drawn = 0
                for keys, values in bucket.drain():
                    drawn += len(keys)
                    ahead.append(drawn - shuffler.records_sent)
                    yield from zip(keys, values)

            shuffler.emit_pairs(watched())
            shuffler.finish()
            return shuffler.records_sent

        sent = Cluster(COMET, nprocs=1, memory_limit=None).run(job).returns[0]
        assert sent == 4 * BLOCK + 7
        assert max(ahead) <= BLOCK
