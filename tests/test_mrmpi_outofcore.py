"""MR-MPI out-of-core paths: spilled convert, oversized records, I/O cost."""

from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.core import pack_u64, unpack_u64
from repro.mpi import COMET
from repro.mrmpi import MRMPI, MRMPIConfig, OutOfCoreMode

TEXT = (b"red green blue red yellow red green purple red orange ") * 50
EXPECTED = Counter(TEXT.split())


def wc_map(ctx, chunk):
    one = pack_u64(1)
    for word in chunk.split():
        ctx.emit(word, one)


def wc_reduce(ctx, key, values):
    ctx.emit(key, pack_u64(sum(unpack_u64(v) for v in values)))


def run_job(config, nprocs=2, text=TEXT):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("in.txt", text)

    def job(env):
        mr = MRMPI(env, config)
        mr.map_text_file("in.txt", wc_map)
        mr.aggregate()
        kv_spilled = env.pfs.spilled_bytes
        mr.convert()
        mr.reduce(wc_reduce)
        counts = {k: unpack_u64(v) for k, v in mr.collect()}
        mr.free()
        return counts, kv_spilled

    result = cluster.run(job)
    merged: Counter = Counter()
    for counts, _ in result.returns:
        merged.update(counts)
    return merged, result, cluster


class TestOutOfCoreConvert:
    TINY = MRMPIConfig(page_size=256, input_chunk_size=128)

    def test_spilled_convert_is_correct(self):
        merged, result, _ = run_job(self.TINY)
        assert merged == EXPECTED
        assert result.spilled_bytes > 0

    def test_partition_respill_adds_io(self):
        # Out-of-core convert re-partitions the KV data through the
        # PFS: spill traffic exceeds the raw KV volume several-fold.
        _, result, cluster = run_job(self.TINY)
        kv_volume = sum(len(w) + 16 for w in TEXT.split())
        assert cluster.pfs.spilled_bytes > 1.5 * kv_volume

    def test_out_of_core_much_slower(self):
        _, fast, _ = run_job(MRMPIConfig(page_size=64 * 1024,
                                         input_chunk_size=512))
        _, slow, _ = run_job(self.TINY)
        assert slow.elapsed > 5 * fast.elapsed

    def test_memory_still_bounded_by_pages(self):
        # Even fully out-of-core, the page complement bounds memory.
        _, result, _ = run_job(self.TINY)
        assert result.max_rank_peak_bytes == 7 * 256


class TestOversizedRecords:
    def test_record_larger_than_page_spills_through(self):
        config = MRMPIConfig(page_size=64, input_chunk_size=64)
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)

        def job(env):
            mr = MRMPI(env, config)
            big_value = b"v" * 100  # record > page
            mr.map_items([1, 2, 3],
                         lambda ctx, i: ctx.emit(b"k%d" % i, big_value))
            records = mr.collect()
            spilled = mr.kv.spilled
            mr.free()
            return records, spilled

        result = cluster.run(job)
        records, spilled = result.returns[0]
        assert spilled
        assert [k for k, _ in records] == [b"k1", b"k2", b"k3"]
        assert all(v == b"v" * 100 for _, v in records)

    def test_oversized_record_error_mode(self):
        from repro.mpi import RankFailedError
        from repro.mrmpi import PageOverflowError

        config = MRMPIConfig(page_size=64, mode=OutOfCoreMode.ERROR)
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)

        def job(env):
            mr = MRMPI(env, config)
            mr.map_items([1], lambda ctx, i: ctx.emit(b"k", b"v" * 100))

        with pytest.raises(RankFailedError) as exc_info:
            cluster.run(job)
        assert isinstance(exc_info.value.original, PageOverflowError)

    def test_order_preserved_across_spills(self):
        config = MRMPIConfig(page_size=128, input_chunk_size=64)
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)

        def job(env):
            mr = MRMPI(env, config)
            mr.map_items(range(50),
                         lambda ctx, i: ctx.emit(b"%04d" % i, b"x" * 10))
            keys = [k for k, _ in mr.collect()]
            mr.free()
            return keys

        result = cluster.run(job)
        assert result.returns[0] == [b"%04d" % i for i in range(50)]


class TestSkewedConvert:
    def test_one_hot_key_dominating(self):
        # One key holds 90 % of the values; its KMV exceeds any page.
        config = MRMPIConfig(page_size=512, input_chunk_size=256)
        hot_text = b" ".join([b"hot"] * 450 + [b"cold%03d" % i
                                               for i in range(50)])
        merged, result, _ = run_job(config, nprocs=4, text=hot_text)
        assert merged[b"hot"] == 450
        assert sum(merged.values()) == 500


class TestOversizedAggregate:
    """A record larger than a page can never be sent in one round: the
    rank that holds it fails before the first round (this used to loop
    forever, every round sending nothing)."""

    @pytest.mark.parametrize("move", ["aggregate"])
    def test_record_larger_than_page_fails_fast(self, move):
        from repro.mpi import RankFailedError
        from repro.mrmpi import PageOverflowError

        config = MRMPIConfig(page_size=256, input_chunk_size=128)
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)

        def job(env):
            mr = MRMPI(env, config)
            mr.map_items([1] if env.comm.rank == 1 else [],
                         lambda ctx, i: ctx.emit(b"k", b"v" * 300))
            getattr(mr, move)()

        with pytest.raises(RankFailedError) as exc_info:
            cluster.run(job)
        error = exc_info.value.original
        assert exc_info.value.rank == 1
        assert isinstance(error, PageOverflowError)
        assert error.page_size == 256
        assert "309 bytes" in str(error) and "(256 bytes)" in str(error)
