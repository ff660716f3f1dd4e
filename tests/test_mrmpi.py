"""MR-MPI baseline: correctness, page discipline, spill modes."""

import inspect
from collections import Counter

import pytest

from repro.apps.wordcount import wc_map_batch
from repro.cluster import Cluster
from repro.core import KVBatch, KVLayout, pack_u64, unpack_u64
from repro.mpi import COMET, RankFailedError
from repro.mrmpi import MRMPI, MRMPIConfig, OutOfCoreMode, PageOverflowError

TEXT = (b"apple banana cherry apple fig banana grape apple lime fig ") * 12
EXPECTED = Counter(TEXT.split())


def wc_map(ctx, chunk):
    one = pack_u64(1)
    for word in chunk.split():
        ctx.emit(word, one)


def wc_reduce(ctx, key, values):
    ctx.emit(key, pack_u64(sum(unpack_u64(v) for v in values)))


def wc_combine(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


def run_wc(nprocs, config, compress=False, allow_oom=False, text=TEXT):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("input.txt", text)

    def job(env):
        mr = MRMPI(env, config)
        mr.map_text_file("input.txt", wc_map)
        if compress:
            mr.compress(wc_combine)
        mr.aggregate()
        mr.convert()
        mr.reduce(wc_reduce)
        counts = {k: unpack_u64(v) for k, v in mr.collect()}
        stats = {"spilled": mr.any_spill,
                 "spilled_bytes": mr.total_spilled_bytes}
        mr.free()
        assert env.tracker.current == 0
        return counts, stats

    return cluster.run(job, allow_oom=allow_oom)


def merge(result):
    merged: Counter = Counter()
    for counts, _ in result.returns:
        for word, count in counts.items():
            assert word not in merged
            merged[word] = count
    return merged


BIG_PAGES = MRMPIConfig(page_size=64 * 1024, input_chunk_size=512)


class TestCorrectness:
    def test_serial(self):
        assert merge(run_wc(1, BIG_PAGES)) == EXPECTED

    def test_parallel(self):
        assert merge(run_wc(4, BIG_PAGES)) == EXPECTED

    def test_many_ranks(self):
        assert merge(run_wc(8, BIG_PAGES)) == EXPECTED

    def test_with_compress(self):
        assert merge(run_wc(4, BIG_PAGES, compress=True)) == EXPECTED

    def test_in_memory_no_spill(self):
        result = run_wc(4, BIG_PAGES)
        assert all(not stats["spilled"] for _, stats in result.returns)


class TestPageDiscipline:
    def test_peak_is_seven_pages_in_aggregate(self):
        config = MRMPIConfig(page_size=16 * 1024, input_chunk_size=512)
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("input.txt", TEXT)

        def job(env):
            mr = MRMPI(env, config)
            mr.map_text_file("input.txt", wc_map)
            after_map = env.tracker.peak
            mr.aggregate()
            after_agg = env.tracker.peak
            mr.convert()
            mr.reduce(wc_reduce)
            mr.free()
            return after_map, after_agg, env.tracker.peak

        result = cluster.run(job)
        for after_map, after_agg, final in result.returns:
            assert after_map == 1 * config.page_size
            assert after_agg == 7 * config.page_size
            assert final == 7 * config.page_size  # aggregate dominates

    def test_memory_flat_regardless_of_data(self):
        config = MRMPIConfig(page_size=32 * 1024, input_chunk_size=512)
        small = run_wc(2, config, text=TEXT)
        large = run_wc(2, config, text=TEXT * 4)
        # Fixed page complement: peak identical for 4x the data.
        assert small.peak_bytes == large.peak_bytes


class TestSpillModes:
    TINY = MRMPIConfig(page_size=512, input_chunk_size=256)

    def test_when_full_spills_and_stays_correct(self):
        result = run_wc(2, self.TINY)
        assert merge(result) == EXPECTED
        assert any(stats["spilled"] for _, stats in result.returns)
        assert sum(s["spilled_bytes"] for _, s in result.returns) > 0

    def test_spill_charges_time(self):
        fast = run_wc(2, BIG_PAGES)
        slow = run_wc(2, self.TINY)
        assert slow.elapsed > fast.elapsed

    def test_error_mode_raises(self):
        config = MRMPIConfig(page_size=512, mode=OutOfCoreMode.ERROR,
                             input_chunk_size=256)
        with pytest.raises(RankFailedError) as exc_info:
            run_wc(2, config)
        assert isinstance(exc_info.value.original, PageOverflowError)

    def test_error_mode_ok_when_fits(self):
        config = MRMPIConfig(page_size=64 * 1024, mode=OutOfCoreMode.ERROR,
                             input_chunk_size=512)
        assert merge(run_wc(2, config)) == EXPECTED

    def test_always_mode_spills_even_when_fits(self):
        config = MRMPIConfig(page_size=64 * 1024, mode=OutOfCoreMode.ALWAYS,
                             input_chunk_size=512)
        result = run_wc(2, config)
        assert merge(result) == EXPECTED
        assert all(stats["spilled"] for _, stats in result.returns)


class TestCompress:
    def test_compress_shrinks_shuffled_data_not_memory(self):
        config = MRMPIConfig(page_size=32 * 1024, input_chunk_size=512)

        def run(compress):
            cluster = Cluster(COMET, nprocs=2, memory_limit=None)
            cluster.pfs.store("input.txt", TEXT)

            def job(env):
                mr = MRMPI(env, config)
                mr.map_text_file("input.txt", wc_map)
                if compress:
                    mr.compress(wc_combine)
                pre_shuffle_bytes = mr.kv.nbytes
                mr.aggregate()
                mr.convert()
                mr.reduce(wc_reduce)
                mr.free()
                return pre_shuffle_bytes

            result = cluster.run(job)
            return sum(result.returns), result.node_peak_bytes

        plain_shuffled, plain_peak = run(False)
        cps_shuffled, cps_peak = run(True)
        assert cps_shuffled < plain_shuffled
        assert cps_peak >= plain_peak  # fixed pages: no memory win


class TestLifecycle:
    def test_map_twice_without_consume_rejected(self):
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)
        cluster.pfs.store("input.txt", b"a b c")

        def job(env):
            mr = MRMPI(env, BIG_PAGES)
            mr.map_text_file("input.txt", wc_map)
            with pytest.raises(RuntimeError):
                mr.map_text_file("input.txt", wc_map)
            mr.free()

        cluster.run(job)

    def test_phase_order_enforced(self):
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)

        def job(env):
            mr = MRMPI(env, BIG_PAGES)
            with pytest.raises(RuntimeError):
                mr.aggregate()
            with pytest.raises(RuntimeError):
                mr.convert()
            with pytest.raises(RuntimeError):
                mr.reduce(wc_reduce)

        cluster.run(job)

    def test_collect_empty_when_no_kv(self):
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)
        cluster.run(lambda env: MRMPI(env, BIG_PAGES).collect() == [])


def emit_pairs_map(ctx, chunk):
    ctx.emit_pairs((word, pack_u64(1)) for word in chunk.split())


def emit_batch_map(ctx, chunk):
    words = chunk.split()
    layout = KVLayout()
    ctx.emit_batch(KVBatch(
        b"".join(layout.encode_run(words, [pack_u64(1)] * len(words))),
        layout))


class TestEmitForms:
    """Map callbacks get core's ``MapContext``: every emit verb appends
    the same records, so the pages, the spill and the clock are those of
    one ``ctx.emit`` per record."""

    CONFIG = MRMPIConfig(page_size=512, input_chunk_size=256)

    def run(self, map_fn):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("input.txt", TEXT)

        def job(env):
            mr = MRMPI(env, self.CONFIG)
            mr.map_text_file("input.txt", map_fn)
            pages = list(mr.kv.chunks())
            spilled = mr.kv.spilled_bytes
            mr.free()
            return pages, spilled

        result = cluster.run(job)
        return result.returns, float.hex(result.elapsed)

    @pytest.mark.parametrize("map_fn", [wc_map_batch, emit_pairs_map,
                                        emit_batch_map])
    def test_same_pages_spill_and_time_as_emit(self, map_fn):
        expected = self.run(wc_map)
        assert any(spilled for _, spilled in expected[0])
        assert self.run(map_fn) == expected


class TestSurface:
    """The baseline keeps the phases the paper's comparisons run
    (WordCount, octree clustering and BFS): none of the C++ library's
    other calls."""

    PHASES = {"map_text_file", "map_binary_file", "map_items", "compress",
              "aggregate", "convert", "reduce", "collect", "free"}
    GONE = ("map_kvs", "add", "add_kv", "collate", "scan", "scan_kmv",
            "gather", "broadcast_kvs", "sort_keys", "sort_values", "_sort")

    def test_public_methods_are_the_compared_phases(self):
        public = {name for name, _ in inspect.getmembers(
            MRMPI, inspect.isfunction) if not name.startswith("_")}
        assert public == self.PHASES

    @pytest.mark.parametrize("name", GONE)
    def test_extended_api_is_gone(self, name):
        assert not hasattr(MRMPI, name)
