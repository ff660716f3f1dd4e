"""Skew-tolerant folding: hot-key detection, correctness, balance."""

from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.core.skew import find_hot_keys, fold_by_key
from repro.io.readers import iter_text_chunks
from repro.mpi import COMET
from repro.obs import ImbalanceReport

CFG = MimirConfig(page_size=2048, comm_buffer_size=4096,
                  input_chunk_size=512)

#: 70 % of all occurrences are one word - brutal skew.
SKEWED = (b"hot " * 70 + b"c%02d " % 0 + b"".join(
    b"c%02d " % (i % 30) for i in range(29))) * 40
EXPECTED = Counter(SKEWED.split())


def wc_fold(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


def make_feed(env):
    def feed(emit):
        for chunk in iter_text_chunks(env, "t.txt", CFG.input_chunk_size):
            for word in chunk.split():
                emit(word, pack_u64(1))

    return feed


def run_skew_fold(nprocs=4, **kwargs):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("t.txt", SKEWED)

    def job(env):
        out = fold_by_key(env, CFG, make_feed(env), wc_fold, **kwargs)
        counts = {k: unpack_u64(v) for k, v in out.records()}
        kv_peak = env.tracker.peak
        out.free()
        return counts, kv_peak

    result = cluster.run(job)
    merged: Counter = Counter()
    for counts, _ in result.returns:
        for word, count in counts.items():
            assert word not in merged
            merged[word] = count
    peaks = [peak for _, peak in result.returns]
    return merged, peaks


class TestHotKeyDetection:
    def test_detects_dominant_key(self):
        cluster = Cluster(COMET, nprocs=3, memory_limit=None)

        def job(env):
            sample = [(b"hot", 700), (b"a", 10), (b"b", 12)]
            return find_hot_keys(env, sample, hot_fraction=0.05)

        result = cluster.run(job)
        assert all(hot == {b"hot"} for hot in result.returns)

    def test_all_ranks_agree(self):
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)

        def job(env):
            # Different per-rank samples, same global decision.
            sample = [(b"hot", 100 + env.comm.rank),
                      (b"r%d" % env.comm.rank, 5)]
            return sorted(find_hot_keys(env, sample, hot_fraction=0.2))

        result = cluster.run(job)
        assert len({tuple(part) for part in result.returns}) == 1

    def test_no_hot_keys_when_uniform(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)

        def job(env):
            sample = [(b"k%03d" % i, 1) for i in range(100)]
            return find_hot_keys(env, sample, hot_fraction=0.05)

        assert cluster.run(job).returns == [set(), set()]

    def test_empty_sample(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        assert cluster.run(
            lambda env: find_hot_keys(env, [])).returns == [set(), set()]

    def test_max_hot_caps_result(self):
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)

        def job(env):
            sample = [(b"h%d" % i, 100) for i in range(10)]
            return find_hot_keys(env, sample, max_hot=3, hot_fraction=0.01)

        assert len(cluster.run(job).returns[0]) == 3


class TestSkewTolerantFold:
    def test_counts_correct(self):
        merged, _ = run_skew_fold()
        assert merged == EXPECTED

    def test_counts_correct_with_explicit_hot_keys(self):
        merged, _ = run_skew_fold(hot_keys={b"hot"})
        assert merged == EXPECTED

    def test_no_hot_keys_still_correct(self):
        merged, _ = run_skew_fold(hot_keys=set())
        assert merged == EXPECTED

    def test_serial(self):
        merged, _ = run_skew_fold(nprocs=1)
        assert merged == EXPECTED

    def test_balances_peak_memory(self):
        # Plain partial-reduce pipeline: the hot word's owner rank
        # carries ~70 % of all records.
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)
        cluster.pfs.store("t.txt", SKEWED)

        def plain_job(env):
            mimir = Mimir(env, CFG)
            kvs = mimir.map_text_file(
                "t.txt", lambda ctx, chunk: [
                    ctx.emit(w, pack_u64(1)) for w in chunk.split()])
            out = mimir.partial_reduce(kvs, wc_fold)
            out.free()
            return env.tracker.peak

        plain_peaks = cluster.run(plain_job).returns
        _, salted_peaks = run_skew_fold(hot_keys={b"hot"})

        plain = ImbalanceReport.from_values(plain_peaks)
        salted = ImbalanceReport.from_values(salted_peaks)
        # Salting spreads the hot key: the straggler shrinks both in
        # absolute terms and relative to the mean.
        assert salted.maximum < plain.maximum
        assert salted.imbalance_factor < plain.imbalance_factor
