"""KV compression combiner: paper behaviour and bounded-bucket extension."""

from collections import Counter

from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.mpi import COMET

TEXT = (b"alpha beta gamma alpha beta alpha delta epsilon beta alpha ") * 40
EXPECTED = Counter(TEXT.split())


def wc_map(ctx, chunk):
    one = pack_u64(1)
    for word in chunk.split():
        ctx.emit(word, one)


def wc_combine(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


def run_wc(config, nprocs=4):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("t.txt", TEXT)

    def job(env):
        mimir = Mimir(env, config)
        kvs = mimir.map_text_file("t.txt", wc_map, combine_fn=wc_combine)
        stats = dict(mimir.last_map_stats)
        out = mimir.partial_reduce(kvs, wc_combine)
        counts = {k: unpack_u64(v) for k, v in out.records()}
        out.free()
        return counts, stats

    result = cluster.run(job)
    merged: Counter = Counter()
    for counts, _ in result.returns:
        merged.update(counts)
    return merged, result


BASE = MimirConfig(page_size=2048, comm_buffer_size=2048,
                   input_chunk_size=512)


class TestUnboundedCombiner:
    def test_correct_counts(self):
        merged, _ = run_wc(BASE)
        assert merged == EXPECTED

    def test_compression_shrinks_shuffle(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("t.txt", TEXT)

        def job(env, combine):
            mimir = Mimir(env, BASE)
            kvs = mimir.map_text_file(
                "t.txt", wc_map, combine_fn=wc_combine if combine else None)
            kvs.free()
            return mimir.last_map_stats["kv_bytes"]

        plain = sum(cluster.run(job, False).returns)
        cluster2 = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster2.pfs.store("t.txt", TEXT)
        compressed = sum(cluster2.run(job, True).returns)
        # 5 unique words, 400 occurrences: massive local compression.
        assert compressed < plain / 10


class TestBoundedBucket:
    BOUNDED = MimirConfig(page_size=2048, comm_buffer_size=2048,
                          input_chunk_size=512,
                          combiner_bucket_budget=256)

    def test_correct_counts_with_partial_flushes(self):
        merged, _ = run_wc(self.BOUNDED)
        assert merged == EXPECTED

    def test_bucket_memory_bounded(self):
        # With a large corpus of unique-ish keys the unbounded bucket
        # grows with the data; the bounded one caps near the budget.
        words = b" ".join(b"w%05d" % i for i in range(3000))
        budget = 1024

        def peak(config):
            cluster = Cluster(COMET, nprocs=2, memory_limit=None)
            cluster.pfs.store("u.txt", words)

            def job(env):
                mimir = Mimir(env, config)
                kvs = mimir.map_text_file("u.txt", wc_map,
                                          combine_fn=wc_combine)
                kvs.free()
                return max(s.current for s in [env.tracker]) and \
                    env.tracker.peak

            result = cluster.run(job)
            return result.node_peak_bytes

        unbounded = peak(MimirConfig(page_size=2048, comm_buffer_size=2048,
                                     input_chunk_size=512))
        bounded = peak(MimirConfig(page_size=2048, comm_buffer_size=2048,
                                   input_chunk_size=512,
                                   combiner_bucket_budget=budget))
        assert bounded < unbounded

    def test_flush_counter_reported(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        words = b" ".join(b"w%05d" % i for i in range(1000))
        cluster.pfs.store("u.txt", words)

        from repro.core.combiner import Combiner
        from repro.core.kvcontainer import KVContainer
        from repro.core.shuffle import Shuffler

        def job(env):
            config = self.BOUNDED
            out = KVContainer(env.tracker, config.layout, config.page_size)
            shuffler = Shuffler(env, config, out)
            combiner = Combiner(env, config, wc_combine, shuffler)
            for i in range(500):
                combiner.emit_block([b"key%04d" % (i + 500 * env.comm.rank)],
                                    [pack_u64(1)])
            combiner.finish()
            return combiner.partial_flushes

        result = cluster.run(job)
        assert all(f > 0 for f in result.returns)


class TestConfigValidation:
    def test_budget_parse_string(self):
        config = MimirConfig(combiner_bucket_budget="1K")
        assert config.combiner_bucket_budget == 1024

    def test_budget_rejects_nonpositive(self):
        import pytest

        from repro.core import ConfigError

        with pytest.raises(ConfigError):
            MimirConfig(combiner_bucket_budget=0)

    def test_default_is_paper_behaviour(self):
        assert MimirConfig().combiner_bucket_budget is None
