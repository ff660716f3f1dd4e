"""KV compression combiner: the paper's unbounded, fully delayed bucket."""

from collections import Counter

import pytest

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


class TestConfigValidation:
    def test_default_is_paper_behaviour(self):
        """The paper's unbounded bucket is the only one: no budget."""
        with pytest.raises(TypeError):
            MimirConfig(combiner_bucket_budget="1K")
