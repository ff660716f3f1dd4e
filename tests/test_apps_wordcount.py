"""WordCount app: Mimir and MR-MPI agree with each other and the truth."""

import struct
from collections import Counter

import numpy as np
import pytest

from repro.apps.wordcount import (
    WC_HINT_LAYOUT,
    wc_combine,
    wc_fold_batch,
    wc_reduce,
    wc_reduce_batch,
    wordcount_mimir,
    wordcount_mrmpi,
)
from repro.cluster import Cluster
from repro.core import KVContainer, MimirConfig, ReduceContext, pack_u64, \
    unpack_u64
from repro.core.batch import KMVBatch
from repro.memory import MemoryTracker
from repro.datasets import uniform_text, zipf_text
from repro.mpi import COMET
from repro.mrmpi import MRMPIConfig

MIMIR_CFG = MimirConfig(page_size=4096, comm_buffer_size=4096,
                        input_chunk_size=2048)
MRMPI_CFG = MRMPIConfig(page_size=64 * 1024, input_chunk_size=2048)


def cluster_with_text(text, nprocs=4):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("wc.txt", text)
    return cluster


@pytest.fixture(scope="module")
def corpus():
    return uniform_text(20_000, vocab_size=300, seed=11)


class TestAgainstGroundTruth:
    def run_and_merge(self, text, runner, nprocs=4, **kwargs):
        cluster = cluster_with_text(text, nprocs)
        result = cluster.run(
            lambda env: runner(env, "wc.txt", collect=True, **kwargs))
        merged: Counter = Counter()
        for part in result.returns:
            for word, count in part.counts.items():
                assert word not in merged
                merged[word] = count
        return merged, result

    def test_mimir_matches_truth(self, corpus):
        merged, _ = self.run_and_merge(corpus, wordcount_mimir,
                                       config=MIMIR_CFG)
        assert merged == Counter(corpus.split())

    def test_mrmpi_matches_truth(self, corpus):
        merged, _ = self.run_and_merge(corpus, wordcount_mrmpi,
                                       config=MRMPI_CFG)
        assert merged == Counter(corpus.split())

    @pytest.mark.parametrize("opts", [
        {"hint": True},
        {"compress": True},
        {"partial": True},
        {"hint": True, "compress": True, "partial": True},
    ])
    def test_mimir_optimizations_preserve_answer(self, corpus, opts):
        merged, _ = self.run_and_merge(corpus, wordcount_mimir,
                                       config=MIMIR_CFG, **opts)
        assert merged == Counter(corpus.split())

    def test_mrmpi_compress_preserves_answer(self, corpus):
        merged, _ = self.run_and_merge(corpus, wordcount_mrmpi,
                                       config=MRMPI_CFG, compress=True)
        assert merged == Counter(corpus.split())

    def test_zipf_corpus(self):
        text = zipf_text(15_000, vocab_size=500, seed=3)
        mimir_counts, _ = self.run_and_merge(text, wordcount_mimir,
                                             config=MIMIR_CFG)
        mrmpi_counts, _ = self.run_and_merge(text, wordcount_mrmpi,
                                             config=MRMPI_CFG)
        assert mimir_counts == mrmpi_counts == Counter(text.split())


class TestSummaries:
    def test_totals_sum_across_ranks(self, corpus):
        cluster = cluster_with_text(corpus)
        result = cluster.run(
            lambda env: wordcount_mimir(env, "wc.txt", MIMIR_CFG))
        total = sum(r.total_words for r in result.returns)
        unique = sum(r.unique_words for r in result.returns)
        truth = Counter(corpus.split())
        assert total == sum(truth.values())
        assert unique == len(truth)

    def test_counts_omitted_unless_requested(self, corpus):
        cluster = cluster_with_text(corpus, nprocs=2)
        result = cluster.run(
            lambda env: wordcount_mimir(env, "wc.txt", MIMIR_CFG))
        assert all(r.counts is None for r in result.returns)


class TestMemoryShape:
    """The paper's qualitative single-node memory relations."""

    def test_mimir_uses_less_memory_than_mrmpi(self, corpus):
        cluster = cluster_with_text(corpus)
        mimir = cluster.run(
            lambda env: wordcount_mimir(env, "wc.txt", MIMIR_CFG))
        cluster2 = cluster_with_text(corpus)
        mrmpi = cluster2.run(
            lambda env: wordcount_mrmpi(env, "wc.txt", MRMPI_CFG))
        # Paper: at least 25% less for in-memory datasets.
        assert mimir.node_peak_bytes < 0.75 * mrmpi.node_peak_bytes

    def test_hint_layout_shape(self):
        # WordCount's hint: NUL-terminated key + fixed 8-byte value.
        assert WC_HINT_LAYOUT.header_size == 0
        assert WC_HINT_LAYOUT.encoded_size(b"hello", b"x" * 8) == 5 + 1 + 8


class TestCountOverflow:
    """A count past 2**64 raises ``pack_u64``'s ``struct.error`` in the
    batch kernels as in the per-record ones; a sum that fits is exact."""

    def reduce(self, kernel, counts):
        out = KVContainer(MemoryTracker(), WC_HINT_LAYOUT)
        data = b"".join(map(pack_u64, counts))
        voff = np.arange(0, len(data), 8)
        kmv = KMVBatch(WC_HINT_LAYOUT, [b"k"], np.array([len(counts)]),
                       voff, voff + 8, data)
        ctx = ReduceContext(out)
        if kernel is wc_reduce:
            kernel(ctx, b"k", list(kmv)[0][1])
            ctx._flush()    # what the driver does after the last group
        else:
            kernel(ctx, kmv)
        return [unpack_u64(value) for _, value in out.records()]

    @pytest.mark.parametrize("kernel", [wc_reduce, wc_reduce_batch])
    def test_reduce_past_u64_raises(self, kernel):
        with pytest.raises(struct.error, match="argument out of range"):
            self.reduce(kernel, [2**63, 2**63])

    @pytest.mark.parametrize("kernel", [wc_reduce, wc_reduce_batch])
    def test_reduce_to_the_largest_u64_is_exact(self, kernel):
        assert self.reduce(kernel, [2**63, 2**63 - 1]) == [2**64 - 1]
        assert self.reduce(kernel, [1] * 600) == [600]

    def test_fold_past_u64_raises_and_leaves_the_slots(self):
        with pytest.raises(struct.error, match="argument out of range"):
            wc_combine(b"k", pack_u64(2**63), pack_u64(2**63))
        acc = np.array([[2**63, 5]], "<u8").view(np.uint8).reshape(2, 8)
        before = acc.copy()
        rows = np.array([1, 2**63], "<u8").view(np.uint8).reshape(2, 8)
        with pytest.raises(struct.error, match="argument out of range"):
            wc_fold_batch(acc, np.array([1, 0]), rows)
        assert (acc == before).all()

    def test_fold_to_the_largest_u64_is_exact(self):
        acc = np.array([[2**63, 5]], "<u8").view(np.uint8).reshape(2, 8)
        rows = np.array([2**63 - 1, 1, 1], "<u8").view(np.uint8).reshape(3, 8)
        wc_fold_batch(acc, np.array([0, 1, 1]), rows)
        assert acc.view("<u8")[:, 0].tolist() == [2**64 - 1, 7]
