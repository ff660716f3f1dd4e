"""Inverted index and the reduce-side equi-join (``Plan.join``)."""

import pytest

from repro.apps.inverted_index import (
    inverted_index_plan,
    merge_postings,
    pack_postings,
    unpack_postings,
)
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.mpi import COMET, RankFailedError
from repro.sched import Plan, PlanRunner

CFG = MimirConfig(page_size=4096, comm_buffer_size=4096,
                  input_chunk_size=512)

DOCS = {
    "docs/a.txt": b"the cat sat on the mat",
    "docs/b.txt": b"the dog chased the cat",
    "docs/c.txt": b"a bird watched the dog and the cat",
    "docs/d.txt": b"mat and bird and dog",
    "docs/e.txt": b"quiet afternoon",
}


def brute_force_index():
    paths = sorted(DOCS)
    expected: dict[bytes, list[int]] = {}
    for doc_id, path in enumerate(paths):
        for word in set(DOCS[path].split()):
            expected.setdefault(word, []).append(doc_id)
    return {w: sorted(ids) for w, ids in expected.items()}


def run_index(nprocs=3, **kwargs):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    for path, data in DOCS.items():
        cluster.pfs.store(path, data)
    result = cluster.run(
        lambda env: inverted_index_plan(env, "docs/", CFG, **kwargs))
    merged: dict[bytes, list[int]] = {}
    for part in result.returns:
        for word, postings in part.index.items():
            assert word not in merged
            merged[word] = postings
    return merged, result.returns[0].documents


class TestInvertedIndex:
    def test_matches_brute_force(self):
        merged, _ = run_index()
        assert merged == brute_force_index()

    def test_doc_table_consistent(self):
        _, documents = run_index()
        assert sorted(documents.values()) == sorted(DOCS)

    def test_with_compression(self):
        merged, _ = run_index(compress=True)
        assert merged == brute_force_index()

    def test_serial_equals_parallel(self):
        serial, _ = run_index(nprocs=1)
        parallel, _ = run_index(nprocs=6)
        assert serial == parallel

    def test_postings_sorted_unique(self):
        merged, _ = run_index()
        for postings in merged.values():
            assert postings == sorted(set(postings))

    def test_empty_prefix_raises(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        with pytest.raises(RankFailedError):
            cluster.run(lambda env: inverted_index_plan(env, "none/", CFG))

    def test_postings_codec(self):
        ids = [0, 3, 17, 2 ** 31]
        assert unpack_postings(pack_postings(ids)) == ids
        merged = merge_postings(b"w", pack_postings([1, 3]),
                                pack_postings([2, 3]))
        assert unpack_postings(merged) == [1, 2, 3]


LEFT = [(b"k1", b"a1"), (b"k2", b"a2"), (b"k2", b"a3"), (b"k4", b"a4")]
RIGHT = [(b"k1", b"b1"), (b"k2", b"b2"), (b"k3", b"b3"), (b"k1", b"b4")]


def brute_force_join(left=LEFT, right=RIGHT):
    rows = []
    for lk, lv in left:
        for rk, rv in right:
            if lk == rk:
                rows.append((lk, lv, rv))
    return sorted(rows)


def emit_row(ctx, row):
    ctx.emit(*row)


def pair_rows(ctx, key, lvals, rvals):
    """Emit every (left, right) pairing, the left payload length-prefixed."""
    for lv in lvals:
        for rv in rvals:
            ctx.emit(key, bytes([len(lv)]) + lv + rv)


class TestJoin:
    def run_join(self, nprocs=3, left=LEFT, right=RIGHT):
        cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)

        def job(env):
            rank, size = env.comm.rank, env.comm.size
            plan = Plan("join", CFG)
            lhs = plan.source(left[rank::size]).map(emit_row)
            rhs = plan.source(right[rank::size]).map(emit_row)
            return PlanRunner(env, plan).collect(lhs.join(rhs, pair_rows))

        result = cluster.run(job)
        return sorted((key, value[1:1 + value[0]], value[1 + value[0]:])
                      for part in result.returns for key, value in part)

    def test_matches_brute_force(self):
        assert self.run_join() == brute_force_join()

    def test_serial_equals_parallel(self):
        assert self.run_join(nprocs=1) == self.run_join(nprocs=5)

    def test_unmatched_keys_dropped(self):
        rows = self.run_join()
        keys = {k for k, _, _ in rows}
        assert b"k3" not in keys  # right-only
        assert b"k4" not in keys  # left-only

    def test_many_to_many(self):
        rows = self.run_join()
        k2_rows = [r for r in rows if r[0] == b"k2"]
        assert len(k2_rows) == 2  # two lefts x one right
        k1_rows = [r for r in rows if r[0] == b"k1"]
        assert len(k1_rows) == 2  # one left x two rights

    def test_tagging_roundtrip(self):
        """Payloads that look like the side tags, and empty ones, come
        through the co-group untouched and on the right side."""
        left = [(b"k", b"L"), (b"k", b"R"), (b"k", b""), (b"j", b"Rx")]
        right = [(b"k", b"LL"), (b"k", b""), (b"j", b"")]
        assert self.run_join(2, left, right) == brute_force_join(left, right)
