"""Out-of-core Mimir: spill-backed KV containers."""

from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.core.kvcontainer import KVContainer
from repro.memory import MemoryLimitExceeded, MemoryTracker
from repro.mpi import COMET, RankFailedError

TEXT = (b"maple birch cedar maple alder birch maple spruce cedar pine ") * 60
EXPECTED = Counter(TEXT.split())


def wc_map(ctx, chunk):
    one = pack_u64(1)
    for word in chunk.split():
        ctx.emit(word, one)


def wc_combine(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


class TestSpillBackedKVC:
    def make_env(self, limit=None):
        cluster = Cluster(COMET, nprocs=1, memory_limit=limit)
        envs = []
        cluster.run(lambda env: envs.append(env))
        return envs[0], cluster

    def test_budget_spills_oldest_pages(self):
        env, _ = self.make_env()
        kvc = KVContainer(env.tracker, page_size=128, tag="t",
                          spill_env=env, resident_page_budget=2)
        pairs = [(b"key%03d" % i, b"val%03d" % i) for i in range(40)]
        for k, v in pairs:
            kvc.add(k, v)
        assert kvc.npages <= 2
        assert kvc.spilled
        assert kvc.spilled_bytes > 0
        # Order preserved: spilled prefix, then resident suffix.
        assert list(kvc.records()) == pairs
        assert list(kvc.consume()) == pairs
        assert env.tracker.current == 0

    def test_memory_limit_triggers_spill(self):
        env, cluster = self.make_env(limit=1024)
        kvc = KVContainer(env.tracker, page_size=256, tag="t",
                          spill_env=env)
        for i in range(60):
            kvc.add(b"k%04d" % i, b"x" * 20)
        # Never exceeded the limit...
        assert env.tracker.peak <= 1024
        # ...by spilling the overflow.
        assert kvc.spilled
        assert len(list(kvc.records())) == 60
        kvc.free()
        assert not cluster.pfs.listdir("spill/")

    def test_without_spill_env_raises(self):
        tracker = MemoryTracker(limit=512)
        kvc = KVContainer(tracker, page_size=256, tag="t")
        with pytest.raises(MemoryLimitExceeded):
            for i in range(60):
                kvc.add(b"k%04d" % i, b"x" * 20)

    def test_records_readable_twice_before_consume(self):
        env, _ = self.make_env()
        kvc = KVContainer(env.tracker, page_size=128, tag="t",
                          spill_env=env, resident_page_budget=1)
        for i in range(20):
            kvc.add(b"%02d" % i, b"v")
        first = list(kvc.records())
        second = list(kvc.records())
        assert first == second
        kvc.free()

    def test_spill_charges_io_time(self):
        env, _ = self.make_env()
        t0 = env.comm.clock.time
        kvc = KVContainer(env.tracker, page_size=128, tag="t",
                          spill_env=env, resident_page_budget=1)
        for i in range(30):
            kvc.add(b"k%03d" % i, b"y" * 16)
        assert env.comm.clock.time > t0
        kvc.free()


class TestOutOfCoreJobs:
    #: A budget too small for the in-memory job, enough for ooc.
    LIMIT = 24 * 1024

    def run_wc(self, out_of_core, partial=True, nprocs=4):
        config = MimirConfig(page_size=2048, comm_buffer_size=4096,
                             input_chunk_size=512, out_of_core=out_of_core)
        cluster = Cluster(COMET, nprocs=nprocs, memory_limit=self.LIMIT)
        cluster.pfs.store("t.txt", TEXT * 4)

        def job(env):
            mimir = Mimir(env, config)
            kvs = mimir.map_text_file("t.txt", wc_map)
            out = mimir.partial_reduce(kvs, wc_combine)
            counts = {k: unpack_u64(v) for k, v in out.records()}
            out.free()
            return counts

        return cluster.run(job, allow_oom=True)

    def test_in_memory_job_ooms_at_this_budget(self):
        result = self.run_wc(out_of_core=False)
        assert result.ran_out_of_memory

    def test_out_of_core_job_completes_correctly(self):
        result = self.run_wc(out_of_core=True)
        assert not result.ran_out_of_memory
        merged: Counter = Counter()
        for part in result.returns:
            merged.update(part)
        expected = Counter()
        for word, count in EXPECTED.items():
            expected[word] = count * 4
        assert merged == expected
        assert result.spilled_bytes > 0

    def test_out_of_core_respects_budget(self):
        result = self.run_wc(out_of_core=True)
        assert result.max_rank_peak_bytes <= self.LIMIT

    def test_out_of_core_costs_time(self):
        # Same job with an ample budget: no spill, faster.
        config = MimirConfig(page_size=2048, comm_buffer_size=4096,
                             input_chunk_size=512)
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)
        cluster.pfs.store("t.txt", TEXT * 4)

        def job(env):
            mimir = Mimir(env, config)
            kvs = mimir.map_text_file("t.txt", wc_map)
            out = mimir.partial_reduce(kvs, wc_combine)
            out.free()

        fast = cluster.run(job)
        slow = self.run_wc(out_of_core=True)
        assert slow.elapsed > fast.elapsed


class TestOutOfCoreStages:
    """Every stage fills a container the job made, so under
    ``out_of_core`` its output spills like the map's does.  The probe of
    ISSUE 24 (1 MiB of zipf text over 200 words, 16K pages, a "500K"
    limit, 2 ranks) at a quarter of every size."""

    PAGE = 4 * 1024
    LIMIT = "125K"

    def run_stage(self, op, *, out_of_core):
        from repro.datasets.words import zipf_text

        config = MimirConfig(page_size=self.PAGE, comm_buffer_size=self.PAGE,
                             input_chunk_size=self.PAGE,
                             out_of_core=out_of_core)
        cluster = Cluster(COMET, nprocs=2,
                          memory_limit=self.LIMIT if out_of_core else None)
        cluster.pfs.store("t.txt", zipf_text(256 * 1024, vocab_size=200))

        def job(env):
            mimir = Mimir(env, config)
            kvs = mimir.map_text_file("t.txt", wc_map)
            if op == "reduce":
                out = mimir.reduce(
                    kvs, lambda ctx, k, vs: ctx.emit(k, pack_u64(len(vs))))
            elif op == "partial_reduce":
                out = mimir.partial_reduce(kvs, wc_combine)
            else:
                out = getattr(mimir, op)(kvs)
            records = list(out.records())
            out.free()
            # Out-of-core grouping visits keys partition by partition.
            return records if "sort" in op else sorted(records)

        return cluster.run(job, allow_oom=True)

    @pytest.mark.parametrize("op", [
        "reduce", "partial_reduce", "sort_local", "global_sort"])
    def test_stage_completes_below_its_output_size(self, op):
        spilled = self.run_stage(op, out_of_core=True)
        assert not spilled.ran_out_of_memory
        assert spilled.spilled_bytes > 0
        assert spilled.returns == \
            self.run_stage(op, out_of_core=False).returns


@pytest.mark.parametrize("codec", ["dedup+zlib"])
def test_codec_map_spills_under_a_limit(codec):
    """A map output frozen under a codec makes room before it charges a
    frame (16 KiB of zipf text, 2 ranks, 256 B pages and buffers, a
    "3K" limit: without a codec the map holds; with one, charging the
    frame first ran out of memory).  The counts match the raw map's."""
    from repro.datasets.words import zipf_text

    def run(codec, limit):
        config = MimirConfig(page_size=256, comm_buffer_size=256,
                             input_chunk_size=256, out_of_core=True,
                             codec=codec)
        cluster = Cluster(COMET, nprocs=2, memory_limit=limit)
        cluster.pfs.store("t.txt", zipf_text(16 * 1024, vocab_size=200))

        def job(env):
            kvs = Mimir(env, config).map_text_file("t.txt", wc_map)
            return Counter(key for key, _ in kvs.records()), \
                kvs.spilled_bytes, env.tracker.peak

        return cluster.run(job).returns

    frozen = run(codec, "3K")
    assert all(peak <= 3 * 1024 and spilled > 0
               for _, spilled, peak in frozen)
    assert [counts for counts, _, _ in frozen] == \
        [counts for counts, _, _ in run(None, None)]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "one group is larger than the limit: on rank 1 the key 'fmigx' holds "
    "400 of 1,576 words, about 5.2 KB of partition payload, and the "
    "convert charges a partition whole ('convert_partition', 5.1K), so no "
    "partition count fits it under 3K (nor 4K or 6K; 8K completes). "
    "Grouping that streams a group would make this pass."))
def test_a_group_larger_than_memory_reduces_out_of_core():
    """The 3K shape of the codec test above, without a codec, mapped and
    then reduced."""
    from repro.datasets.words import zipf_text

    config = MimirConfig(page_size=256, comm_buffer_size=256,
                         input_chunk_size=256, out_of_core=True)
    text = zipf_text(16 * 1024, vocab_size=200)

    def job(env):
        mimir = Mimir(env, config)
        out = mimir.reduce(mimir.map_text_file("t.txt", wc_map),
                           lambda ctx, k, vs: ctx.emit(k, pack_u64(len(vs))))
        return {key: unpack_u64(value) for key, value in out.records()}

    cluster = Cluster(COMET, nprocs=2, memory_limit="3K")
    cluster.pfs.store("t.txt", text)
    result = cluster.run(job, allow_oom=True)
    assert result.oom is None, result.oom
    counts = {}
    for part in result.returns:
        counts.update(part)
    assert counts == Counter(text.split())


def reversed_value(key, value):
    return value[::-1]


class TestOutOfCoreSorts:
    """Spilled records are sorted in runs and merged, within the limit
    and leaving no spill behind.  ``sort_local`` is the in-memory
    stable sort record for record, also when there are more runs than
    the merge can open at once (2K: 72 runs through 6-way merges; 8K:
    15 runs, one merge)."""

    #: Duplicate keys with distinct values, so the tie order shows.
    PAIRS = [(b"k%03d" % (i * 7919 % 211), b"v%05d" % i)
             for i in range(3000)]

    def run(self, limit, op, nprocs=1, **opts):
        config = MimirConfig(page_size=256, comm_buffer_size=256 * nprocs,
                             out_of_core=limit is not None)
        cluster = Cluster(COMET, nprocs=nprocs, memory_limit=limit,
                          keep_timeline=True)

        def job(env):
            mimir = Mimir(env, config)
            kvs = mimir.map_items(self.PAIRS[env.comm.rank :: nprocs],
                                  lambda ctx, kv: ctx.emit(*kv))
            assert kvs.spilled == (limit is not None)
            out = getattr(mimir, op)(kvs, **opts)
            records = list(out.records())
            out.free()
            return records

        result = cluster.run(job)
        assert not cluster.pfs.listdir("spill/")
        if limit is not None:
            assert max(result.peak_bytes) <= cluster.memory_limit_per_rank
        merges = [sum(1 for sample in tracker.timeline
                      if sample.tag == "sort_merge" and sample.delta > 0)
                  for tracker in cluster.trackers]
        return result.returns, merges

    @pytest.mark.parametrize("opts", [
        {}, {"by_value": True}, {"key_fn": reversed_value}],
        ids=["key", "value", "key_fn"])
    @pytest.mark.parametrize("limit,one_merge", [("2K", False),
                                                 ("8K", True)])
    def test_sort_local_is_the_in_memory_stable_sort(self, opts, limit,
                                                     one_merge):
        (records,), (merges,) = self.run(limit, "sort_local", **opts)
        assert (merges == 1) == one_merge
        (expected,), _ = self.run(None, "sort_local", **opts)
        assert records == expected

    @pytest.mark.parametrize("by_value", [False, True])
    def test_global_sort_keeps_the_order_and_the_records(self, by_value):
        parts, _ = self.run("3K", "global_sort", nprocs=2,
                            by_value=by_value)
        field = (lambda kv: kv[1]) if by_value else (lambda kv: kv[0])
        merged = [record for part in parts for record in part]
        assert [field(kv) for kv in merged] == \
            sorted(field(kv) for kv in self.PAIRS)
        assert sorted(merged) == sorted(self.PAIRS)
