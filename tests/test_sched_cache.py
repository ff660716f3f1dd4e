"""Stage cache: hits, pinning, LRU spill/reload, lineage recompute."""

import pytest

from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.mpi import COMET
from repro.obs import Trace
from repro.sched import Plan, PlanRunner, StageCache
from tests.conftest import container_kinds, filled_container

CFG = MimirConfig(page_size=1024, comm_buffer_size=1024,
                  input_chunk_size=256)
TEXT = b"oak elm ash fir oak elm oak yew ash oak " * 40


def emit_n(n, tag):
    def fn(ctx, _item):
        for i in range(n):
            ctx.emit(tag + pack_u64(i), pack_u64(i))
    return fn


def make_entry(env, cache, key, *, n=64, tag=b"k"):
    kvs = Mimir(env, CFG).map_items([None], emit_n(n, tag))
    cache.put(key, kvs, name=key, job="test")
    return sorted(kvs.records())


def run_single(fn, memory_limit=None):
    cluster = Cluster(COMET, nprocs=1, memory_limit=memory_limit)
    cluster.pfs.store("t.txt", TEXT)
    return cluster.run(fn)


class TestBasics:
    def test_put_get_and_stats(self):
        def job(env):
            cache = StageCache(0)
            cache.attach(env)
            records = make_entry(env, cache, "a")
            got = cache.get("a")
            assert sorted(got.records()) == records
            with pytest.raises(KeyError):
                cache.get("missing")
            assert cache.has("a") and not cache.has("missing")
            assert cache.stats.hits == 1 and cache.stats.misses == 1
            assert cache.resident_bytes > 0

        run_single(job)

    def test_attach_rejects_wrong_rank(self):
        def job(env):
            with pytest.raises(ValueError, match="rank"):
                StageCache(3).attach(env)

        run_single(job)


class TestSpillReload:
    def test_lru_spills_to_pfs_and_reloads(self):
        trace = Trace()

        def job(env):
            cache = StageCache(0)
            cache.attach(env, trace)
            old = make_entry(env, cache, "old", tag=b"o")
            new = make_entry(env, cache, "new", tag=b"n")
            cache.get("new")  # "old" becomes the LRU victim
            freed = cache.ensure_room(env.tracker.limit)
            assert freed > 0
            assert not cache.entries["old"].resident
            assert cache.stats.evictions >= 1
            spill_path = "spill/cache_old.0"
            assert env.pfs.exists(spill_path)
            spilled_before = env.pfs.spilled_bytes
            assert spilled_before > 0  # costed through the spill path
            # Reload restores the records bit for bit and cleans up.
            assert sorted(cache.get("old").records()) == old
            assert cache.stats.reloads == 1
            assert not env.pfs.exists(spill_path)
            assert sorted(cache.get("new").records()) == new

        run_single(job, memory_limit="64K")
        events = [(e.kind, e.label) for e in trace.events]
        kinds = {kind for kind, _ in events}
        assert "evict" in kinds
        assert any(label.endswith(":spilled") for _, label in events)

    @container_kinds
    def test_evict_and_reload_every_container_kind(self, kind):
        """Eviction streams out every tier of the container and reload
        refills that same container (codec, spill store and all)."""
        def job(env):
            cache = StageCache(0)
            cache.attach(env)
            kvc, pairs = filled_container(env, kind)
            cache.put("a", kvc, name="a", job="test")
            # By hand: ensure_room leaves a self-spilling container be.
            assert cache._evict(cache.entries["a"]) > 0
            assert not cache.entries["a"].resident
            assert cache.resident_bytes == env.tracker.current == 0
            assert env.pfs.exists("spill/cache_a.0")
            assert cache.get("a") is kvc
            assert cache.entries["a"].resident
            assert list(kvc.records()) == pairs
            assert not env.pfs.exists("spill/cache_a.0")
            cache.clear()
            assert env.tracker.current == 0

        run_single(job)

    def test_pinned_entry_survives_pressure(self):
        def job(env):
            cache = StageCache(0)
            cache.attach(env)
            make_entry(env, cache, "pinned", tag=b"p")
            make_entry(env, cache, "loose", tag=b"l")
            cache.get("loose")  # "pinned" is LRU, but...
            cache.get("pinned").pin()
            try:
                cache.ensure_room(env.tracker.limit)
                assert cache.entries["pinned"].resident
                assert not cache.entries["loose"].resident
            finally:
                cache.entries["pinned"].kvc.unpin()

        run_single(job, memory_limit="64K")

    def test_no_limit_means_no_eviction(self):
        def job(env):
            cache = StageCache(0)
            cache.attach(env)
            make_entry(env, cache, "a")
            assert cache.ensure_room(1 << 30) == 0
            assert cache.entries["a"].resident

        run_single(job)


class TestDropAndRecompute:
    def test_drop_recomputes_bit_identical_from_lineage(self):
        caches = [StageCache(rank) for rank in range(3)]
        trace = Trace()

        def wc_map(ctx, chunk):
            for word in chunk.split():
                ctx.emit(word, pack_u64(1))

        def wc_reduce(ctx, key, values):
            ctx.emit(key, pack_u64(sum(unpack_u64(v) for v in values)))

        def job(env):
            cache = caches[env.comm.rank]
            plan = Plan("wc", CFG)
            counts = plan.read_text("t.txt", name="input") \
                .map(wc_map, name="count") \
                .reduce(wc_reduce, name="sum").cache()
            runner = PlanRunner(env, plan, cache=cache, trace=trace)
            first = sorted(runner.stream(counts))
            # Every rank drops together (a recompute runs collectives).
            cache.drop(counts.key)
            second = sorted(runner.stream(counts))
            assert second == first
            assert runner.stage_counts["sum"] == 2
            return first

        cluster = Cluster(COMET, nprocs=3, memory_limit=None)
        cluster.pfs.store("t.txt", TEXT)
        cluster.run(job)
        assert any(e.label == "sum:dropped" for e in trace.of_kind("evict"))
        assert all(c.stats.drops == 1 for c in caches)

    def test_clear_drops_everything(self):
        def job(env):
            cache = StageCache(0)
            cache.attach(env)
            make_entry(env, cache, "a", tag=b"a")
            make_entry(env, cache, "b", tag=b"b")
            cache.clear()
            assert not cache.entries
            assert cache.stats.drops == 2

        run_single(job)
