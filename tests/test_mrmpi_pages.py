"""PagedObject in isolation: page discipline, spill modes, lifecycle."""

import pytest

from repro.cluster import Cluster
from repro.core import KVLayout
from repro.memory import PagePool
from repro.mpi import COMET
from repro.mrmpi import OutOfCoreMode, PageOverflowError, PagedObject


def with_env(fn):
    cluster = Cluster(COMET, nprocs=1, memory_limit=None)
    return cluster.run(lambda env: fn(env)).returns[0], cluster


def make_obj(env, size=128, mode=OutOfCoreMode.WHEN_FULL, name="obj"):
    pool = PagePool(env.tracker, size, tag="test")
    return PagedObject(env, pool, name, mode, KVLayout())


class TestPagedObject:
    def test_holds_exactly_one_page(self):
        def fn(env):
            obj = make_obj(env, size=256)
            for i in range(5):
                obj.append_kv(b"k%d" % i, b"v")
            held = env.tracker.current
            obj.free()
            return held

        held, _ = with_env(fn)
        assert held == 256

    def test_when_full_spills_and_preserves_order(self):
        def fn(env):
            obj = make_obj(env, size=64)
            pairs = [(b"key%02d" % i, b"value%02d" % i) for i in range(20)]
            for k, v in pairs:
                obj.append_kv(k, v)
            ok = list(obj.records()) == pairs
            spilled = obj.spilled
            nbytes = obj.spilled_bytes
            obj.free()
            return ok, spilled, nbytes

        (ok, spilled, nbytes), cluster = with_env(fn)
        assert ok and spilled and nbytes > 0
        assert not cluster.pfs.listdir("spill/")  # freed

    def test_error_mode_raises_on_overflow(self):
        def fn(env):
            obj = make_obj(env, size=64, mode=OutOfCoreMode.ERROR)
            with pytest.raises(PageOverflowError):
                for i in range(20):
                    obj.append_kv(b"key%02d" % i, b"v" * 10)
            obj.free()

        with_env(fn)

    def test_always_mode_flushes_on_finalize(self):
        def fn(env):
            obj = make_obj(env, size=1024, mode=OutOfCoreMode.ALWAYS)
            obj.append_kv(b"k", b"v")
            before = obj.spilled
            obj.finalize()
            after = obj.spilled
            obj.free()
            return before, after

        (before, after), _ = with_env(fn)
        assert not before and after

    def test_chunks_spilled_then_resident(self):
        def fn(env):
            obj = make_obj(env, size=64)
            for i in range(10):
                obj.append_kv(b"0123456789abcd%02d" % i, b"x" * 20)
            chunks = list(obj.chunks())
            obj.free()
            return len(chunks)

        nchunks, _ = with_env(fn)
        assert nchunks > 1

    def test_use_after_free_rejected(self):
        def fn(env):
            obj = make_obj(env)
            obj.free()
            with pytest.raises(ValueError):
                obj.append_kv(b"k", b"v")

        with_env(fn)

    def test_counters(self):
        def fn(env):
            obj = make_obj(env, size=4096)
            obj.append_kv(b"ab", b"cde")
            obj.append_kv(b"f", b"")
            stats = (len(obj), obj.nbytes)
            obj.free()
            return stats

        (nrecords, nbytes), _ = with_env(fn)
        assert nrecords == 2
        assert nbytes == (8 + 5) + (8 + 1)


class TestBlockAppend:
    """One ``extend_encoded`` of a run cuts pages, spill chunks and
    oversized records where one ``append_kv`` per record does."""

    PAIRS = [(b"k%03d" % i, b"v" * (7 * i % 23 + (150 if i % 17 == 5 else 0)))
             for i in range(60)]

    @pytest.mark.parametrize("mode", [OutOfCoreMode.WHEN_FULL,
                                      OutOfCoreMode.ALWAYS])
    def test_same_cuts_as_one_record_at_a_time(self, mode):
        def fill(env, block):
            obj = make_obj(env, size=128, mode=mode)
            if block:
                obj.add_run(*zip(*self.PAIRS))
            else:
                for key, value in self.PAIRS:
                    obj.append_kv(key, value)
            obj.finalize()
            seen = (list(obj.chunks()), obj.spill.chunks, len(obj),
                    obj.nbytes, obj.oversized, env.comm.clock.time)
            obj.free()
            return seen

        one_by_one, _ = with_env(lambda env: fill(env, False))
        assert one_by_one[4] > 128  # an oversized record went through
        assert with_env(lambda env: fill(env, True))[0] == one_by_one


class TestWorldRankArgs:
    def test_per_rank_arguments(self):
        from repro.mpi import World

        result = World(3).run(lambda comm, base, extra: base + extra,
                              10, rank_args=[(1,), (2,), (3,)])
        assert result.returns == [11, 12, 13]

    def test_rank_args_length_checked(self):
        from repro.mpi import World

        with pytest.raises(ValueError):
            World(3).run(lambda comm, x: x, rank_args=[(1,)])

    def test_serial_rank_args(self):
        from repro.mpi import World

        result = World(1).run(lambda comm, x: x * 2, rank_args=[(21,)])
        assert result.returns == [42]
