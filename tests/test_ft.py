"""Fault tolerance: checkpoints, injection, and restart recovery."""

import threading
from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.core import KVLayout, Mimir, MimirConfig, pack_u64, unpack_u64
from repro.ft import (
    ChaosPlan,
    CheckpointManager,
    SimulatedRankFailure,
    run_with_recovery,
)
from repro.mpi import COMET, RankFailedError
from tests.conftest import container_kinds, filled_container

CFG = MimirConfig(page_size=2048, comm_buffer_size=2048,
                  input_chunk_size=512)
TEXT = b"oak elm ash fir oak elm oak yew ash oak " * 30
EXPECTED = Counter(TEXT.split())


def wc_map(ctx, chunk):
    one = pack_u64(1)
    for word in chunk.split():
        ctx.emit(word, one)


def wc_combine(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


def checkpointed_wordcount(env, ckpt, faults):
    """WordCount in two checkpointed phases: shuffle, then reduce."""
    mimir = Mimir(env, CFG)
    faults.check("start", env.comm.rank)

    if ckpt.has("shuffle"):
        kvs = ckpt.load_kvc(
            "shuffle", mimir.container(CFG.layout, "kv_restored"))
    else:
        kvs = mimir.map_text_file("t.txt", wc_map)
        ckpt.save_kvc("shuffle", kvs)
    faults.check("after_shuffle", env.comm.rank)

    out = mimir.partial_reduce(kvs, wc_combine)
    faults.check("after_reduce", env.comm.rank)
    counts = {k: unpack_u64(v) for k, v in out.records()}
    out.free()
    return counts


def make_cluster(nprocs=4):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("t.txt", TEXT)
    return cluster


def merge(result):
    merged: Counter = Counter()
    for part in result.returns:
        merged.update(part)
    return merged


class TestChaosPlan:
    def test_fires_once(self):
        plan = ChaosPlan().fail_at("x", 0)
        with pytest.raises(SimulatedRankFailure):
            plan.check("x", 0)
        plan.check("x", 0)  # second call: no raise
        assert plan.fired == {("x", 0)}
        assert plan.pending == set()

    def test_other_points_unaffected(self):
        plan = ChaosPlan().fail_at("x", 1)
        plan.check("x", 0)
        plan.check("y", 1)
        assert plan.pending == {("x", 1)}


class TestCheckpointManager:
    def test_kvc_roundtrip(self):
        cluster = make_cluster(2)

        def job(env):
            ckpt = CheckpointManager(env, "t1")
            mimir = Mimir(env, CFG)
            kvs = mimir.map_text_file("t.txt", wc_map)
            before = list(kvs.records())
            ckpt.save_kvc("phase", kvs)
            assert ckpt.has("phase")
            restored = ckpt.load_kvc(
                "phase", mimir.container(CFG.layout, "kv_restored"))
            after = list(restored.records())
            kvs.free()
            restored.free()
            return before == after

        assert all(cluster.run(job).returns)

    @container_kinds
    def test_kvc_roundtrip_every_container_kind(self, kind):
        """A checkpoint holds every record, whichever tier held it, and
        comes back into a container of the restoring job."""
        cluster = make_cluster(2)

        def job(env):
            ckpt = CheckpointManager(env, "t1k")
            kvs, pairs = filled_container(env, kind)
            ckpt.save_kvc("phase", kvs)
            assert list(kvs.records()) == pairs  # saving reads only
            config = MimirConfig(page_size=512, out_of_core=True)
            restored = ckpt.load_kvc(
                "phase", Mimir(env, config).container(kvs.layout, "kv_back"))
            assert restored.pool.page_size == 512
            assert list(restored.consume()) == pairs
            kvs.free()
            return env.tracker.current

        assert cluster.run(job).returns == [0, 0]

    @container_kinds
    def test_saving_scans_no_record(self, kind, monkeypatch):
        """A checkpoint copies each tier's packed runs as they are:
        nothing reads their columns, so nothing scans them."""
        saving, scans = set(), []
        scan = KVLayout.scan

        def counted(layout, buf, end=None):
            if threading.current_thread().name in saving:
                scans.append(len(buf))
            return scan(layout, buf, end)

        def job(env):
            ckpt = CheckpointManager(env, "t1s")
            kvs, _ = filled_container(env, kind)
            saving.add(threading.current_thread().name)
            ckpt.save_kvc("phase", kvs)
            saving.discard(threading.current_thread().name)
            kvs.free()

        monkeypatch.setattr(KVLayout, "scan", counted)
        make_cluster(2).run(job)
        assert scans == []

    def test_state_roundtrip(self):
        cluster = make_cluster(2)

        def job(env):
            ckpt = CheckpointManager(env, "t2")
            ckpt.save_state("iter", {"level": 3, "rank": env.comm.rank})
            return ckpt.load_state("iter")

        result = cluster.run(job)
        assert result.returns[1] == {"level": 3, "rank": 1}

    def test_missing_checkpoint_raises(self):
        cluster = make_cluster(1)

        def job(env):
            ckpt = CheckpointManager(env, "t3")
            assert not ckpt.has("nope")
            with pytest.raises(KeyError):
                ckpt.load_kvc(
                    "nope", Mimir(env, CFG).container(CFG.layout, "kv"))

        cluster.run(job)

    def test_clear_removes_all(self):
        cluster = make_cluster(1)

        def job(env):
            ckpt = CheckpointManager(env, "t4")
            ckpt.save_state("a", 1)
            ckpt.clear()
            return ckpt.has("a")

        assert cluster.run(job).returns == [False]

    def test_checkpoint_io_charges_time(self):
        cluster = make_cluster(1)

        def job(env):
            ckpt = CheckpointManager(env, "t5")
            t0 = env.comm.clock.time
            ckpt.save_state("a", list(range(1000)))
            return env.comm.clock.time - t0

        assert cluster.run(job).returns[0] > 0


class TestRecovery:
    def test_no_fault_single_attempt(self):
        cluster = make_cluster(4)
        ft = run_with_recovery(cluster, checkpointed_wordcount)
        assert ft.attempts == 1
        assert ft.restarts == 0
        assert merge(ft.result) == EXPECTED

    def test_recovers_from_failure_after_shuffle(self):
        cluster = make_cluster(4)
        plan = ChaosPlan().fail_at("after_shuffle", 2)
        ft = run_with_recovery(cluster, checkpointed_wordcount, faults=plan)
        assert ft.attempts == 2
        assert merge(ft.result) == EXPECTED
        assert plan.pending == set()

    def test_recovers_from_failure_at_start(self):
        cluster = make_cluster(4)
        plan = ChaosPlan().fail_at("start", 0)
        ft = run_with_recovery(cluster, checkpointed_wordcount, faults=plan)
        assert ft.attempts == 2
        assert merge(ft.result) == EXPECTED

    def test_multiple_failures_multiple_restarts(self):
        cluster = make_cluster(4)
        plan = (ChaosPlan()
                .fail_at("start", 1)
                .fail_at("after_shuffle", 3)
                .fail_at("after_reduce", 0))
        ft = run_with_recovery(cluster, checkpointed_wordcount, faults=plan)
        assert ft.attempts == 4
        assert merge(ft.result) == EXPECTED
        assert len(ft.failures) == 3

    def test_restart_skips_completed_phase(self):
        cluster = make_cluster(4)
        plan = ChaosPlan().fail_at("after_shuffle", 2)
        ft = run_with_recovery(cluster, checkpointed_wordcount, faults=plan)
        # The restarted attempt loaded the shuffle checkpoint instead of
        # re-reading and re-shuffling the input: the checkpoint data
        # files were read back at least once.
        reads = [p for p in cluster.pfs.listdir("ckpt/job/")
                 if not p.split("/")[-1].startswith("shuffle.done")]
        assert reads  # data files exist
        assert ft.total_elapsed > ft.result.elapsed  # lost time counted

    def test_sequential_failures_on_one_rank(self):
        # Same rank fails at successive points: one restart per fault.
        cluster = make_cluster(2)
        plan = (ChaosPlan()
                .fail_at("start", 0)
                .fail_at("after_shuffle", 0)
                .fail_at("after_reduce", 0))
        ft = run_with_recovery(cluster, checkpointed_wordcount, faults=plan,
                               max_restarts=8)
        assert ft.attempts == 4
        assert merge(ft.result) == EXPECTED

    def test_budget_zero_reraises(self):
        cluster = make_cluster(2)
        plan = ChaosPlan().fail_at("start", 0)
        with pytest.raises(RankFailedError):
            run_with_recovery(cluster, checkpointed_wordcount, faults=plan,
                              max_restarts=0)

    def test_non_injected_errors_propagate(self):
        cluster = make_cluster(2)

        def bad_job(env, ckpt, faults):
            raise ValueError("real bug")

        with pytest.raises(RankFailedError) as exc_info:
            run_with_recovery(cluster, bad_job)
        assert isinstance(exc_info.value.original, ValueError)
