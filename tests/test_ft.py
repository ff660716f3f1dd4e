"""Fault tolerance: checkpoints, injection, and restart recovery."""

import threading
from collections import Counter

import pytest

from repro.apps.wordcount import wc_map
from repro.core import KVLayout, Mimir, MimirConfig
from repro.ft import (
    ChaosPlan,
    CheckpointManager,
    SimulatedRankFailure,
    run_with_recovery,
)
from repro.ft.chaos import (
    CFG,
    CHAOS_TAGS,
    INPUT_PATH,
    TEXT,
    global_counts,
    wordcount_job,
)
from repro.ft.chaos import make_wordcount_cluster as make_cluster
from repro.mpi import RankFailedError
from tests.conftest import container_kinds, filled_container

EXPECTED = tuple(sorted(Counter(TEXT.split()).items()))
#: The harness plan's fault points: before the map's checkpoint
#: commits, after it, and after the reduce.
PRECOMMIT, AFTER_MAP, AFTER_REDUCE = CHAOS_TAGS
JOB = wordcount_job()


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
            kvs = mimir.map_text_file(INPUT_PATH, wc_map)
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
        ft = run_with_recovery(cluster, JOB)
        assert ft.attempts == 1
        assert ft.restarts == 0
        assert global_counts(ft.result.returns) == EXPECTED

    def test_recovers_from_failure_after_shuffle(self):
        cluster = make_cluster(4)
        plan = ChaosPlan().fail_at(AFTER_MAP, 2)
        cluster.chaos = plan
        ft = run_with_recovery(cluster, JOB)
        assert ft.attempts == 2
        assert global_counts(ft.result.returns) == EXPECTED
        assert plan.pending == set()

    def test_recovers_from_failure_at_start(self):
        cluster = make_cluster(4)
        plan = ChaosPlan().fail_at(PRECOMMIT, 0)
        cluster.chaos = plan
        ft = run_with_recovery(cluster, JOB)
        assert ft.attempts == 2
        assert global_counts(ft.result.returns) == EXPECTED

    def test_multiple_failures_multiple_restarts(self):
        cluster = make_cluster(4)
        plan = (ChaosPlan()
                .fail_at(PRECOMMIT, 1)
                .fail_at(AFTER_MAP, 3)
                .fail_at(AFTER_REDUCE, 0))
        cluster.chaos = plan
        ft = run_with_recovery(cluster, JOB)
        assert ft.attempts == 4
        assert global_counts(ft.result.returns) == EXPECTED
        assert [r.message for r in ft.failure_log if r.attempt] == [
            f"injected failure of rank {rank} at {tag!r}"
            for tag, rank in ((PRECOMMIT, 1), (AFTER_MAP, 3),
                              (AFTER_REDUCE, 0))]

    def test_restart_skips_completed_phase(self):
        cluster = make_cluster(4)
        plan = ChaosPlan().fail_at(AFTER_MAP, 2)
        cluster.chaos = plan
        ft = run_with_recovery(cluster, JOB)
        # The restarted attempt restored the map's checkpoint instead of
        # re-reading and re-shuffling the input: one save and one
        # restore per rank.
        totals = cluster.metrics.totals()
        assert totals["ft.checkpoint.saves"] == 4
        assert totals["ft.checkpoint.restores"] == 4
        assert ft.total_elapsed > ft.result.elapsed  # lost time counted

    def test_sequential_failures_on_one_rank(self):
        # Same rank fails at successive points: one restart per fault.
        cluster = make_cluster(2)
        plan = (ChaosPlan()
                .fail_at(PRECOMMIT, 0)
                .fail_at(AFTER_MAP, 0)
                .fail_at(AFTER_REDUCE, 0))
        cluster.chaos = plan
        ft = run_with_recovery(cluster, JOB, max_restarts=8)
        assert ft.attempts == 4
        assert global_counts(ft.result.returns) == EXPECTED

    def test_budget_zero_reraises(self):
        cluster = make_cluster(2)
        plan = ChaosPlan().fail_at(PRECOMMIT, 0)
        cluster.chaos = plan
        with pytest.raises(RankFailedError):
            run_with_recovery(cluster, JOB, max_restarts=0)

    def test_non_injected_errors_propagate(self):
        cluster = make_cluster(2)

        def bad_job(env, ckpt):
            raise ValueError("real bug")

        with pytest.raises(RankFailedError) as exc_info:
            run_with_recovery(cluster, bad_job)
        assert isinstance(exc_info.value.original, ValueError)
