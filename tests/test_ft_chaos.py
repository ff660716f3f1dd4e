"""Chaos injection, checksummed checkpoints, retrying I/O, classification."""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.apps.wordcount import wc_map
from repro.cluster import Cluster
from repro.core import Mimir
from repro.ft import (
    ChaosPlan,
    CheckpointManager,
    CheckpointNotFoundError,
    SimulatedRankFailure,
    TornWriteFailure,
    classify_failure,
    run_with_recovery,
)
from repro.ft import chaos
from repro.ft.chaos import TEXT as CHAOS_TEXT
from repro.ft.chaos import (
    CHAOS_TAGS,
    INPUT_PATH,
    global_counts,
    make_wordcount_cluster,
    run_chaos_sweep,
    wordcount_job,
)
from repro.ft.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStaleError,
    _marker_nparts,
    frame,
    restore_rebalanced,
    unframe,
)
from repro.memory.tracker import MemoryLimitExceeded
from repro.mpi import COMET, RankFailedError
from repro.mpi.comm import SimComm
from repro.storage import StorageBackend
from repro.storage.errors import (
    DEFAULT_RETRY_ATTEMPTS,
    DEFAULT_RETRY_BASE_DELAY,
    DEFAULT_RETRY_FACTOR,
    PFSFileNotFoundError,
    RetriesExhaustedError,
    TransientIOError,
    retrying,
)

EXPECTED = tuple(sorted(Counter(CHAOS_TEXT.split()).items()))
#: The harness plan's fault points: the map checkpoint's commit point
#: (mid-commit) and the map stage, after its checkpoint committed.
PRECOMMIT, AFTER_MAP, _AFTER_REDUCE = CHAOS_TAGS
JOB = wordcount_job()


# ---------------------------------------------------------------- PFS errors


class TestPFSFileNotFound:
    def test_read_carries_path(self):
        pfs = StorageBackend()
        with pytest.raises(PFSFileNotFoundError) as exc_info:
            pfs.read(SimComm(0, 1), "ckpt/job/missing.0")
        assert exc_info.value.path == "ckpt/job/missing.0"
        assert "ckpt/job/missing.0" in str(exc_info.value)

    def test_fetch_and_size_raise_descriptive(self):
        pfs = StorageBackend()
        pfs.store("ckpt/job/phase.0", b"x")
        for call in (lambda: pfs.fetch("ckpt/job/phase.1"),
                     lambda: pfs.size("ckpt/job/phase.1")):
            with pytest.raises(PFSFileNotFoundError) as exc_info:
                call()
            assert "sibling" in str(exc_info.value)

    def test_still_a_keyerror(self):
        pfs = StorageBackend()
        with pytest.raises(KeyError):
            pfs.fetch("nope")


# ------------------------------------------------------------------ retrying


class TestRetrying:
    def test_absorbs_and_charges_backoff(self):
        comm = SimComm(0, 1)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientIOError("read", "f", 0)
            return "ok"

        seen = []
        value = retrying(comm, flaky, on_retry=lambda n, e: seen.append(n))
        assert value == "ok"
        assert seen == [1, 2]
        # Two backoffs, the second one factor longer, on the clock.
        assert comm.clock.time == pytest.approx(
            DEFAULT_RETRY_BASE_DELAY * (1 + DEFAULT_RETRY_FACTOR))

    def test_exhaustion_escalates(self):
        comm = SimComm(0, 1)

        def always():
            raise TransientIOError("write", "f", 0)

        with pytest.raises(RetriesExhaustedError) as exc_info:
            retrying(comm, always)
        assert exc_info.value.attempts == DEFAULT_RETRY_ATTEMPTS
        # Not a TransientIOError: an outer retry must not swallow it.
        assert not isinstance(exc_info.value, TransientIOError)

    def test_only_transient_is_retried(self):
        comm = SimComm(0, 1)

        def broken():
            raise ValueError("bug")

        with pytest.raises(ValueError):
            retrying(comm, broken)


# ------------------------------------------------------------ frame/unframe


class TestCheckpointFraming:
    def test_roundtrip(self):
        blob = frame(b"payload bytes", "run-1")
        assert unframe(blob, "run-1") == b"payload bytes"

    def test_torn_prefix_detected(self):
        blob = frame(b"x" * 1000, "n")
        for cut in (0, 3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CheckpointCorruptError):
                unframe(blob[:cut], "n")

    def test_bitflip_detected(self):
        blob = bytearray(frame(b"y" * 100, "n"))
        blob[-5] ^= 0x10  # flip one payload bit
        with pytest.raises(CheckpointCorruptError, match="CRC"):
            unframe(bytes(blob), "n")

    def test_wrong_nonce_is_stale(self):
        blob = frame(b"data", "run-1")
        with pytest.raises(CheckpointStaleError):
            unframe(blob, "run-2")

    def test_bad_magic_and_version(self):
        blob = frame(b"d", "n")
        with pytest.raises(CheckpointCorruptError, match="magic"):
            unframe(b"XXXX" + blob[4:], "n")
        with pytest.raises(CheckpointCorruptError, match="version"):
            unframe(blob[:4] + b"\xff\x7f" + blob[6:], "n")


class TestHostileCheckpointBytes:
    """Every decoder of the envelope ends in a typed ``CheckpointError``
    or a recompute: never a crash, a hang, or a silent load."""

    #: Arbitrary bytes also go behind a valid magic, version and nonce,
    #: so every check of the envelope sees hostile input.
    HEADS = [b"", b"RCKP", b"RCKP\x01\x00", b"RCKP\x01\x00\x01\x00n"]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(HEADS).flatmap(
        lambda head: st.binary(max_size=96).map(head.__add__)),
           st.sampled_from(["n", "run-1", ""]))
    def test_arbitrary_bytes(self, blob, nonce):
        try:
            payload = unframe(blob, nonce)
        except CheckpointError:
            return
        assert frame(payload, nonce) == blob   # only a real frame loads

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64), st.sampled_from(["n", "run-1"]),
           st.integers(min_value=0))
    def test_bit_flipped_frames(self, payload, nonce, flip):
        blob = bytearray(frame(payload, nonce))
        blob[flip // 8 % len(blob)] ^= 1 << flip % 8
        with pytest.raises(CheckpointError):
            unframe(bytes(blob), nonce)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=16))
    @example(b"ok:" + b"9" * 5000)   # past int()'s digit limit
    @example(b"ok:-1")
    def test_marker_payloads(self, payload):
        try:
            nparts = _marker_nparts(payload)
        except CheckpointCorruptError:
            return
        assert payload[:3] == b"ok:" and int(payload[3:]) == nparts >= 0

    @staticmethod
    def restore_tampered(suffix: str, tamper) -> tuple:
        """Save a map output on one rank, rewrite one of its files
        (``suffix`` picks data or marker) with ``tamper(blob)``, then
        restore it both ways; returns what the gang-size-aware restore
        gave and the failure log's kinds."""
        cluster = make_wordcount_cluster(1)
        layout = chaos.CFG.layout

        def job(env):
            mimir = Mimir(env, chaos.CFG)
            ckpt = CheckpointManager(env, "fuzz")
            kvc = mimir.map_text_file(INPUT_PATH, wc_map)
            ckpt.save_kvc("phase", kvc)
            kvc.free()
            path = f"ckpt/fuzz/phase{suffix}.0"
            original = env.pfs.fetch(path)
            tampered = tamper(original)
            env.pfs.store(path, tampered)
            restored = restore_rebalanced(mimir, ckpt, "phase", layout,
                                          "kv_back")
            with pytest.raises(CheckpointNotFoundError):
                ckpt.load_kvc("phase", mimir.map_output(layout, "kv_again"))
            return (tampered == original, restored,
                    [r.kind for r in ckpt.failure_log])

        return cluster.run(job).returns[0]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["", ".done"]), st.binary(max_size=64))
    def test_restore_of_a_replaced_file_recomputes(self, suffix, junk):
        same, restored, kinds = self.restore_tampered(suffix,
                                                      lambda _blob: junk)
        assume(not same)
        assert restored is None
        assert set(kinds) <= {"ckpt-invalid", "ckpt-stale"} and kinds

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["", ".done"]), st.integers(min_value=0))
    def test_restore_of_a_bit_flipped_file_recomputes(self, suffix, flip):
        def tamper(blob):
            flipped = bytearray(blob)
            flipped[flip // 8 % len(blob)] ^= 1 << flip % 8
            return bytes(flipped)

        _same, restored, kinds = self.restore_tampered(suffix, tamper)
        assert restored is None
        assert set(kinds) <= {"ckpt-invalid", "ckpt-stale"} and kinds


# --------------------------------------------------- checkpoint validation


class TestCheckpointIntegrity:
    def test_corrupt_checkpoint_never_silently_loaded(self):
        cluster = make_wordcount_cluster(1)

        def job(env):
            ckpt = CheckpointManager(env, "c1")
            ckpt.save_state("phase", {"x": 1})
            assert ckpt.has("phase")
            # Flip a bit in the stored data file behind the manager's back.
            path = "ckpt/c1/phase.0"
            blob = bytearray(env.pfs.fetch(path))
            blob[-1] ^= 0x01
            env.pfs.store(path, bytes(blob))
            assert not ckpt.has("phase")  # detected, not trusted
            with pytest.raises(CheckpointNotFoundError):
                ckpt.load_state("phase")
            kinds = [r.kind for r in ckpt.failure_log]
            assert "ckpt-invalid" in kinds
            return True

        assert cluster.run(job).returns == [True]

    def test_torn_data_file_detected(self):
        cluster = make_wordcount_cluster(1)

        def job(env):
            ckpt = CheckpointManager(env, "c2")
            ckpt.save_state("phase", list(range(100)))
            path = "ckpt/c2/phase.0"
            blob = env.pfs.fetch(path)
            env.pfs.store(path, blob[: len(blob) // 2])
            return ckpt.has("phase")

        assert cluster.run(job).returns == [False]

    def test_stale_nonce_invalidated(self):
        cluster = make_wordcount_cluster(1)

        def job(env):
            old = CheckpointManager(env, "c3", nonce="previous-run")
            old.save_state("phase", "old state")
            new = CheckpointManager(env, "c3", nonce="current-run")
            assert not new.has("phase")
            kinds = [r.kind for r in new.failure_log]
            assert "ckpt-stale" in kinds
            # The original owner still restores its own data.
            assert old.load_state("phase") == "old state"
            return True

        assert cluster.run(job).returns == [True]

    def test_reused_job_id_across_recovery_runs_recomputes(self):
        cluster = make_wordcount_cluster(2)
        first = run_with_recovery(cluster, JOB, job_id="same-id")
        assert global_counts(first.result.returns) == EXPECTED
        # Checkpoints from the first run are still on the PFS...
        assert cluster.pfs.listdir("ckpt/same-id/")
        second = run_with_recovery(cluster, JOB, job_id="same-id")
        # ...but the new run's nonce invalidates them: never restored.
        assert global_counts(second.result.returns) == EXPECTED
        totals = cluster.metrics.totals()
        assert totals.get("ft.checkpoint.restores", 0) == 0
        assert totals["ft.checkpoint.saves"] == 4    # 2 ranks, 2 runs
        assert totals["ft.checkpoint.invalid"] >= 1  # the stale files

    def test_a_run_is_timed_as_if_alone_in_the_process(self):
        """The default nonce's bytes are checkpoint bytes, so its run
        number must count runs on the store, not in the process: the
        same armed run on fresh clusters always reads what it reads in
        a fresh process (pinned), whatever ran before it."""
        elapsed = []
        for _ in range(12):
            cluster = make_wordcount_cluster(4)
            cluster.chaos = ChaosPlan.random(8, 4, tags=CHAOS_TAGS)
            elapsed.append(run_with_recovery(cluster, JOB, job_id="chaos",
                                             max_restarts=12).total_elapsed)
        assert elapsed == [1.3334395050666665] * 12

    def test_clear_is_collective(self):
        cluster = make_wordcount_cluster(4)

        def job(env):
            ckpt = CheckpointManager(env, "c4")
            ckpt.save_state("a", env.comm.rank)
            ckpt.save_state("b", env.comm.rank)
            ckpt.clear()  # every rank calls; rank 0 deletes
            return env.pfs.listdir("ckpt/c4/")

        result = cluster.run(job)
        assert all(listing == [] for listing in result.returns)


# ----------------------------------------------------- mid-commit crashes


class TestMidCommitCrash:
    @pytest.mark.parametrize("nprocs,victim", [(1, 0), (4, 2)])
    def test_crash_between_data_and_marker(self, nprocs, victim):
        """Satellite: a fault between the data write and the marker
        write must leave ``has()`` false on restart -> recompute."""
        cluster = make_wordcount_cluster(nprocs)
        plan = ChaosPlan().fail_at(PRECOMMIT, victim)
        cluster.chaos = plan
        ft = run_with_recovery(cluster, JOB)
        assert ft.attempts == 2
        assert plan.pending == set()
        # The restart saw no completed checkpoint - the half-committed
        # save was not trusted - so it re-ran the map and saved it once.
        totals = cluster.metrics.totals()
        assert totals.get("ft.checkpoint.restores", 0) == 0
        assert totals["ft.checkpoint.saves"] == nprocs
        assert global_counts(ft.result.returns) == EXPECTED

    def test_torn_write_classified_and_recovered(self):
        cluster = make_wordcount_cluster(4)
        plan = ChaosPlan(seed=7, torn_write_rate=1.0, max_faults=1)
        cluster.chaos = plan
        ft = run_with_recovery(cluster, JOB)
        assert global_counts(ft.result.returns) == EXPECTED
        assert ft.restarts == 1
        assert [r.kind for r in ft.failure_log if r.attempt] == ["torn-write"]
        assert plan.counts() == {"torn-write": 1}


# ------------------------------------------------------------ classification


class TestClassification:
    def test_kinds(self):
        assert classify_failure(SimulatedRankFailure("t", 0)) == "rank-death"
        assert classify_failure(
            TornWriteFailure("p", 0, 1, 2)) == "torn-write"
        assert classify_failure(
            TransientIOError("read", "f")) == "transient-io"
        assert classify_failure(
            RetriesExhaustedError(3, TransientIOError("w", "f"))
        ) == "transient-io"
        assert classify_failure(
            MemoryLimitExceeded("kv", 1, 2, 3, {})) == "oom"
        assert classify_failure(ValueError("x")) == "unknown"

    def test_transient_escalates_to_classified_restart(self):
        cluster = make_wordcount_cluster(2)
        fired = []

        def job(env, ckpt):
            if env.comm.rank == 0 and not fired:
                fired.append(True)
                raise TransientIOError("read", "input/t.txt", 0)
            return JOB(env, ckpt)

        ft = run_with_recovery(cluster, job)
        assert ft.attempts == 2
        assert [r.kind for r in ft.failure_log] == ["transient-io"]
        assert global_counts(ft.result.returns) == EXPECTED

    def test_oom_gets_one_restart(self):
        cluster = make_wordcount_cluster(2)
        fired = []

        def job(env, ckpt):
            if env.comm.rank == 1 and not fired:
                fired.append(True)
                raise MemoryLimitExceeded("kv", 10, 20, 16, {})
            return JOB(env, ckpt)

        ft = run_with_recovery(cluster, job)
        assert ft.attempts == 2
        assert [r.kind for r in ft.failure_log] == ["oom"]

    def test_oom_cap_exhausted_reraises(self):
        cluster = make_wordcount_cluster(2)

        def job(env, ckpt):
            raise MemoryLimitExceeded("kv", 10, 20, 16, {})

        with pytest.raises(RankFailedError):
            run_with_recovery(cluster, job)

    def test_unknown_never_retried(self):
        cluster = make_wordcount_cluster(2)
        calls = []

        def job(env, ckpt):
            if env.comm.rank == 0:
                calls.append(1)
            raise ValueError("real bug")

        with pytest.raises(RankFailedError):
            run_with_recovery(cluster, job)
        assert len(calls) == 1


# ----------------------------------------------------------- chaos plumbing


class TestChaosPlan:
    def test_decisions_are_a_pure_function_of_seed(self):
        """Replaying the same op sequence hits the same faults (single
        rank, so no abort race can perturb the sequence)."""

        def realized(plan):
            comm = SimComm(0, 1)
            hits = []
            for n in range(200):
                try:
                    plan.on_access(comm, "read", f"spill/f.{n}")
                except TransientIOError:
                    hits.append(n)
            return hits

        runs = [realized(ChaosPlan(seed=9, io_error_rate=0.05,
                                   max_faults=100))
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0]  # the rate actually fired somewhere

    def test_same_seed_same_answer(self):
        outputs = []
        for _ in range(2):
            cluster = make_wordcount_cluster(4)
            cluster.chaos = ChaosPlan.random(3, 4, tags=(PRECOMMIT, AFTER_MAP))
            ft = run_with_recovery(cluster, JOB, max_restarts=12)
            outputs.append(global_counts(ft.result.returns))
        assert outputs[0] == outputs[1]

    def test_transient_retry_charges_virtual_time(self):
        """A transient fault absorbed by the checkpoint retry wrapper
        shows up as increased elapsed, not as a failure."""
        def run(chaos):
            cluster = Cluster(COMET, nprocs=1, memory_limit=None,
                              chaos=chaos)

            def job(env):
                ckpt = CheckpointManager(env, "t")
                ckpt.save_state("phase", list(range(50)))
                return [r.kind for r in ckpt.failure_log]

            return cluster.run(job)

        clean = run(None)
        # Rate 1.0 + max_faults=1: exactly the first PFS op (the data
        # write) fails once, the retry succeeds.
        chaotic = run(ChaosPlan(seed=1, io_error_rate=1.0, max_faults=1))
        assert chaotic.returns[0] == ["retry"]
        assert chaotic.elapsed > clean.elapsed

    def test_zero_rate_plan_installed_changes_nothing(self):
        """``ChaosPlan()`` on a cluster is the old never-installed
        ``FaultPlan``: same outputs, clocks and storage traffic as a
        run with no plan at all."""

        def run(faults):
            cluster = make_wordcount_cluster(4)
            cluster.chaos = faults
            ft = run_with_recovery(cluster, JOB, job_id="z", nonce="z")
            totals = cluster.metrics.totals()
            return (ft.result.returns, ft.result.elapsed, ft.total_elapsed,
                    {name: value for name, value in totals.items()
                     if name.startswith("storage.")})

        plan = ChaosPlan()
        assert run(plan) == run(None)
        assert plan.injected == [] and plan.fired == set()

    def test_drivers_leave_the_clusters_plan_as_they_found_it(self):
        """Both drivers read the cluster's plan and never swap it: the
        job sees the cluster's plan on every attempt, and the cluster
        holds that same plan - or no plan - afterwards."""
        from repro.ft.elastic import run_elastic

        plan = ChaosPlan().fail_at("nowhere", 0)
        for driver in (run_with_recovery, run_elastic):
            seen = []

            def job(env, ckpt, hooks=None):
                seen.append(env.pfs.chaos)

            bare = Cluster(COMET, nprocs=1, memory_limit=None)
            driver(bare, job)
            assert bare.chaos is None and seen == [None]
            armed = Cluster(COMET, nprocs=1, memory_limit=None, chaos=plan)
            driver(armed, job)
            assert armed.chaos is plan and armed.pfs.chaos is plan
            assert seen == [None, plan]

    def test_straggler_slows_local_clock(self):
        comm = SimComm(0, 1)
        comm.advance(1.0)
        comm.slowdown = 3.0
        comm.advance(1.0)
        assert comm.clock.time == pytest.approx(4.0)

    def test_straggler_increases_job_elapsed(self):
        def run(chaos):
            cluster = Cluster(COMET, nprocs=2, memory_limit=None,
                              chaos=chaos)
            cluster.pfs.store(INPUT_PATH, CHAOS_TEXT)
            return cluster.run(
                lambda env: JOB(env, CheckpointManager(env, "s")))

        clean = run(None)
        slow = run(ChaosPlan(seed=0, stragglers={1: 4.0}))
        assert slow.elapsed > clean.elapsed
        assert global_counts(slow.returns) \
            == global_counts(clean.returns) == EXPECTED

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.5])
    def test_straggler_factor_must_be_finite_and_at_least_one(self, factor):
        # A NaN factor passed ``factor < 1`` and made the whole job's
        # elapsed NaN; an infinite one made it ``inf``.
        with pytest.raises(ValueError, match=f"rank 1 .*got {factor}"):
            ChaosPlan(stragglers={0: 2.0, 1: factor})

    def test_corruption_detected_and_recomputed(self):
        cluster = make_wordcount_cluster(2)
        plan = ChaosPlan(seed=5, corruption_rate=1.0, max_faults=1)
        # Force a restart after the (corrupted) checkpoint was written,
        # so the restarted attempt must validate and reject it.
        plan.fail_at(AFTER_MAP, 1)
        cluster.chaos = plan
        ft = run_with_recovery(cluster, JOB)
        assert global_counts(ft.result.returns) == EXPECTED
        kinds = ft.log_counts()
        assert kinds.get("ckpt-invalid", 0) >= 1
        assert plan.counts().get("corruption") == 1


# -------------------------------------------------------------- the sweep


class TestChaosSweep:
    def test_twenty_seeded_schedules_converge(self):
        """Acceptance: >= 20 seeded random schedules mixing every fault
        kind all converge to output bit-identical to the fault-free
        run, with the failure log accounting for the injected faults."""
        sweep = run_chaos_sweep(20, nprocs=4)
        assert len(sweep.records) == 20
        for record in sweep.records:
            assert record.identical, f"seed {record.seed} diverged"
            assert not record.problems, (record.seed, record.problems)
        # The sweep exercised every injected-fault kind.
        kinds = set()
        for record in sweep.records:
            kinds.update(record.plan.counts())
            if record.plan.stragglers:
                kinds.add("straggler")
        assert kinds >= {"rank-death", "transient-io", "torn-write",
                         "corruption", "straggler"}
        # And faults cost time: some chaotic run is slower than clean.
        assert any(sweep.overhead(r) > 0 for r in sweep.records)

    def test_one_schedule_repeats_exactly(self):
        def realised():
            plan = ChaosPlan.random(5, 4, tags=CHAOS_TAGS)
            cluster = make_wordcount_cluster(4)
            cluster.chaos = plan
            ft = run_with_recovery(cluster, JOB, job_id="chaos",
                                   max_restarts=12)
            return plan.injected, ft.failure_log, ft.total_elapsed

        first = realised()
        assert first == realised() and len(first[1]) > 1

    def test_harness_job_matches_reference(self):
        ft = run_with_recovery(make_wordcount_cluster(2), JOB)
        assert global_counts(ft.result.returns) == EXPECTED

    @pytest.mark.parametrize("knobs,limit", [
        ({"codec": "dedup+zlib"}, None),
        ({"out_of_core": True}, "7K"),
    ], ids=["codec", "out-of-core"])
    def test_restart_restores_frozen_and_spilled_records(
            self, knobs, limit, monkeypatch):
        """A death after the shuffle checkpoint restores the whole map
        output - frozen frames and spilled prefix included - into a
        container that still spills, so the counts equal a clean run's."""
        monkeypatch.setattr(chaos, "CFG", replace(chaos.CFG, **knobs))

        def run(faults):
            cluster = Cluster(COMET, nprocs=2, memory_limit=limit)
            cluster.pfs.store(INPUT_PATH, CHAOS_TEXT)
            cluster.chaos = faults
            return run_with_recovery(cluster, JOB, job_id="t")

        clean = run(None)
        ft = run(ChaosPlan().fail_at(AFTER_MAP, 1))
        assert ft.restarts == 1
        assert ft.result.returns == clean.result.returns
        assert sum(count for part in ft.result.returns
                   for _word, count in part) == len(CHAOS_TEXT.split()) == 560
