"""Reactive fault handling: stragglers, speculation, elastic membership."""

from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.wordcount import wordcount_plan
from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.ft import (
    CheckpointManager,
    ElasticPolicy,
    ElasticStageHooks,
    StragglerMonitor,
    run_elastic,
)
from repro.ft.chaos import (
    CHAOS_TAGS,
    ELASTIC_TEXT,
    elastic_wordcount,
    global_counts,
    make_elastic_cluster,
    straggler_plan,
    sweep_wordcount,
)
from repro.ft.elastic import restore_rebalanced, speculative_map
from repro.datasets.words import zipf_text
from repro.ft.injection import ChaosPlan, MembershipEvent
from repro.mpi import COMET
from repro.sched import (
    Plan,
    PlanRunner,
    ScalingPolicy,
    SchedJob,
    Scheduler,
)

CFG = MimirConfig(page_size=2048, comm_buffer_size=2048,
                  input_chunk_size=512)
#: The tiers a container of the job can have: frozen pages, and spill
#: that lands on a companion backend.
TIERED = replace(CFG, codec="zlib", storage="kv", out_of_core=True)


def wc_map(ctx, chunk):
    one = pack_u64(1)
    for word in chunk.split():
        ctx.emit(word, one)


def wc_combine(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


# ------------------------------------------------------------ validation


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        ElasticPolicy()
        ScalingPolicy()
        StragglerMonitor()

    @pytest.mark.parametrize("kwargs", [
        dict(straggler_threshold=1.0),
        dict(straggler_threshold=0.5),
        dict(min_detect_seconds=-1.0),
        dict(backup_overhead=-0.1),
        dict(max_membership_changes=-1),
        dict(min_ranks=0),
        dict(max_ranks=0),
        dict(min_ranks=8, max_ranks=4),
        dict(splits_per_rank=0),
    ])
    def test_bad_elastic_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ElasticPolicy(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(min_ranks=0),
        dict(min_ranks=8, max_ranks=4),
        dict(jobs_per_rank=0),
        dict(grow_residency=1.5),
        dict(shrink_residency=0.9, grow_residency=0.5),
        dict(step=0),
    ])
    def test_bad_scaling_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScalingPolicy(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(at=0.5, kind="restart"),
        dict(at=-1.0, kind="join"),
        dict(at=float("nan"), kind="join"),
        dict(at=0.5, kind="leave"),              # leave needs a rank
        dict(at=0.5, kind="leave", rank=-1),
        dict(at=0.5, kind="join", rank=2),       # join must not name one
    ])
    def test_bad_membership_event_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MembershipEvent(**kwargs)


class TestStragglerMonitor:
    def test_flags_outlier_over_threshold(self):
        mon = StragglerMonitor(threshold=2.0)
        assert mon.flag([1.0, 1.1, 0.9, 5.0]) == [3]
        assert mon.flag({0: 1.0, 2: 1.0, 5: 9.0}) == [5]

    def test_threshold_is_strict(self):
        mon = StragglerMonitor(threshold=2.0)
        assert mon.flag([1.0, 1.0, 2.0]) == []
        assert mon.flag([1.0, 1.0, 2.01]) == [2]

    def test_min_gap_suppresses_tiny_phases(self):
        # 3x over median but only 2ms absolute: noise, not a straggler.
        mon = StragglerMonitor(threshold=2.0, min_gap=0.01)
        assert mon.flag([0.001, 0.001, 0.003]) == []
        assert mon.flag([1.0, 1.0, 3.0]) == [2]

    def test_degenerate_inputs(self):
        mon = StragglerMonitor()
        assert mon.flag([]) == []
        assert mon.flag([0.0, 0.0]) == []

    @given(st.lists(st.floats(0.0, 1e9), min_size=1),
           st.floats(1.0, 16.0, exclude_min=True))
    def test_never_flags_everyone(self, durations, threshold):
        # The slowest healthy rank is never over the median.
        assert len(StragglerMonitor(threshold).flag(durations)) \
            < len(durations)

    def test_flag_from_metrics_uses_per_rank_phase_time(self):
        from repro.obs.registry import MetricsRegistry

        reg = MetricsRegistry()
        for rank, secs in ((0, 1.0), (1, 1.1), (2, 6.0)):
            reg.shard(rank).observe("core.phase.seconds", secs)
        assert StragglerMonitor(2.0).flag_from_metrics(reg) == [2]


class TestScalingDecisions:
    def test_deep_queue_grows(self):
        pol = ScalingPolicy(max_ranks=8)
        assert pol.decide(queue_depth=6, residency=0.5, nprocs=4) == 5

    def test_high_residency_grows_even_with_short_queue(self):
        pol = ScalingPolicy(max_ranks=8)
        assert pol.decide(queue_depth=1, residency=0.9, nprocs=4) == 5

    def test_shrink_needs_low_residency(self):
        pol = ScalingPolicy()
        assert pol.decide(queue_depth=1, residency=0.5, nprocs=4) == 4
        assert pol.decide(queue_depth=1, residency=0.1, nprocs=4) == 3

    def test_clamped_to_bounds(self):
        pol = ScalingPolicy(min_ranks=2, max_ranks=4)
        assert pol.decide(queue_depth=100, residency=0.9, nprocs=4) == 4
        assert pol.decide(queue_depth=0, residency=0.0, nprocs=2) == 2


# --------------------------------------------------------- membership ops


class TestMembershipPlan:
    def test_leave_fires_once_at_probe(self):
        plan = ChaosPlan(0, membership=[
            MembershipEvent(at=0.5, kind="leave", rank=1)])
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)

        def job(env):
            env.comm.advance(1.0)
            plan.membership_check(env.comm, "tick")
            return "survived"

        from repro.mpi import RankFailedError
        with pytest.raises(RankFailedError) as info:
            cluster.run(job)
        assert info.value.rank == 1

    def test_due_events_consumed_in_order(self):
        plan = ChaosPlan(0, membership=[
            MembershipEvent(at=0.2, kind="join"),
            MembershipEvent(at=0.1, kind="leave", rank=0),
            MembershipEvent(at=9.0, kind="join")])
        due = plan.membership_due(1.0)
        assert [(e.kind, e.rank) for e in due] == [("leave", 0),
                                                   ("join", None)]
        # Consumed: a second sweep finds only the far-future one left.
        assert plan.membership_due(10.0)[0].at == 9.0
        assert plan.membership_due(10.0) == []

    def test_remove_rank_shifts_stragglers(self):
        plan = ChaosPlan(0, stragglers={1: 4.0, 3: 2.0})
        plan.remove_rank(1)
        # The departed straggler takes its slowness with it; rank 3
        # becomes rank 2.
        assert plan.stragglers == {2: 2.0}

    def test_random_membership_keeps_classic_schedule(self):
        classic = ChaosPlan.random(7, 4)
        with_members = ChaosPlan.random(7, 4, membership=True)
        assert classic.stragglers == with_members.stragglers
        assert classic.io_error_rate == with_members.io_error_rate
        assert not classic.membership
        assert with_members.membership


class TestClusterResize:
    def test_resize_changes_gang_for_next_launch(self):
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)
        assert cluster.run(lambda env: env.comm.size).returns == [4] * 4
        cluster.resize(2)
        assert cluster.run(lambda env: env.comm.size).returns == [2] * 2

    def test_resize_rederives_auto_limit(self):
        cluster = Cluster(COMET, nprocs=4, memory_limit="auto")
        before = cluster.memory_limit_per_rank
        cluster.resize(2)
        # Half the ranks per node => each rank's share grows.
        assert cluster.memory_limit_per_rank > before

    def test_resize_rejects_nonpositive(self):
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)
        with pytest.raises(ValueError):
            cluster.resize(0)

    def test_pfs_survives_resize(self):
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)
        cluster.pfs.store("x", b"data")
        cluster.resize(2)
        assert cluster.pfs.fetch("x") == b"data"


# ----------------------------------------------------- speculation + maps


def spec_wc(env, policy=None):
    mimir = Mimir(env, CFG)
    kvc = speculative_map(mimir, "input/elastic_words.txt", wc_map,
                          policy=policy, combine_fn=wc_combine)
    out = mimir.partial_reduce(kvc, wc_combine)
    return sorted((k, unpack_u64(v)) for k, v in out.consume())


class TestSpeculativeMap:
    def expected(self):
        from collections import Counter

        return tuple(sorted(Counter(ELASTIC_TEXT.split()).items()))

    def test_matches_plain_wordcount_without_faults(self):
        result = make_elastic_cluster(4).run(spec_wc)
        assert global_counts(result.returns) == self.expected()

    def test_straggler_mitigated_and_bit_identical(self):
        policy = ElasticPolicy(evict_stragglers=False, splits_per_rank=12)
        fair = make_elastic_cluster(4).run(spec_wc, policy)
        base_time = fair.elapsed

        slow = make_elastic_cluster(4)
        slow.chaos = straggler_plan(0, 4)   # one rank 4-8x slower
        (rank, factor), = slow.chaos.stragglers.items()
        mitigated = slow.run(spec_wc, policy)

        assert global_counts(mitigated.returns) == self.expected()
        assert mitigated.elapsed <= 1.6 * base_time, \
            f"straggler x{factor} not mitigated: {mitigated.elapsed}"

    def test_speculation_off_is_unbounded(self):
        policy = ElasticPolicy(speculate=False, evict_stragglers=False)
        fair = make_elastic_cluster(4).run(spec_wc, policy)
        slow = make_elastic_cluster(4)
        slow.chaos = ChaosPlan(0, stragglers={1: 6.0})
        hit = slow.run(spec_wc, policy)
        assert global_counts(hit.returns) == self.expected()
        assert hit.elapsed >= 4.0 * fair.elapsed

    def test_speculation_metrics_counted(self):
        policy = ElasticPolicy(evict_stragglers=False, splits_per_rank=8)
        cluster = make_elastic_cluster(4)
        cluster.chaos = ChaosPlan(0, stragglers={2: 6.0})
        cluster.run(spec_wc, policy)
        totals = cluster.metrics.totals()
        assert totals.get("ft.straggler.flagged", 0) >= 1
        assert totals.get("ft.speculation.launched", 0) >= 1
        assert totals.get("ft.speculation.won", 0) >= 1
        assert totals.get("ft.speculation.won", 0) \
            + totals.get("ft.speculation.discarded", 0) \
            <= 2 * totals.get("ft.speculation.launched", 0)


    # ---- one map path: what the plain map does, the elastic map does

    ZIPF = zipf_text(64 * 1024, vocab_size=200)

    def mapped(self, config, *, elastic, combine_fn=None, limit=None,
               nprocs=2, text=ZIPF, watch=None, map_fn=wc_map):
        """Per rank ``(records held, memory_bytes, records shipped,
        tracked peak)`` of one map of ``text``, elastic or plain."""
        cluster = Cluster(COMET, nprocs=nprocs, memory_limit=limit,
                          storage="pfs")
        cluster.pfs.store("m.txt", text)

        class Watched(Mimir):
            def container(self, layout, tag, **tiers):
                made = super().container(layout, tag, **tiers)
                if watch is not None and "_t" in tag:
                    watch.append(made)
                return made

        def job(env):
            mimir = Watched(env, config)
            kvc = speculative_map(mimir, "m.txt", map_fn,
                                  combine_fn=combine_fn) if elastic else \
                mimir.map_text_file("m.txt", map_fn, combine_fn=combine_fn)
            seen = (len(kvc), kvc.memory_bytes,
                    mimir.last_map_stats["records"], env.tracker.peak)
            kvc.free()
            return seen

        return cluster, cluster.run(job)

    @pytest.mark.parametrize("elastic", [True, False])
    def test_ships_one_record_per_word_and_pays_for_the_buffers(
            self, elastic):
        # Nine distinct words: the engine's combiner in front of the
        # engine's shuffle ships nine records per rank (36-144 when the
        # elastic map combined per task only), through both buffers.
        _, result = self.mapped(CFG, elastic=elastic, nprocs=4,
                                combine_fn=wc_combine, text=ELASTIC_TEXT)
        for _, _, shipped, peak in result.returns:
            assert shipped == 9
            assert peak >= 2 * CFG.comm_buffer_size

    def test_output_is_frozen_like_the_plain_maps(self):
        cfg = replace(CFG, codec="zlib")
        _, plain = self.mapped(cfg, elastic=False)
        _, hooked = self.mapped(cfg, elastic=True)
        for (n, mem, _, _), (pn, pmem, _, _) in zip(hooked.returns,
                                                    plain.returns):
            assert n == pn
            assert abs(mem - pmem) <= cfg.page_size
            assert mem < n * 8      # frozen: under a third of the raw pages

    def test_spill_lands_where_the_plain_maps_does(self):
        held, finished = [], []

        def wc_map_watching(ctx, chunk):
            # Called once per task: every earlier task is finished.
            finished.extend((kvc.npages, kvc.spilled_bytes)
                            for kvc in held[:-1])
            wc_map(ctx, chunk)

        cfg = replace(CFG, storage="kv", out_of_core=True)
        _, plain = self.mapped(replace(cfg, storage=None), elastic=False,
                               limit="50K")
        cluster, hooked = self.mapped(cfg, elastic=True, limit="50K",
                                      watch=held, map_fn=wc_map_watching)
        assert [r[0] for r in hooked.returns] == \
            [r[0] for r in plain.returns]
        assert cluster.pfs.spilled_bytes == 0
        assert cluster.pfs.companion("kv").spilled_bytes > 0
        # A finished task's output is cold: one resident page at most.
        assert max(npages for npages, _ in finished) <= 1
        assert any(spilled for _, spilled in finished)


class TestRestoreRebalanced:
    def save_with(self, pfs, nprocs, nonce="j", cfg=CFG):
        def job(env):
            ckpt = CheckpointManager(env, "j", nonce=nonce)
            kvc = speculative_map(Mimir(env, cfg), "input/elastic_words.txt",
                                  wc_map, combine_fn=wc_combine)
            ckpt.save_kvc("shuffle", kvc)

        cluster = make_elastic_cluster(nprocs)
        cluster.pfs = pfs if pfs is not None else cluster.pfs
        if pfs is not None:
            pfs.store("input/elastic_words.txt", ELASTIC_TEXT)
        cluster.run(job)
        return cluster.pfs

    def restore_with(self, pfs, nprocs, nonce="j", cfg=CFG):
        def job(env):
            ckpt = CheckpointManager(env, "j", nonce=nonce)
            kvc = restore_rebalanced(Mimir(env, cfg), ckpt, "shuffle",
                                     cfg.layout, "kv_rebalanced")
            if kvc is None:
                return None
            return sorted((k, unpack_u64(v)) for k, v in kvc.consume())

        cluster = make_elastic_cluster(nprocs)
        cluster.pfs = pfs
        return cluster.run(job)

    @pytest.mark.parametrize("old,new", [(4, 4), (4, 2), (2, 4), (4, 3)])
    def test_rebalance_across_gang_sizes(self, old, new):
        pfs = self.save_with(None, old)
        result = self.restore_with(pfs, new)
        expected = self.save_and_count()
        assert global_counts(result.returns) == expected

    @pytest.mark.parametrize("old,new", [(4, 2), (2, 4), (4, 3)])
    def test_rebalance_keeps_the_jobs_tiers(self, old, new):
        pfs = self.save_with(None, old, cfg=TIERED)
        result = self.restore_with(pfs, new, cfg=TIERED)
        assert global_counts(result.returns) == self.save_and_count()

    def save_and_count(self):
        from collections import Counter

        return tuple(sorted(Counter(ELASTIC_TEXT.split()).items()))

    def test_missing_checkpoint_returns_none(self):
        cluster = make_elastic_cluster(2)
        result = self.restore_with(cluster.pfs, 2)
        assert result.returns == [None, None]

    def test_partial_save_is_rejected_whole(self):
        # A 4-rank save that died between data and markers must not be
        # restorable by a smaller gang as a "complete" checkpoint, even
        # though a valid prefix of partitions exists.
        cfg = CFG
        faults = ChaosPlan().fail_at("ckpt:shuffle:precommit", 2)

        def dying_save(env):
            ckpt = CheckpointManager(env, "j", nonce="j", faults=faults)
            kvc = speculative_map(Mimir(env, cfg), "input/elastic_words.txt",
                                  wc_map, combine_fn=wc_combine)
            ckpt.save_kvc("shuffle", kvc)

        from repro.mpi import RankFailedError

        cluster = make_elastic_cluster(4)
        with pytest.raises(RankFailedError):
            cluster.run(dying_save)
        result = self.restore_with(cluster.pfs, 2)
        assert result.returns == [None, None]


# ------------------------------------------------------ the elastic driver


class TestRunElastic:
    def baseline(self):
        res = run_elastic(make_elastic_cluster(4), elastic_wordcount,
                          job_id="base")
        assert res.attempts == 1 and not res.membership_log
        return global_counts(res.result.returns)

    def test_death_shrinks_instead_of_restarting_at_size(self):
        expected = self.baseline()
        plan = ChaosPlan(0).fail_at("after_shuffle", 1)
        res = run_elastic(make_elastic_cluster(4), elastic_wordcount,
                          faults=plan, job_id="death")
        assert res.final_nprocs == 3
        assert [m.kind for m in res.membership_log] == ["death"]
        assert res.log_counts() == {"rank-death": 1}
        assert global_counts(res.result.returns) == expected

    def test_scheduled_leave_and_join(self):
        expected = self.baseline()
        plan = ChaosPlan(0, membership=[
            MembershipEvent(at=0.001, kind="leave", rank=2),
            MembershipEvent(at=0.01, kind="join")])
        res = run_elastic(make_elastic_cluster(4), elastic_wordcount,
                          faults=plan, job_id="members")
        kinds = [m.kind for m in res.membership_log]
        assert kinds == ["leave", "join"]
        assert res.final_nprocs == 4
        assert global_counts(res.result.returns) == expected

    def test_straggler_eviction_removes_slow_host(self):
        expected = self.baseline()
        plan = ChaosPlan(0, stragglers={1: 6.0})
        res = run_elastic(make_elastic_cluster(4), elastic_wordcount,
                          faults=plan,
                          policy=ElasticPolicy(splits_per_rank=8),
                          job_id="evict")
        assert [m.kind for m in res.membership_log] == ["evict"]
        assert [m.rank for m in res.membership_log] == [1]
        assert res.final_nprocs == 3
        # The straggler's slowness left with it.
        assert not plan.stragglers
        assert global_counts(res.result.returns) == expected

    def test_min_ranks_stops_shrinking(self):
        plan = ChaosPlan(0, membership=[
            MembershipEvent(at=0.001, kind="leave", rank=0),
            MembershipEvent(at=0.002, kind="leave", rank=0)])
        res = run_elastic(make_elastic_cluster(2), elastic_wordcount,
                          faults=plan,
                          policy=ElasticPolicy(min_ranks=1),
                          job_id="floor")
        assert res.final_nprocs == 1
        assert res.result is not None

    def test_combined_faults_converge_bit_identical(self):
        """Satellite: straggler + rank death + transient-I/O burst in
        one run; output must match the fault-free run and the failure
        log must classify every event."""
        expected = self.baseline()
        plan = ChaosPlan(0, stragglers={2: 5.0},
                         io_error_rate=0.05).fail_at("after_shuffle", 1)
        res = run_elastic(make_elastic_cluster(4), elastic_wordcount,
                          faults=plan,
                          policy=ElasticPolicy(evict_stragglers=False,
                                               splits_per_rank=8),
                          job_id="combined", max_restarts=10)
        assert global_counts(res.result.returns) == expected
        log = res.log_counts()
        assert log.get("rank-death") == 1
        assert log.get("retry", 0) >= 1          # transient I/O absorbed
        assert [m.kind for m in res.membership_log] == ["death"]
        assert res.final_nprocs == 3
        spec = [r for r in res.speculation if r.flagged]
        assert spec and spec[-1].won >= 1        # straggler speculated

    def test_chaos_membership_sweep_converges(self):
        expected = self.baseline()
        for seed in range(4):
            plan = ChaosPlan.random(seed, 4, tags=CHAOS_TAGS,
                                    membership=True)
            res = run_elastic(make_elastic_cluster(4), elastic_wordcount,
                              faults=plan, job_id="chaos",
                              max_restarts=12)
            assert global_counts(res.result.returns) == expected, \
                f"seed {seed} diverged"

    def test_membership_metric_counted(self):
        cluster = make_elastic_cluster(4)
        plan = ChaosPlan(0, membership=[
            MembershipEvent(at=0.001, kind="leave", rank=1)])
        run_elastic(cluster, elastic_wordcount, faults=plan, job_id="m")
        assert cluster.metrics.totals().get("ft.membership.changes") == 1

    def test_sweep_job_matches_checkpointed_job(self):
        a = run_elastic(make_elastic_cluster(4), elastic_wordcount,
                        job_id="a")
        b = run_elastic(make_elastic_cluster(4), sweep_wordcount,
                        job_id="b")
        assert global_counts(a.result.returns) \
            == global_counts(b.result.returns)


# ----------------------------------------------- scheduler integration


class TestPlanRunnerHooks:
    TEXT = b"oak elm ash fir oak elm oak yew ash oak " * 400

    def run_wc(self, *, elastic=None, chaos=None):
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)
        cluster.pfs.store("t.txt", self.TEXT)
        cluster.chaos = chaos

        def job(env):
            plan = Plan("wc", CFG)
            out = plan.read_text("t.txt", name="input") \
                .map(wc_map, combine_fn=wc_combine, name="count") \
                .partial_reduce(wc_combine, name="sum")
            runner = PlanRunner(env, plan, elastic=elastic)
            return sorted((k, unpack_u64(v))
                          for k, v in runner.collect(out))

        return cluster.run(job)

    def test_elastic_map_matches_plain(self):
        plain = self.run_wc()
        hooked = self.run_wc(elastic=ElasticStageHooks())
        assert global_counts(hooked.returns) == global_counts(plain.returns)

    @pytest.mark.parametrize("stack", [False, True],
                             ids=["plain", "hint+compress"])
    @pytest.mark.parametrize("batch", [False, True],
                             ids=["per-record", "batch"])
    def test_app_kernels_run_under_the_hooks(self, batch, stack):
        """The app's own kernels, batch forms included, see the engine's
        context and combiner under the hooks."""
        def run(elastic):
            cluster = Cluster(COMET, nprocs=4, memory_limit=None)
            cluster.pfs.store("t.txt", self.TEXT)

            def job(env):
                found = wordcount_plan(
                    env, "t.txt", CFG, hint=stack, compress=stack,
                    batch=batch, collect=True,
                    runner=partial(PlanRunner, env, elastic=elastic))
                return tuple(sorted(found.counts.items()))

            return global_counts(cluster.run(job).returns)

        assert run(ElasticStageHooks()) == run(None)

    def test_straggler_under_plan_is_mitigated_and_reported(self):
        hooks = ElasticStageHooks(ElasticPolicy(splits_per_rank=8))
        plain = self.run_wc()
        unmitigated = self.run_wc(chaos=ChaosPlan(0, stragglers={3: 6.0}))
        slowed = self.run_wc(elastic=hooks,
                             chaos=ChaosPlan(0, stragglers={3: 6.0}))
        assert global_counts(slowed.returns) == global_counts(plain.returns)
        assert hooks.reports and hooks.reports[0].flagged == [3]
        # Speculation recovers most of what the x6 straggler costs the
        # plain runner (post-map stages still run on the slow clock).
        assert slowed.elapsed <= 0.5 * unmitigated.elapsed

    def test_non_map_stage_durations_feed_monitor(self):
        hooks = ElasticStageHooks()
        self.run_wc(elastic=hooks)
        # No straggler: the monitor saw stages but flagged nothing.
        assert hooks.flags == {}


class TestSchedulerScaling:
    def make_job(self, name):
        def fn(env, ctx):
            env.tracker.allocate(50_000, "work")
            env.comm.barrier()
            env.tracker.free(50_000, "work")
            return env.comm.size

        return SchedJob(name, fn, footprint="300K", config=CFG)

    def test_deep_queue_grows_gang(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit="512K")
        sched = Scheduler(cluster,
                          scaling=ScalingPolicy(min_ranks=2, max_ranks=4,
                                                jobs_per_rank=0.5))
        for i in range(4):
            sched.submit(self.make_job(f"j{i}"))
        report = sched.run()
        assert all(report.outcome(f"j{i}").completed for i in range(4))
        assert sched.scale_events, "queue pressure never scaled the gang"
        assert all(2 <= n <= 4 for _, n in sched.scale_events)
        assert cluster.nprocs > 2
        # Jobs launched after the scale-up actually saw the wider gang.
        sizes = {report.outcome(f"j{i}").returns[0] for i in range(4)}
        assert max(sizes) > 2

    def test_scaling_counts_membership_metric(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit="512K")
        sched = Scheduler(cluster,
                          scaling=ScalingPolicy(min_ranks=2, max_ranks=4,
                                                jobs_per_rank=0.5))
        for i in range(4):
            sched.submit(self.make_job(f"s{i}"))
        sched.run()
        assert cluster.metrics.totals().get("ft.membership.changes") \
            == len(sched.scale_events)

    def test_no_policy_means_no_scaling(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit="512K")
        sched = Scheduler(cluster)
        for i in range(4):
            sched.submit(self.make_job(f"p{i}"))
        report = sched.run()
        assert all(report.outcome(f"p{i}").completed for i in range(4))
        assert sched.scale_events == []
        assert cluster.nprocs == 2
