"""Multi-job scheduler: admission, gangs, degradation, OOM recovery."""

import pytest

from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.mpi import COMET
from repro.sched import FootprintEstimator, SchedJob, Scheduler
from repro.sched.demo import make_job, stage_inputs
from repro.obs import (
    SCHED_EVENT_KINDS,
    Trace,
    composition_at_peak,
    render_job_lanes,
    to_chrome_trace,
    validate_chrome_trace,
)

CFG = MimirConfig(page_size=2048, comm_buffer_size=2048,
                  input_chunk_size=512)


def alloc_job(nbytes, *, check_degraded=None):
    """A job that transiently allocates ``nbytes`` on every rank."""

    def fn(env, ctx):
        if check_degraded is not None:
            assert ctx.degraded is check_degraded
            assert ctx.config.out_of_core is check_degraded
        env.tracker.allocate(nbytes, "work")
        env.comm.barrier()
        env.tracker.free(nbytes, "work")
        return env.comm.rank

    return fn


def make_scheduler(memory_limit="512K", nprocs=2, **kwargs):
    trace = Trace()
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=memory_limit,
                      trace=trace)
    return Scheduler(cluster, **kwargs), trace


class TestAdmission:
    def test_trackers_keep_the_clusters_timeline(self):
        # The scheduler's trackers keep a timeline when the cluster's
        # do, so a drain can be broken down by tag.
        cluster = Cluster(COMET, nprocs=2, memory_limit="512K",
                          keep_timeline=True)
        sched = Scheduler(cluster)
        sched.submit(SchedJob("a", alloc_job(50_000),
                              footprint="100K", config=CFG))
        assert sched.run().ooms == 0
        assert composition_at_peak(sched.trackers[0]) == {"work": 50_000}

    def test_oversubscribed_jobs_serialize(self):
        # Budget: 512K * 0.9 = 460.8K; two 300K jobs cannot share it.
        sched, trace = make_scheduler()
        sched.submit(SchedJob("a", alloc_job(100_000), priority=1,
                              footprint="300K", config=CFG))
        sched.submit(SchedJob("b", alloc_job(100_000),
                              footprint="300K", config=CFG))
        report = sched.run()
        assert report.rounds == 2 and report.ooms == 0
        assert report.outcome("a").round == 1
        assert report.outcome("b").round == 2
        assert report.outcome("b").queued_rounds == 1
        queued = trace.of_kind("queue")
        assert [e.data["job"] for e in queued] == ["b"]

    def test_fitting_jobs_gang_into_one_round(self):
        sched, trace = make_scheduler()
        sched.submit(SchedJob("a", alloc_job(50_000),
                              footprint="100K", config=CFG))
        sched.submit(SchedJob("b", alloc_job(50_000),
                              footprint="100K", config=CFG))
        report = sched.run()
        assert report.rounds == 1 and report.ooms == 0
        assert report.outcome("a").round == report.outcome("b").round == 1
        assert not trace.of_kind("queue")

    def test_priority_beats_submission_order(self):
        sched, _ = make_scheduler()
        sched.submit(SchedJob("late", alloc_job(1000), priority=0,
                              footprint="300K", config=CFG))
        sched.submit(SchedJob("urgent", alloc_job(1000), priority=5,
                              footprint="300K", config=CFG))
        report = sched.run()
        assert report.outcome("urgent").round == 1
        assert report.outcome("late").round == 2

    def test_oversized_job_degrades_to_out_of_core(self):
        sched, _ = make_scheduler()
        sched.submit(SchedJob("huge", alloc_job(1000, check_degraded=True),
                              footprint="600K", config=CFG))
        report = sched.run()
        outcome = report.outcome("huge")
        assert outcome.completed and outcome.degraded
        assert report.ooms == 0

    def test_non_degradable_oversized_job_runs_plain(self):
        sched, _ = make_scheduler()
        sched.submit(SchedJob("huge", alloc_job(1000, check_degraded=False),
                              footprint="600K", degradable=False,
                              config=CFG))
        report = sched.run()
        assert report.outcome("huge").completed
        assert not report.outcome("huge").degraded

    def test_unlimited_memory_admits_everything(self):
        sched, _ = make_scheduler(memory_limit=None)
        for i in range(4):
            sched.submit(SchedJob(f"j{i}", alloc_job(1000),
                                  footprint="10M", config=CFG))
        report = sched.run()
        assert report.rounds == 1
        assert all(o.completed for o in report.outcomes)


class TestEstimator:
    def test_seeded_then_learned(self):
        est = FootprintEstimator(nprocs=4)
        job = SchedJob("j", alloc_job(0), input_bytes=40_000)
        seeded = est.estimate(job, CFG)
        assert seeded == 2 * CFG.comm_buffer_size + 4 * CFG.page_size \
            + int(40_000 / 4 * FootprintEstimator.EXPANSION)
        est.observe("j", 80_000)
        assert est.estimate(job, CFG) == int(80_000 * 1.25)
        est.observe("j", 50_000)  # never forgets a higher peak
        assert est.estimate(job, CFG) == int(80_000 * 1.25)
        declared = SchedJob("d", alloc_job(0), footprint="64K")
        assert est.estimate(declared, CFG) == 64 * 1024

    def test_scheduler_refines_from_observed_peak(self):
        sched, _ = make_scheduler()
        sched.submit(SchedJob("j", alloc_job(150_000), config=CFG))
        report = sched.run()
        first = report.outcome("j")
        assert first.completed
        assert sched.estimator.observed["j"] >= 150_000
        # Resubmission is admitted on the learned peak, not the seed.
        sched.submit(SchedJob("j", alloc_job(150_000), config=CFG))
        again = sched.run().outcome("j")
        assert again.estimate == int(sched.estimator.observed["j"] * 1.25) \
            or again.estimate >= 150_000


class TestOOMRecovery:
    def test_blown_estimate_is_absorbed_then_failed(self):
        # Declares 10K, allocates 300K on a 256K rank: every attempt
        # OOMs; the scheduler must absorb each one and finally give up
        # without crashing the run.
        sched, trace = make_scheduler(memory_limit="256K")
        sched.submit(SchedJob("liar", alloc_job(300_000),
                              footprint="10K", config=CFG))
        sched.submit(SchedJob("honest", alloc_job(1000),
                              footprint="10K", config=CFG))
        report = sched.run()
        liar = report.outcome("liar")
        assert liar.failed and not liar.completed
        assert "out of memory" in liar.error
        assert report.ooms >= 1
        assert trace.of_kind("oom")
        # Estimates were bumped after the blown round.
        assert sched.estimator.observed["liar"] >= 20 * 1024
        # The honest co-scheduled job still completes eventually.
        assert report.outcome("honest").completed
        # Post-OOM state is clean: fresh trackers, empty caches.
        assert all(t.current == 0 for t in sched.trackers)
        assert all(not c.entries for c in sched.caches)

    def test_retry_starts_after_the_aborted_launch(self):
        # The liar's span closes as its launch aborts; each retry (the
        # liar's, then the honest job's solo round) must start on the
        # scheduler clock after that abort, not back at its base.
        def spanned(lead, work, nbytes):
            def fn(env, ctx):
                env.comm.advance(lead)
                with env.trace.span(env, "work", job=ctx.name):
                    env.comm.advance(work)
                    env.tracker.allocate(nbytes, "work")
                    env.tracker.free(nbytes, "work")
            return fn

        sched, trace = make_scheduler(memory_limit="256K")
        sched.submit(SchedJob("liar", spanned(0.0, 0.1, 300_000),
                              priority=1, footprint="10K", config=CFG))
        sched.submit(SchedJob("honest", spanned(0.05, 0.3, 1000),
                              footprint="10K", config=CFG))
        report = sched.run()
        assert report.ooms == 2 and report.outcome("liar").failed
        assert report.outcome("honest").completed
        validate_chrome_trace(to_chrome_trace(trace))
        rank = trace.of_kind("oom")[0].data["oom_rank"]
        spans = [e for e in trace.of_kind("span") if e.rank == rank]
        assert [e.data["job"] for e in spans] == ["liar", "liar", "honest"]
        for aborted, retry in zip(spans, spans[1:]):
            assert retry.time >= aborted.time + aborted.dur
        assert sched.clock >= spans[-1].time + spans[-1].dur


class TestPipelines:
    def test_concurrent_wordcount_pagerank_zero_oom(self):
        trace = Trace()
        cluster = Cluster(COMET, nprocs=2, memory_limit="1M", trace=trace)
        paths = stage_inputs(cluster, text_bytes=1 << 12, graph_scale=5)
        sched = Scheduler(cluster)
        sched.submit(make_job("wordcount", paths, priority=2,
                              footprint="256K"))
        sched.submit(make_job("pagerank", paths, priority=1,
                              footprint="288K", iterations=2))
        report = sched.run()
        assert report.ooms == 0
        wc, pr = report.outcome("wordcount"), report.outcome("pagerank")
        assert wc.completed and pr.completed
        assert wc.round == pr.round == 1  # truly co-scheduled
        lanes = render_job_lanes(trace)
        assert "wordcount" in lanes and "pagerank" in lanes
        assert all(e.kind in SCHED_EVENT_KINDS
                   for e in trace.events
                   if e.kind not in ("phase", "exchange", "spill"))

    def test_demo_jobs_take_their_rows_defaults(self, monkeypatch):
        # Only DEMO_PARAMS and an explicit ``iterations`` touch a row's
        # params: components keeps its convergence cap.
        import repro.sched.demo as demo
        from repro.serve.catalog import SERVE_APPS

        seen = {}

        def capture(app, _job, _path, params, **_kw):
            seen[app] = params
            return params

        monkeypatch.setattr(demo, "to_sched_job", capture)
        paths = dict.fromkeys(SERVE_APPS, "in")
        for app in SERVE_APPS:
            make_job(app, paths)
        assert seen == {**dict.fromkeys(SERVE_APPS, {}),
                        "kmeans": {"iterations": 5}}
        assert make_job("components", paths, iterations=2) == {
            "iterations": 2}
        with pytest.raises(ValueError, match="unknown demo app 'terasort'"):
            make_job("terasort", paths)

    def test_cancelled_job_lane_ends_in_c(self):
        trace = Trace()
        sched = Scheduler(Cluster(COMET, nprocs=2, memory_limit=None,
                                  trace=trace))
        sched.submit(SchedJob("a", lambda env, ctx: env.comm.advance(0.1)))
        sched.submit(SchedJob("b", lambda env, ctx: None))
        assert sched.cancel("b").name == "b"
        assert sched.run().outcome("a").completed
        assert "cancel" in SCHED_EVENT_KINDS
        *lanes, legend = render_job_lanes(trace, width=6).splitlines()
        # Cancelled in the cell it was submitted in: the later mark wins.
        assert lanes[1] == "b |c·····|" and "c cancel" in legend

    def test_cache_shared_across_jobs_and_runs(self):
        # Two PageRank submissions - one per run() drain - build the
        # same adjacency stage; the second must reuse the cached
        # container instead of re-shuffling the edge list.
        trace = Trace()
        cluster = Cluster(COMET, nprocs=2, memory_limit=None, trace=trace)
        paths = stage_inputs(cluster, graph_scale=5)
        sched = Scheduler(cluster)

        def pr(env, ctx):
            from repro.apps.pagerank import pagerank_plan

            return pagerank_plan(env, paths["pagerank"], ctx.config, hint=True,
                                 iterations=2, runner=ctx.runner).ranks

        sched.submit(SchedJob("pr1", pr))
        first = sched.run()
        sched.submit(SchedJob("pr2", pr))
        second = sched.run()
        assert first.outcome("pr1").completed
        assert second.outcome("pr2").completed
        r1 = {v: s for part in first.outcome("pr1").returns
              for v, s in part.items()}
        r2 = {v: s for part in second.outcome("pr2").returns
              for v, s in part.items()}
        assert r1 == r2
        built = [e for e in trace.of_kind("stage-done")
                 if e.data.get("stage") == "adjacency-sorted"]
        # Executed once per rank, by pr1 only; pr2 hit the cache.
        assert len(built) == cluster.nprocs
        assert {e.data["job"] for e in built} == {"pr1"}
        assert all(c.stats.hits > 0 for c in sched.caches)


class TestSubmission:
    def test_submit_plain_function(self):
        sched, trace = make_scheduler(memory_limit=None)
        sched.submit(lambda env, ctx: 42, name="answer")
        report = sched.run()
        assert report.outcome("answer").returns == [42, 42]
        assert [e.data["job"] for e in trace.of_kind("submit")] \
            == ["answer"]
        with pytest.raises(KeyError):
            report.outcome("nope")

    def test_render_log_lists_every_job(self):
        sched, _ = make_scheduler(memory_limit=None)
        sched.submit(lambda env, ctx: None, name="alpha")
        sched.submit(lambda env, ctx: None, name="beta")
        log = sched.run().render_log()
        assert "alpha" in log and "beta" in log and "round" in log

    def test_bad_reserve_rejected(self):
        cluster = Cluster(COMET, nprocs=1, memory_limit="1M")
        with pytest.raises(ValueError, match="reserve"):
            Scheduler(cluster, reserve=1.0)
