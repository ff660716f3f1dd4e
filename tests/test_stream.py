"""Streaming runtime: windows, sources, and runner edge cases.

The edge cases the window/watermark machinery must get right: empty
windows, a batch straddling a window boundary, late records arriving
behind the watermark, and a stream killed mid-run resuming from its
checkpointed windows - every one validated bit-identical against the
full-batch twin over the same total input.
"""

from functools import partial

import pytest

from repro.cluster import Cluster
from repro.ft import ChaosPlan
from repro.ft.runner import run_with_recovery
from repro.mpi import COMET, RankFailedError
from repro.sched import PlanRunner, StageCache
from repro.serve.catalog import merge_output
from repro.stream import (
    GrowingWindows,
    MicroBatch,
    SlidingWindows,
    StreamRecord,
    StreamRunner,
    StreamSource,
    TumblingWindows,
)
from repro.stream.demo import (
    DEMO_CONFIG,
    catalog_twin,
    make_doc_stream,
    run_scenario,
)
from repro.stream.scenarios import StreamWordCount

NPROCS = 3


def make_cluster():
    return Cluster(COMET, nprocs=NPROCS, memory_limit=None)


def render_run(runs):
    return merge_output("wordcount", [r["final"] for r in runs])


def reference_render(stream):
    return catalog_twin(StreamWordCount, stream, NPROCS)


# ---------------------------------------------------------------------
# window assigners
# ---------------------------------------------------------------------

class TestWindows:
    def test_tumbling_partitions_time(self):
        w = TumblingWindows(10.0)
        assert w.window(0).start == 0.0 and w.window(0).end == 10.0
        assert w.window(3).contains(30.0)
        assert not w.window(3).contains(40.0)  # end-exclusive
        assert w.last_wid(29.9) == 2
        assert w.last_wid(30.0) == 3

    def test_sliding_overlaps(self):
        w = SlidingWindows(10.0, 5.0)
        assert (w.window(0).start, w.window(0).end) == (0.0, 10.0)
        assert (w.window(1).start, w.window(1).end) == (5.0, 15.0)
        # t=7 lives in both windows 0 and 1.
        assert w.window(0).contains(7.0) and w.window(1).contains(7.0)

    def test_sliding_rejects_gaps(self):
        with pytest.raises(ValueError):
            SlidingWindows(5.0, 10.0)

    def test_growing_is_a_landmark(self):
        w = GrowingWindows(10.0)
        assert w.window(2).start == 0.0 and w.window(2).end == 30.0
        assert w.window(2).contains(5.0)  # every window sees the origin

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), 0.0, -1.0])
    @pytest.mark.parametrize("make", [
        TumblingWindows, GrowingWindows,
        lambda x: SlidingWindows(x, 5.0),
        lambda x: SlidingWindows(10.0, x),
    ], ids=["tumbling", "growing", "sliding-size", "sliding-step"])
    def test_sizes_must_be_positive_and_finite(self, make, bad):
        # A NaN or infinite size built windows like [nan, nan) that
        # silently held no record.
        with pytest.raises(ValueError, match="positive and finite"):
            make(bad)


class TestStreamSource:
    def test_from_payload_batches_schedules_arrivals(self):
        src = StreamSource.from_payload_batches(
            "s", [[(0, b"a")], [(1, b"b")]], interval=5.0)
        batches = list(src.schedule())
        assert [b.arrival for b in batches] == [0.0, 5.0]
        assert batches[1].records[0].time == 5.0

    def test_push_appends_live_batches(self):
        src = StreamSource("live")
        b0 = src.push([b"x"], arrival=1.0)
        b1 = src.push([b"y"], arrival=2.0)
        assert (b0.index, b1.index) == (0, 1)
        assert len(list(src.records())) == 2

    def test_repr_is_stable_across_pushes(self):
        # The repr feeds stage-identity hashing: pushing more batches
        # must never change it, or batch stages would lose their keys.
        src = StreamSource("live")
        before = repr(src)
        src.push([b"x"], arrival=1.0)
        assert repr(src) == before


# ---------------------------------------------------------------------
# runner edge cases
# ---------------------------------------------------------------------

def manual_stream(*batches):
    """Build a stream from (arrival, [(time, payload), ...]) specs."""
    built = []
    for index, (arrival, records) in enumerate(batches):
        built.append(MicroBatch(index, arrival, tuple(
            StreamRecord(t, p) for t, p in records)))
    return StreamSource("manual", tuple(built))


class TestRunnerEdgeCases:
    def test_empty_windows_still_close(self):
        # Records at t=0 and t=55 with 10s windows: windows 1..4 hold
        # nothing but must still close (with empty payloads) so the
        # timeline stays gap-free.
        stream = manual_stream(
            (0.0, [(0.0, (0, b"alpha beta"))]),
            (55.0, [(55.0, (1, b"beta"))]),
        )
        cluster = make_cluster()
        runs = cluster.run(lambda env: run_scenario(
            env, StreamWordCount, stream, TumblingWindows(10.0))).returns
        assert runs[0]["closed"] == 6
        empty = [wid for wid in runs[0]["windows"]
                 if not any(r["windows"][wid] for r in runs)]
        assert set(empty) == {1, 2, 3, 4}
        assert render_run(runs) == reference_render(stream)

    def test_batch_straddling_a_boundary_refilters(self):
        # Batch 0 spans windows 0 and 1, so its cached whole-batch
        # aggregate is unusable for either; the straddle slice path
        # must produce the same totals the batch twin computes.
        stream = manual_stream(
            (0.0, [(2.0, (0, b"alpha beta")), (12.0, (1, b"beta gamma"))]),
            (20.0, [(20.0, (2, b"alpha"))]),
        )
        cluster = make_cluster()
        caches = [StageCache(rank) for rank in range(NPROCS)]

        def run(env):
            scenario = StreamWordCount(env, config=DEMO_CONFIG)
            runner = StreamRunner(
                env, scenario, stream, TumblingWindows(10.0),
                runner=partial(PlanRunner, env, cache=caches[env.comm.rank]))
            result = runner.run()
            return result.final, result.windows, runner.stage_counts

        returns = cluster.run(run).returns
        counts0 = returns[0][2]
        assert counts0.get("wc-straddle-map", 0) >= 2  # windows 0 and 1
        # Window 0 only holds the t=2 record's words (union over the
        # ranks: keys are hash-partitioned).
        def window_keys(wid):
            return set().union(*(set(r[1][wid]) for r in returns))

        assert window_keys(0) == {b"alpha", b"beta"}
        assert window_keys(1) == {b"beta", b"gamma"}
        streamed = merge_output("wordcount", [r[0] for r in returns])
        assert streamed == reference_render(stream)

    def test_late_record_repairs_closed_window(self):
        # Window 0 closes once the watermark passes 10; the t=3 record
        # arriving at t=40 is behind the watermark and must re-open
        # (repair) window 0 - final output still matches the twin.
        stream = manual_stream(
            (0.0, [(1.0, (0, b"alpha"))]),
            (20.0, [(21.0, (1, b"beta"))]),
            (40.0, [(41.0, (2, b"gamma")), (3.0, (3, b"alpha alpha"))]),
        )
        cluster = make_cluster()
        runs = cluster.run(lambda env: run_scenario(
            env, StreamWordCount, stream, TumblingWindows(10.0))).returns
        assert runs[0]["late"] == 1
        assert runs[0]["recomputed"] >= 1
        alpha = sum(r["windows"][0].get(b"alpha", 0) for r in runs)
        assert alpha == 3  # repaired window 0 counts the late record
        assert render_run(runs) == reference_render(stream)

    def test_lateness_allowance_holds_the_watermark_back(self):
        # Same shape, but a 25s allowance keeps window 0 open until
        # the t=3 record has arrived: nothing is late, nothing repairs.
        stream = manual_stream(
            (0.0, [(1.0, (0, b"alpha"))]),
            (20.0, [(21.0, (1, b"beta"))]),
            (40.0, [(41.0, (2, b"gamma")), (3.0, (3, b"alpha alpha"))]),
        )
        cluster = make_cluster()
        runs = cluster.run(lambda env: run_scenario(
            env, StreamWordCount, stream, TumblingWindows(10.0),
            lateness=25.0)).returns
        assert runs[0]["late"] == 0
        assert runs[0]["recomputed"] == 0
        assert render_run(runs) == reference_render(stream)

    @pytest.mark.parametrize("lateness", [float("nan"), float("inf"),
                                          -1.0])
    def test_lateness_must_be_finite_and_not_negative(self, lateness):
        stream = manual_stream((0.0, [(1.0, (0, b"alpha"))]))
        cluster = make_cluster()
        with pytest.raises(RankFailedError, match="lateness") as failed:
            cluster.run(lambda env: run_scenario(
                env, StreamWordCount, stream, TumblingWindows(10.0),
                lateness=lateness))
        assert isinstance(failed.value.__cause__, ValueError)

    def test_stream_metrics_are_emitted(self):
        stream = make_doc_stream(seed=3)
        cluster = make_cluster()
        cluster.run(lambda env: run_scenario(
            env, StreamWordCount, stream, TumblingWindows(20.0)))
        totals = cluster.metrics.totals()
        assert totals["stream.batches.ingested"] == 6 * NPROCS
        assert totals["stream.records.ingested"] > 0
        assert totals["stream.windows.closed"] == 3 * NPROCS
        assert "stream.watermark" in totals


# ---------------------------------------------------------------------
# kill / resume
# ---------------------------------------------------------------------

class TestKillResume:
    def test_truncated_stream_resumes_from_checkpoint(self):
        stream = make_doc_stream(seed=1)
        cluster = make_cluster()
        caches = [StageCache(rank) for rank in range(NPROCS)]

        first = cluster.run(lambda env: run_scenario(
            env, StreamWordCount, stream, TumblingWindows(20.0),
            caches=caches, checkpoint_job="wc-kill", nonce="n1",
            stop_after_windows=1)).returns
        assert first[0]["truncated"] and first[0]["closed"] == 1
        assert first[0]["final"] is None

        second = cluster.run(lambda env: run_scenario(
            env, StreamWordCount, stream, TumblingWindows(20.0),
            caches=caches, checkpoint_job="wc-kill", nonce="n1")).returns
        assert second[0]["resumed"] == 1  # window 0 loaded, not rerun
        assert second[0]["closed"] == 3
        assert render_run(second) == reference_render(stream)

    def test_rank_death_mid_stream_recovers_bit_identical(self):
        # A rank dies at batch 3 (mid-window); the classified-restart
        # driver re-runs the job, which restores every window already
        # checkpointed and continues - output matches the twin.
        stream = make_doc_stream(seed=2)
        cluster = make_cluster()
        cluster.chaos = ChaosPlan().fail_at("batch3", 1)

        def job(env, ckpt):
            scenario = StreamWordCount(env, config=DEMO_CONFIG)
            runner = StreamRunner(
                env, scenario, stream, TumblingWindows(20.0),
                checkpoint=ckpt)
            result = runner.run()
            return result.final, result.resumed

        ft = run_with_recovery(cluster, job, job_id="wc-ft")
        assert ft.attempts == 2
        finals = [r[0] for r in ft.result.returns]
        resumed = ft.result.returns[0][1]
        assert resumed >= 1
        assert merge_output("wordcount", finals) == reference_render(stream)


# ---------------------------------------------------------------------
# incremental recompute
# ---------------------------------------------------------------------

class TestIncrementalRecompute:
    def test_cached_rerun_executes_no_batch_stages(self):
        # Second pass over the same stream with warm caches: every
        # batch stage is a hit, only window-scoped folds run.
        stream = make_doc_stream(seed=0)
        cluster = make_cluster()
        caches = [StageCache(rank) for rank in range(NPROCS)]
        run = lambda env: run_scenario(  # noqa: E731
            env, StreamWordCount, stream, TumblingWindows(20.0),
            caches=caches)
        cold = cluster.run(run).returns
        warm = cluster.run(run).returns
        assert warm[0]["cache_hits"] > cold[0]["cache_hits"]
        assert warm[0]["stages"] < cold[0]["stages"]
        assert render_run(warm) == render_run(cold)
