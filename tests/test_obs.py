"""Observability subsystem: registry, the one Trace and its clock rule,
Chrome export, reports."""

import json

import pytest

from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.mpi import COMET
from repro.obs import Trace
from repro.obs.chrome import to_chrome_trace, validate_chrome_trace
from repro.obs.registry import (
    METRICS,
    Histogram,
    MetricShard,
    MetricsRegistry,
    UnknownMetricError,
    aggregate,
    reduce_metrics,
    register,
)

CFG = MimirConfig(page_size=1024, comm_buffer_size=1024,
                  input_chunk_size=256)
TEXT = b"ash oak elm fir pine ash oak " * 40


def wc_map(ctx, chunk):
    for word in chunk.split():
        ctx.emit(word, pack_u64(1))


def wc_reduce(ctx, key, values):
    ctx.emit(key, pack_u64(sum(unpack_u64(v) for v in values)))


def run_wordcount(nprocs=3, trace=None, storage=None):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None,
                      storage=storage)
    cluster.pfs.store("t.txt", TEXT)

    def job(env):
        mimir = Mimir(env, CFG, trace=trace)
        kvs = mimir.map_text_file("t.txt", wc_map)
        out = mimir.reduce(kvs, wc_reduce)
        n = len(out)
        out.free()
        return n

    cluster.run(job)
    return cluster


# ----------------------------------------------------------- registry

class TestRegistry:
    def test_every_registered_name_has_full_spec(self):
        for name, spec in METRICS.items():
            assert spec.name == name
            assert spec.kind in ("counter", "gauge", "histogram")
            assert spec.unit and spec.module and spec.description

    def test_register_idempotent(self):
        spec = METRICS["core.map.records"]
        again = register(spec.name, spec.kind, spec.unit, spec.module,
                         spec.description)
        assert again == spec

    def test_register_conflict_rejected(self):
        with pytest.raises(ValueError):
            register("core.map.records", "gauge", "records",
                     "repro.core.job", "different")

    def test_unknown_metric_rejected(self):
        shard = MetricShard()
        with pytest.raises(UnknownMetricError):
            shard.inc("no.such.metric")
        with pytest.raises(UnknownMetricError):
            shard.value("no.such.metric")

    def test_kind_mismatch_rejected(self):
        shard = MetricShard()
        with pytest.raises(UnknownMetricError):
            shard.observe("core.map.records", 1.0)  # registered counter

    def test_counter_and_value(self):
        shard = MetricShard(rank=2)
        shard.inc("core.map.records", 5)
        shard.inc("core.map.records")
        assert shard.value("core.map.records") == 6
        assert shard.value("core.reduce.keys") == 0  # never emitted

    def test_histogram_observe_and_summary(self):
        shard = MetricShard()
        shard.observe("core.phase.seconds", 0.5)
        shard.observe("core.phase.seconds", 1.5)
        summary = shard.value("core.phase.seconds")
        assert summary["count"] == 2
        assert summary["min"] == 0.5 and summary["max"] == 1.5
        assert summary["mean"] == pytest.approx(1.0)

    def test_aggregate_counters_sum_histograms_merge(self):
        a, b = MetricShard(0), MetricShard(1)
        a.inc("core.map.records", 10)
        b.inc("core.map.records", 4)
        a.observe("core.phase.seconds", 1.0)
        b.observe("core.phase.seconds", 3.0)
        totals = aggregate([a.snapshot(), b.snapshot()])
        assert totals["core.map.records"] == 14
        assert totals["core.phase.seconds"]["count"] == 2
        assert totals["core.phase.seconds"]["max"] == 3.0

    def test_histogram_bucket_overflow(self):
        h = Histogram()
        h.observe(1e9)  # beyond the last decade bound
        assert h.buckets[-1] == 1 and h.count == 1

    def test_registry_render_empty(self):
        assert MetricsRegistry().render() == "(no metrics emitted)"


# ------------------------------------------------------------- wiring

class TestWiring:
    def test_core_and_mpi_and_io_metrics_emitted(self):
        # The PFS reports under the one storage.* namespace too.
        cluster = run_wordcount(nprocs=3, storage="pfs")
        assert cluster.pfs.name == "pfs"
        totals = cluster.metrics.totals()
        assert totals["core.map.records"] == len(TEXT.split())
        assert totals["core.map.kv_bytes"] > 0
        assert totals["core.reduce.keys"] > 0
        assert totals["mpi.alltoallv.rounds"] >= 3   # one per rank
        assert totals["mpi.alltoallv.bytes"] > 0
        assert totals["mpi.collectives"] > 0
        assert totals["storage.reads"] >= 3  # >= one chunk read per rank
        assert totals["storage.bytes_read"] > 0
        assert totals["core.phase.seconds"]["count"] == 6  # 2 phases x 3

    def test_by_rank_breakdown(self):
        cluster = run_wordcount(nprocs=2)
        by_rank = cluster.metrics.by_rank("core.map.records")
        assert set(by_rank) == {0, 1}
        assert sum(by_rank.values()) == len(TEXT.split())

    def test_render_lists_catalog_names(self):
        cluster = run_wordcount(nprocs=2)
        text = cluster.metrics.render()
        assert "core.map.records" in text
        assert "mpi.alltoallv.rounds" in text

    def test_reduce_metrics_collective_identical_totals(self):
        cluster = Cluster(COMET, nprocs=3, memory_limit=None)
        cluster.pfs.store("t.txt", TEXT)

        def job(env):
            mimir = Mimir(env, CFG)
            mimir.map_text_file("t.txt", wc_map).free()
            return reduce_metrics(env.comm, env.metrics)

        result = cluster.run(job)
        first = result.returns[0]
        assert all(r == first for r in result.returns)
        assert first["core.map.records"] == len(TEXT.split())

    def test_combiner_metrics(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("t.txt", TEXT)

        def job(env):
            mimir = Mimir(env, CFG)
            mimir.map_text_file(
                "t.txt", wc_map,
                combine_fn=lambda k, a, b: pack_u64(
                    unpack_u64(a) + unpack_u64(b))).free()

        cluster.run(job)
        totals = cluster.metrics.totals()
        assert totals["core.combine.records_in"] == len(TEXT.split())
        assert totals["core.combine.merged"] > 0

    def test_checkpoint_and_retry_metrics(self):
        from repro.ft.checkpoint import CheckpointManager
        from repro.ft.injection import ChaosPlan

        # Rate 1.0 + max_faults=1: exactly the first PFS op fails once,
        # and all checkpoint I/O sits behind the retry wrapper, so the
        # fault is absorbed (same shape as the ft chaos tests).
        chaos = ChaosPlan(seed=1, io_error_rate=1.0, max_faults=1)
        cluster = Cluster(COMET, nprocs=2, memory_limit=None, chaos=chaos)

        def job(env):
            ckpt = CheckpointManager(env, "obs-job", faults=chaos)
            ckpt.save_state("phase", {"round": env.comm.rank})
            return ckpt.load_state("phase")

        cluster.run(job)
        totals = cluster.metrics.totals()
        assert totals["ft.checkpoint.saves"] == 2
        assert totals["ft.checkpoint.restores"] == 2
        assert totals["ft.faults.injected"] == 1
        # Every injected transient error was absorbed by a retry.
        assert totals["storage.retries"] >= totals["ft.faults.injected"]
        assert totals["storage.writes"] >= 4  # data + marker per rank

    def test_restart_metric(self):
        from repro.ft import ChaosPlan
        from repro.ft.runner import run_with_recovery

        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("t.txt", TEXT)
        plan = ChaosPlan().fail_at("mid", 1)

        def job(env, ckpt, faults):
            mimir = Mimir(env, CFG)
            kvs = mimir.map_text_file("t.txt", wc_map)
            faults.check("mid", env.comm.rank)
            n = len(kvs)
            kvs.free()
            return n

        ft = run_with_recovery(cluster, job, faults=plan)
        assert ft.restarts == 1
        assert cluster.metrics.totals()["ft.restarts"] == 1

    def test_sched_metrics(self):
        from repro.sched.demo import make_job, stage_inputs
        from repro.sched.scheduler import Scheduler

        cluster = Cluster(COMET, 4, memory_limit="512K")
        paths = stage_inputs(cluster)
        scheduler = Scheduler(cluster)
        scheduler.submit(make_job("wordcount", paths, priority=2))
        scheduler.submit(make_job("pagerank", paths, priority=1))
        report = scheduler.run()
        assert all(o.completed for o in report.outcomes)
        totals = cluster.metrics.totals()
        assert totals["sched.admissions"] == 2
        assert totals["sched.stages.executed"] > 0
        assert totals["sched.cache.hits"] > 0  # PageRank reuses its graph


# -------------------------------------------------------------- spans

class TestSpans:
    def test_span_nesting_and_balance(self):
        trace = Trace()
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)

        def job(env):
            with trace.span(env, "outer", job="t"):
                env.comm.advance(0.1)
                with trace.span(env, "inner"):
                    env.comm.advance(0.2)

        cluster.run(job)
        spans = trace.of_kind("span")
        assert len(spans) == 8  # 2 ranks x 2 spans x B+E
        for rank in (0, 1):
            labels = [(e.label, e.data["ph"]) for e in spans
                      if e.rank == rank]
            assert labels == [("outer", "B"), ("inner", "B"),
                              ("inner", "E"), ("outer", "E")]

    def test_span_closes_on_exception(self):
        trace = Trace()
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)

        def job(env):
            try:
                with trace.span(env, "risky"):
                    raise RuntimeError("boom")
            except RuntimeError:
                pass

        cluster.run(job)
        phs = [e.data["ph"] for e in trace.of_kind("span")]
        assert phs == ["B", "E"]

    def test_trace_json_roundtrip_preserves_spans(self):
        trace = Trace()
        trace.emit_abs(0.0, -1, "span", "drain", ph="B")
        trace.emit_abs(0.5, -1, "submit", "wc", job="wc")
        trace.emit_abs(1.0, -1, "span", "drain", ph="E")
        again = Trace.from_json(trace.to_json())
        assert [e.label for e in again.merged()] == \
            [e.label for e in trace.merged()]
        assert again.of_kind("span")[0].data["ph"] == "B"


# ------------------------------------------------------ the clock rule

def inversions(trace):
    """Per rank, how many events are stamped earlier than the one the
    same rank emitted just before it."""
    last, count = {}, {}
    for event in trace.events:               # emission order
        if event.time < last.get(event.rank, 0.0):
            count[event.rank] = count.get(event.rank, 0) + 1
        last[event.rank] = event.time
    return count


class TestOneTimeline:
    """Rank clocks restart at zero every launch; the launch's view of
    the trace adds the base, so three rounds read as one timeline."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.obs.report import run_pipeline_report

        report = run_pipeline_report(["wordcount", "pagerank", "kmeans"],
                                     nprocs=2, memory_limit="300K")
        assert report.job_lines[0].startswith("3 round(s)")
        return report

    @staticmethod
    def windows(trace):
        """job -> (admit, ``<job>:complete``): one job per round here."""
        admits = {e.label: e.time for e in trace.of_kind("admit")}
        return {e.data["job"]: (admits[e.data["job"]], e.time)
                for e in trace.of_kind("stage-done") if e.rank == -1}

    def test_time_never_decreases_in_emission_order(self, report):
        assert inversions(report.trace) == {}

    def test_phase_edges_lie_inside_their_jobs_window(self, report):
        windows = self.windows(report.trace)
        assert list(windows) == ["wordcount", "pagerank", "kmeans"]
        edges = [e.time for e in report.trace.of_kind("phase")]
        inside = dict.fromkeys(windows, 0)
        for t in edges:     # a round ends where the next begins: first wins
            inside[next(job for job, (lo, hi) in windows.items()
                        if lo <= t <= hi)] += 1
        assert inside == {"wordcount": 8, "pagerank": 52, "kmeans": 40}
        last_stage = max(e.time for e in report.trace.of_kind("stage-done")
                         if e.rank >= 0)
        assert max(edges) == last_stage == pytest.approx(1.328877, abs=1e-6)

    def test_cache_evictions_land_in_the_round_that_evicted(self, report):
        # kmeans (round 3) pushes pagerank's cached adjacency out.
        lo, hi = self.windows(report.trace)["kmeans"]
        evicted = report.trace.of_kind("evict")
        assert evicted and all(e.data["job"] == "pagerank" and lo <= e.time <= hi
                               for e in evicted)

    def test_export_needs_no_repair(self, report):
        events = to_chrome_trace(report.trace)["traceEvents"]
        assert not [e for e in events if e["ph"] == "E" and not e["name"]]

    def test_phase_table_pairs_each_round_with_itself(self, report):
        rows = {row.name: row for row in report.phases}
        assert {name: row.count for name, row in rows.items()} == {
            "map+aggregate": 26, "partial_reduce": 22, "convert+reduce": 2}
        assert rows["map+aggregate"].total == pytest.approx(1.680958, abs=1e-6)
        assert rows["partial_reduce"].total == pytest.approx(0.592585, abs=1e-6)
        assert rows["convert+reduce"].total == pytest.approx(0.142650, abs=1e-6)
        assert rows["partial_reduce"].slowest == \
            pytest.approx(0.184334, abs=1e-6)

    def test_daemon_rounds_share_the_timeline(self):
        from repro.sched.demo import stage_inputs
        from repro.serve.daemon import ServeDaemon

        cluster = Cluster(COMET, nprocs=2)
        stage_inputs(cluster)
        daemon = ServeDaemon(cluster)
        daemon.recover()                      # opens the journal
        for _round in range(2):
            for tenant in ("alice", "bob", "carol"):
                daemon.submit(tenant, "wordcount", "demo/words.txt")
            daemon.tick()
        while daemon.scheduler.queue_depth:
            daemon.tick()
        assert daemon.scheduler.rounds_run >= 2
        assert [job.state for job in daemon.jobs.values()] == ["done"] * 6
        assert inversions(daemon.trace) == {}

    def test_view_shares_events_and_adds_its_base(self):
        trace = Trace()
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)

        def job(env):
            env.comm.advance(0.25)
            trace.emit(env, "custom", "bare")
            trace.at(10.0).emit(env, "custom", "based")

        cluster.run(job)
        assert [(e.label, e.time) for e in trace.events] == \
            [("bare", 0.25), ("based", 10.25)]


class TestFromJson:
    GOOD = {"time": 1.0, "rank": 0, "kind": "custom", "label": "x"}

    @pytest.mark.parametrize("document, complaint", [
        ("7", "expected a JSON list"),
        ('{"traceEvents": []}', "Chrome/Perfetto export"),
        ("[1, 2]", "event 0: expected an object"),
        ([GOOD, "nope"], "event 1: expected an object"),
        ([{"time": 1.0, "rank": 0}], "event 0: 'kind'"),
        ([GOOD, {**GOOD, "time": "soon"}], "event 1: 'time'"),
        ([{**GOOD, "time": True}], "event 0: 'time'"),
        ([{**GOOD, "rank": 0.5}], "event 0: 'rank'"),
        ([{**GOOD, "label": None}], "event 0: 'label'"),
        ([{**GOOD, "data": [1]}], "event 0: 'data'"),
        ("[{", "Expecting"),                     # not JSON at all
    ])
    def test_malformed_documents_are_value_errors(self, document,
                                                  complaint, tmp_path,
                                                  capsys):
        from repro.cli import main

        text = document if isinstance(document, str) \
            else json.dumps(document)
        with pytest.raises(ValueError, match=complaint):
            Trace.from_json(text)
        saved = tmp_path / "bad.json"
        saved.write_text(text)
        assert main(["report", "--from-trace", str(saved)]) == 1
        assert "error: cannot load" in capsys.readouterr().out

    def test_data_is_optional(self):
        [event] = Trace.from_json(json.dumps([self.GOOD])).events
        assert event.data == {} and event.time == 1.0


# ------------------------------------------------------- chrome export

class TestChromeExport:
    def check(self, data):
        validate_chrome_trace(data)
        return data["traceEvents"]

    def test_real_run_exports_valid(self):
        trace = Trace()
        run_wordcount(nprocs=3, trace=trace)
        events = self.check(to_chrome_trace(trace))
        assert all("ph" in e and "ts" in e and "pid" in e and "tid" in e
                   for e in events)
        names = {e["name"] for e in events if e["ph"] == "B"}
        assert "map+aggregate" in names
        assert "convert+reduce" in names

    def test_phase_pairs_balanced_per_thread(self):
        trace = Trace()
        run_wordcount(nprocs=2, trace=trace)
        events = self.check(to_chrome_trace(trace))
        for tid in (0, 1):
            depth = 0
            for e in events:
                if e["ph"] == "M" or e["tid"] != tid or e["pid"] != 0:
                    continue
                if e["ph"] == "B":
                    depth += 1
                elif e["ph"] == "E":
                    depth -= 1
                    assert depth >= 0
            assert depth == 0

    def test_timestamps_monotone_per_thread(self):
        trace = Trace()
        run_wordcount(nprocs=3, trace=trace)
        events = self.check(to_chrome_trace(trace))
        last = {}
        for e in events:
            if e["ph"] == "M":
                continue
            key = (e["pid"], e["tid"])
            assert e["ts"] >= last.get(key, 0.0)
            last[key] = e["ts"]

    def test_instant_events_carry_scope(self):
        trace = Trace()
        trace.emit_abs(0.1, 0, "custom", "marker", detail=1)
        events = self.check(to_chrome_trace(trace))
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and instants[0]["s"] == "t"
        assert instants[0]["args"]["detail"] == 1

    def test_dangling_begin_is_closed(self):
        trace = Trace()
        trace.emit_abs(0.0, 0, "span", "outer", ph="B")
        trace.emit_abs(1.0, 0, "span", "inner", ph="B")  # neither ends
        self.check(to_chrome_trace(trace))

    def test_stray_end_is_dropped(self):
        trace = Trace()
        trace.emit_abs(1.0, 0, "span", "phantom", ph="E")
        events = self.check(to_chrome_trace(trace))
        assert not [e for e in events if e["ph"] == "E"]

    def test_scheduler_events_get_own_process(self):
        trace = Trace()
        trace.emit_abs(0.0, -1, "submit", "wc", job="wc")
        trace.emit_abs(0.1, 2, "custom", "rank-side")
        events = to_chrome_trace(trace)["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] != "M"}
        assert pids == {0, 1}

    def test_microsecond_conversion(self):
        trace = Trace()
        trace.emit_abs(0.5, 0, "custom", "tick")
        events = to_chrome_trace(trace)["traceEvents"]
        tick = [e for e in events if e.get("name") == "tick"][0]
        assert tick["ts"] == pytest.approx(5e5)

    def test_validator_catches_unbalanced(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0, "pid": 0, "tid": 0}]}
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)

    def test_validator_catches_missing_fields(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "i", "ts": 0}]})

    def test_validator_catches_time_travel(self):
        bad = {"traceEvents": [
            {"name": "a", "ph": "i", "ts": 5, "pid": 0, "tid": 0, "s": "t"},
            {"name": "b", "ph": "i", "ts": 1, "pid": 0, "tid": 0, "s": "t"},
        ]}
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)


# ------------------------------------------------------------- reports

class TestReports:
    def test_wordcount_report_sections(self):
        from repro.obs.report import run_wordcount_report

        report = run_wordcount_report(nprocs=2, input_bytes=1 << 12)
        text = report.render()
        assert "-- phases --" in text
        assert "map+aggregate" in text and "convert+reduce" in text
        assert "-- memory --" in text and "send_buffer" in text
        assert "-- metrics --" in text and "core.map.records" in text
        assert report.lanes is None
        validate_chrome_trace(to_chrome_trace(report.trace))

    def test_pipeline_report_sections(self):
        from repro.obs.report import run_pipeline_report

        report = run_pipeline_report(nprocs=2)
        text = report.render()
        assert "-- phases --" in text and "map+aggregate" in text
        assert "-- job lanes --" in text
        assert "wordcount" in text and "pagerank" in text
        assert report.metric_totals["sched.admissions"] == 2
        validate_chrome_trace(to_chrome_trace(report.trace))

    def test_load_trace_report(self, tmp_path):
        trace = Trace()
        trace.emit_abs(0.0, -1, "submit", "wc", job="wc")
        trace.emit_abs(0.1, 0, "phase", "map+aggregate", ph="B")
        trace.emit_abs(0.4, 0, "phase", "map+aggregate", ph="E",
                       batch_records=5, batch_pages=1)
        path = tmp_path / "trace.json"
        path.write_text(trace.to_json())

        from repro.obs.report import load_trace_report

        report = load_trace_report(str(path))
        assert report.lanes is not None
        [row] = report.phases
        assert row.name == "map+aggregate"
        assert row.total == pytest.approx(0.3)
        assert (row.batch_records, row.batch_pages) == (5, 1)

    def test_phase_rows_ignore_unpaired_events(self):
        from repro.obs.report import phase_rows, render_phase_table

        trace = Trace()
        assert render_phase_table(phase_rows(trace)) == "(no phase records)"
        trace.emit_abs(0.1, 0, "phase", "map+aggregate", ph="E")  # no B
        assert phase_rows(trace) == []


# ----------------------------------------------------------------- cli

class TestReportCli:
    def test_report_wordcount_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "wc.json"
        assert main(["report", "wordcount", "--nprocs", "2",
                     "--trace-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "-- metrics --" in printed
        validate_chrome_trace(json.loads(out.read_text()))

    def test_report_from_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = Trace()
        trace.emit_abs(0.0, -1, "admit", "wc", job="wc")
        saved = tmp_path / "saved.json"
        saved.write_text(trace.to_json())
        assert main(["report", "--from-trace", str(saved)]) == 0
        assert "saved trace" in capsys.readouterr().out

    def test_report_from_chrome_export_fails_cleanly(self, tmp_path,
                                                     capsys):
        # Feeding the *other* file the CLI writes (the Perfetto export)
        # back to --from-trace must explain itself, not traceback.
        from repro.cli import main

        wrong = tmp_path / "chrome.json"
        wrong.write_text(json.dumps({"traceEvents": []}))
        assert main(["report", "--from-trace", str(wrong)]) == 1
        assert "Chrome/Perfetto export" in capsys.readouterr().out

    def test_report_default_app_is_wordcount(self, tmp_path, capsys):
        from repro.cli import build_parser

        args = build_parser().parse_args(["report"])
        assert args.app == "wordcount" and args.fn is not None
