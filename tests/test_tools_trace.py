"""Structured event tracing (``repro.obs.trace``) on a real job."""

import json

from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64
from repro.mpi import COMET
from repro.obs import Trace

CFG = MimirConfig(page_size=1024, comm_buffer_size=1024,
                  input_chunk_size=256)
TEXT = b"ash oak elm fir " * 60


def wc_map(ctx, chunk):
    for word in chunk.split():
        ctx.emit(word, pack_u64(1))


def run_traced(nprocs=3):
    trace = Trace()
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("t.txt", TEXT)

    def job(env):
        mimir = Mimir(env, CFG, trace=trace)
        kvs = mimir.map_text_file("t.txt", wc_map)
        trace.emit(env, "custom", "done", records=len(kvs))
        kvs.free()

    cluster.run(job)
    return trace


class TestTrace:
    def test_phase_events_per_rank(self):
        trace = run_traced(nprocs=3)
        starts = [e for e in trace.of_kind("phase")
                  if (e.label, e.data["ph"]) == ("map+aggregate", "B")]
        assert len(starts) == 3
        assert {e.rank for e in starts} == {0, 1, 2}

    def test_exchange_rounds_recorded(self):
        trace = run_traced()
        rounds = trace.of_kind("exchange")
        assert rounds
        assert all("sent" in e.data and "received" in e.data
                   for e in rounds)

    def test_end_event_carries_stats(self):
        trace = run_traced()
        ends = [e for e in trace.of_kind("phase")
                if (e.label, e.data["ph"]) == ("map+aggregate", "E")]
        assert all(e.data["records"] > 0 for e in ends)
        assert all(e.data["kv_bytes"] > 0 for e in ends)

    def test_custom_events(self):
        trace = run_traced()
        custom = trace.of_kind("custom")
        assert len(custom) == 3
        assert sum(e.data["records"] for e in custom) == len(TEXT.split())

    def test_merged_is_time_ordered(self):
        trace = run_traced()
        times = [e.time for e in trace.merged()]
        assert times == sorted(times)

    def test_json_roundtrip(self):
        trace = run_traced()
        decoded = json.loads(trace.to_json())
        assert len(decoded) == len(trace.events)
        assert {"time", "rank", "kind", "label", "data"} <= \
            set(decoded[0].keys())

    def test_render_and_summary(self):
        trace = run_traced()
        text = trace.render(limit=5)
        assert "rank" in text and "more events" in text
        summary = trace.summary()
        assert summary["phase"] == 6  # B+E on 3 ranks
        assert sum(summary.values()) == len(trace.events)

    def test_untraced_job_emits_nothing(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("t.txt", TEXT)

        def job(env):
            mimir = Mimir(env, CFG)  # no trace attached
            mimir.map_text_file("t.txt", wc_map).free()

        cluster.run(job)  # simply must not crash
