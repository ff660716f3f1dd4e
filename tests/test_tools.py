"""Post-mortem views in ``repro.obs``: imbalance reports, memory
timelines, job lanes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64
from repro.memory import MemoryTracker
from repro.mpi import COMET
from repro.obs import (
    ImbalanceReport,
    Trace,
    composition_at_peak,
    render_job_lanes,
    render_timeline,
)


class TestImbalanceReport:
    def test_balanced(self):
        r = ImbalanceReport.from_values([10, 10, 10, 10])
        assert r.imbalance_factor == 1.0
        assert r.cv == 0.0
        assert r.headroom_lost == 0.0

    def test_hot_rank(self):
        r = ImbalanceReport.from_values([10, 10, 10, 70])
        assert r.imbalance_factor == pytest.approx(70 / 25)
        assert r.maximum == 70
        assert r.headroom_lost == pytest.approx(1 - 25 / 70)

    def test_single_rank(self):
        r = ImbalanceReport.from_values([5])
        assert r.nranks == 1
        assert r.imbalance_factor == 1.0

    def test_zero_values(self):
        r = ImbalanceReport.from_values([0, 0])
        assert r.imbalance_factor == 1.0
        assert r.headroom_lost == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ImbalanceReport.from_values([])

    def test_render(self):
        text = ImbalanceReport.from_values([1, 3]).render("kv_bytes")
        assert "kv_bytes" in text and "imbalance" in text

    def test_skewed_job_shows_imbalance(self):
        # A corpus dominated by one word concentrates its KVs on the
        # owner rank; the report must expose that.
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)
        cluster.pfs.store("t.txt", b"hot " * 400 + b"a b c d e f g h " * 5)

        def job(env):
            mimir = Mimir(env, MimirConfig(page_size=2048,
                                           comm_buffer_size=2048,
                                           input_chunk_size=256))
            kvs = mimir.map_text_file(
                "t.txt", lambda ctx, chunk: [
                    ctx.emit(w, pack_u64(1)) for w in chunk.split()])
            n = kvs.nbytes
            kvs.free()
            return n

        result = cluster.run(job)
        report = ImbalanceReport.from_values(result.returns)
        assert report.imbalance_factor > 2.0


@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_property_imbalance_bounds(values):
    r = ImbalanceReport.from_values(values)
    # 1-ulp tolerance: the mean of identical values can round a hair
    # past them at extreme magnitudes.
    tol = 1e-9
    assert r.minimum <= r.mean * (1 + tol) + 1e-300
    assert r.mean <= r.maximum * (1 + tol) + 1e-300
    assert r.imbalance_factor >= 1.0 - tol or r.mean == 0
    assert 0.0 <= r.headroom_lost <= 1.0


class TestTimeline:
    def make_tracker(self):
        t = MemoryTracker(keep_timeline=True)
        t.allocate(100, "pages")
        t.allocate(50, "bucket")
        t.free(100, "pages")
        t.allocate(20, "pages")
        return t

    def test_composition_at_peak(self):
        t = self.make_tracker()
        assert composition_at_peak(t) == {"pages": 100, "bucket": 50}

    def test_peak_breakdown_sums_to_peak(self):
        t = self.make_tracker()
        assert sum(composition_at_peak(t).values()) == t.peak

    def test_requires_timeline(self):
        with pytest.raises(ValueError):
            composition_at_peak(MemoryTracker())
        with pytest.raises(ValueError):
            render_timeline(MemoryTracker())

    def test_render_contains_peak(self):
        text = render_timeline(self.make_tracker())
        assert "peak=150B" in text

    def test_render_empty(self):
        t = MemoryTracker(keep_timeline=True)
        assert render_timeline(t) == "(no allocations)"

    def test_render_downsamples(self):
        t = MemoryTracker(keep_timeline=True)
        for _ in range(500):
            t.allocate(1, "x")
        text = render_timeline(t, width=40)
        bars = text.split("  peak=")[0]
        assert len(bars) <= 41

    def test_lanes_empty_trace(self):
        assert render_job_lanes(Trace()) == "(no scheduler events)"

    def test_lanes_without_job_data_is_empty(self):
        trace = Trace()
        trace.emit_abs(0.1, -1, "admit", "anon")  # no job= payload
        assert render_job_lanes(trace) == "(no scheduler events)"

    def test_lanes_single_event(self):
        # One event means t0 == t1; the renderer must not divide by
        # the zero span.
        trace = Trace()
        trace.emit_abs(0.5, -1, "submit", "wc", job="wc")
        text = render_job_lanes(trace, width=20)
        assert "wc" in text and "S" in text

    def test_lanes_collision_oom_beats_queue(self):
        # Same cell, increasing precedence: X (oom) must overwrite q.
        trace = Trace()
        trace.emit_abs(1.0, -1, "queue", "wc", job="wc")
        trace.emit_abs(1.0, -1, "oom", "wc", job="wc")
        trace.emit_abs(2.0, -1, "stage-done", "wc:done", job="wc")
        lane = render_job_lanes(trace, width=10).splitlines()[0]
        assert "X" in lane and "q" not in lane

    def test_lanes_collision_admit_beats_stage_done(self):
        # Lower-precedence # must not overwrite an existing A.
        trace = Trace()
        trace.emit_abs(1.0, -1, "admit", "wc", job="wc")
        trace.emit_abs(1.0, 0, "stage-done", "wc:map", job="wc")
        trace.emit_abs(2.0, -1, "queue", "wc", job="wc")
        lane = render_job_lanes(trace, width=10).splitlines()[0]
        assert "A" in lane and "#" not in lane

    def test_lanes_one_row_per_job(self):
        trace = Trace()
        trace.emit_abs(0.0, -1, "submit", "a", job="a")
        trace.emit_abs(1.0, -1, "submit", "b", job="b")
        lines = render_job_lanes(trace, width=12).splitlines()
        assert len(lines) == 3  # two lanes + the legend
        assert lines[0].startswith("a ") and lines[1].startswith("b ")

    def test_end_to_end_with_cluster_timeline(self):
        cluster = Cluster(COMET, nprocs=2, memory_limit=None,
                          keep_timeline=True)
        cluster.pfs.store("t.txt", b"x y z " * 100)

        def job(env):
            mimir = Mimir(env, MimirConfig(page_size=1024,
                                           comm_buffer_size=1024))
            kvs = mimir.map_text_file(
                "t.txt", lambda ctx, chunk: [
                    ctx.emit(w, pack_u64(1)) for w in chunk.split()])
            kvs.free()

        cluster.run(job)
        tracker = cluster.trackers[0]
        breakdown = composition_at_peak(tracker)
        assert sum(breakdown.values()) == tracker.peak
        assert "send_buffer" in breakdown
