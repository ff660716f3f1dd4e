"""Per-phase time and memory, read from the Trace."""

from functools import partial

import pytest

from repro.apps.wordcount import wordcount_plan
from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig
from repro.mpi import COMET
from repro.obs import Trace
from repro.obs.report import phase_rows, render_phase_table
from repro.sched import PlanRunner

CFG = MimirConfig(page_size=2048, comm_buffer_size=2048,
                  input_chunk_size=512)
TEXT = b"ash oak elm ash fir oak ash yew " * 25


def run_traced(partial_reduce=False):
    cluster = Cluster(COMET, nprocs=2, memory_limit=None)
    cluster.pfs.store("t.txt", TEXT)
    trace = Trace()
    cluster.run(lambda env: wordcount_plan(
        env, "t.txt", CFG, partial=partial_reduce,
        runner=partial(PlanRunner, env, trace=trace)))
    return trace


def closed_phases(trace, rank=0):
    """``(name, duration, end-event data)`` per phase of one rank;
    phases never nest, so its events alternate B, E."""
    events = [e for e in trace.of_kind("phase") if e.rank == rank]
    assert all(e.data["ph"] == "BE"[i % 2] for i, e in enumerate(events))
    assert all(start.label == end.label
               for start, end in zip(events[::2], events[1::2]))
    return [(end.label, end.time - start.time, end.data)
            for start, end in zip(events[::2], events[1::2], strict=True)]


class TestPhases:
    @pytest.mark.parametrize("partial_reduce, last", [
        (False, "convert+reduce"), (True, "partial_reduce")])
    def test_names_order_durations_and_table(self, partial_reduce, last):
        trace = run_traced(partial_reduce)
        names = ["map+aggregate", last]
        phases = closed_phases(trace, 0) + closed_phases(trace, 1)
        assert [name for name, *_ in phases] == names * 2
        assert all(duration >= 0 for _, duration, _ in phases)
        rows = phase_rows(trace)
        assert len(rows) == 2
        for row in rows:
            assert row.count == 2 and row.total == pytest.approx(
                sum(d for name, d, _ in phases if name == row.name))
        assert all(name in render_phase_table(rows) for name in names)

    def test_memory_and_driver_stats_ride_the_end_event(self):
        phases = closed_phases(run_traced())
        (_, _, mapped), (_, _, reduced) = phases
        # map+aggregate leaves the shuffled KVC resident.
        assert mapped["mem_after"] - mapped["mem_before"] > 0
        assert mapped["rounds"] >= 1 and reduced["keys"] > 0
        for _, _, data in phases:
            assert data["spilled_bytes"] == data["batch_records"] == \
                data["batch_pages"] == 0
        peaks = [data["peak"] for _, _, data in phases]
        assert peaks == sorted(peaks)

    def test_phase_closes_on_exception(self):
        trace = Trace()

        def job(env):
            with pytest.raises(ZeroDivisionError):
                Mimir(env, CFG, trace=trace).map_items(
                    [0], lambda ctx, item: 1 / item)

        Cluster(COMET, nprocs=1).run(job)
        [(name, _, data)] = closed_phases(trace)
        assert name == "map+aggregate" and "mem_after" in data
