"""The ``repro report`` pipeline: run a job, render what happened.

A :class:`RunReport` bundles the four views the paper's evaluation
sections argue from - a per-phase time table, the memory composition
at the global peak, the aggregated metric totals, and (for scheduled
multi-job runs) per-job timeline lanes - plus the
:class:`~repro.obs.trace.Trace` behind them, ready for Perfetto export.

Three entry points:

- :func:`run_wordcount_report` runs the paper's WordCount benchmark
  on a small simulated cluster with tracing and metrics attached.
- :func:`run_pipeline_report` drains the multi-job scheduler demo
  (WordCount + PageRank by default) the same way.
- :func:`load_trace_report` rebuilds the trace-derived views from a
  saved ``Trace.to_json()`` file without re-running anything.

This module imports the cluster harness; it is deliberately **not**
re-exported from ``repro.obs`` (which the harness itself imports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.cluster import Cluster
from repro.memory.limits import format_size
from repro.obs.timeline import (
    SCHED_EVENT_KINDS,
    composition_at_peak,
    render_job_lanes,
)
from repro.obs.trace import Trace


@dataclass
class PhaseRow:
    """Aggregated timings of one phase name across every rank."""

    name: str
    count: int          # executions summed over ranks
    total: float        # virtual seconds summed over executions
    slowest: float      # the single slowest execution
    #: Records that went through whole-batch kernel dispatches (0 for
    #: phases that ran entirely per-record).
    batch_records: int = 0
    #: Whole-batch dispatches across ranks.
    batch_pages: int = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def phase_rows(trace: Trace) -> list[PhaseRow]:
    """Phase timings, read off the trace's ``phase`` events.

    Per rank, each ``phase`` event with ``ph`` ``"B"`` opens the phase
    its label names and the matching ``"E"`` - which carries the
    phase's batch counts - closes it.  Unpaired halves are ignored.
    """
    rows: dict[str, PhaseRow] = {}
    open_at: dict[tuple[int, str], list[float]] = {}
    for event in trace.merged():
        if event.kind != "phase":
            continue
        name, ph = event.label, event.data.get("ph")
        if ph == "B":
            open_at.setdefault((event.rank, name), []).append(event.time)
        elif ph == "E":
            stack = open_at.get((event.rank, name))
            if not stack:
                continue
            duration = event.time - stack.pop()
            row = rows.get(name)
            if row is None:
                row = rows[name] = PhaseRow(name, 0, 0.0, 0.0)
            row.count += 1
            row.total += duration
            row.slowest = max(row.slowest, duration)
            row.batch_records += event.data.get("batch_records", 0)
            row.batch_pages += event.data.get("batch_pages", 0)
    return list(rows.values())


def render_phase_table(rows: list[PhaseRow]) -> str:
    if not rows:
        return "(no phase records)"
    lines = [f"{'phase':<20} {'execs':>6} {'total(s)':>10} "
             f"{'mean(s)':>10} {'max(s)':>10} {'batched':>9}"]
    for row in sorted(rows, key=lambda r: -r.total):
        lines.append(f"{row.name:<20} {row.count:>6} {row.total:>10.4f} "
                     f"{row.mean:>10.4f} {row.slowest:>10.4f} "
                     f"{row.batch_records:>9d}")
    return "\n".join(lines)


def render_composition(composition: dict[str, int]) -> str:
    if not composition:
        return "(no allocations)"
    peak = sum(composition.values()) or 1
    lines = []
    for tag, nbytes in sorted(composition.items(), key=lambda kv: -kv[1]):
        share = nbytes / peak
        bar = "#" * max(1, round(share * 30))
        lines.append(f"{tag:<20} {format_size(nbytes):>10} "
                     f"{share:>6.1%} {bar}")
    return "\n".join(lines)


@dataclass
class RunReport:
    """Everything ``repro report`` renders, plus the raw trace."""

    title: str
    job_lines: list[str] = field(default_factory=list)
    phases: list[PhaseRow] = field(default_factory=list)
    peak_bytes: int = 0
    composition: dict[str, int] | None = None
    metrics_text: str = ""
    metric_totals: dict[str, Any] = field(default_factory=dict)
    lanes: str | None = None
    trace: Trace = field(default_factory=Trace)

    def render(self) -> str:
        sections = [f"== {self.title} =="]
        if self.job_lines:
            sections.append("\n".join(self.job_lines))
        sections.append("-- phases --\n" + render_phase_table(self.phases))
        if self.peak_bytes or self.composition:
            mem = [f"-- memory --\npeak {format_size(self.peak_bytes)} "
                   "on the hottest rank"]
            if self.composition is not None:
                mem.append(render_composition(self.composition))
            sections.append("\n".join(mem))
        if self.metrics_text:
            sections.append("-- metrics --\n" + self.metrics_text)
        if self.lanes is not None:
            sections.append("-- job lanes --\n" + self.lanes)
        return "\n\n".join(sections)


# ------------------------------------------------------------- wordcount

def run_wordcount_report(*, nprocs: int = 4, platform: str = "comet",
                         input_bytes: int = 1 << 15,
                         seed: int = 0) -> RunReport:
    """WordCount with tracing and metrics attached."""
    from repro.apps.wordcount import wordcount_plan
    from repro.datasets.words import uniform_text
    from repro.mpi.platforms import PLATFORMS
    from repro.sched.executor import PlanRunner

    cluster = Cluster(PLATFORMS[platform], nprocs, keep_timeline=True)
    path = "report/words.txt"
    cluster.pfs.store(path, uniform_text(input_bytes, seed=seed))
    trace = Trace()

    def rank_fn(env):
        with trace.span(env, "wordcount", rank=env.comm.rank):
            counted = wordcount_plan(
                env, path, runner=partial(PlanRunner, env, trace=trace))
        return counted.unique_words, counted.total_words

    result = cluster.run(rank_fn)
    unique = sum(u for u, _t in result.returns)
    total = sum(t for _u, t in result.returns)
    hottest = max(range(nprocs), key=lambda r: result.peak_bytes[r])
    return RunReport(
        title=f"wordcount: {nprocs} ranks on {platform}, "
              f"{format_size(input_bytes)} input",
        job_lines=[f"{unique} unique words, {total} total, "
                   f"{result.elapsed:.4f}s virtual"],
        phases=phase_rows(trace),
        peak_bytes=result.peak_bytes[hottest],
        composition=composition_at_peak(cluster.trackers[hottest]),
        metrics_text=cluster.metrics.render(),
        metric_totals=cluster.metrics.totals(),
        trace=trace,
    )


# -------------------------------------------------------------- pipeline

def run_pipeline_report(apps: "list[str] | None" = None, *,
                        nprocs: int = 4, platform: str = "comet",
                        memory_limit: "int | str | None" = "512K",
                        ) -> RunReport:
    """Drain the multi-job scheduler demo and report the whole drain."""
    from repro.sched.demo import submit_demo

    apps, scheduler = submit_demo(apps, nprocs=nprocs, platform=platform,
                                  memory_limit=memory_limit)
    cluster, trace = scheduler.cluster, scheduler.trace
    sched_report = scheduler.run()
    title = f"pipeline ({' '.join(apps)}): {nprocs} ranks on {platform}"
    if cluster.memory_limit_per_rank is not None:
        title += f", {format_size(cluster.memory_limit_per_rank)}/rank"
    return RunReport(
        title=title,
        job_lines=sched_report.render_log().splitlines(),
        phases=phase_rows(trace),
        peak_bytes=max((t.peak for t in scheduler.trackers), default=0),
        composition=None,   # scheduler trackers skip the timeline
        metrics_text=cluster.metrics.render(),
        metric_totals=cluster.metrics.totals(),
        lanes=render_job_lanes(trace),
        trace=trace,
    )


# ------------------------------------------------------------ saved trace

def load_trace_report(path: str) -> RunReport:
    """Rebuild the trace-derived views from a ``Trace.to_json`` file."""
    with open(path) as fh:
        trace = Trace.from_json(fh.read())
    has_sched = any(e.kind in SCHED_EVENT_KINDS and "job" in e.data
                    for e in trace.events)
    return RunReport(
        title=f"saved trace: {path} ({len(trace.events)} events)",
        job_lines=[f"{kind}: {count}" for kind, count
                   in sorted(trace.summary().items())],
        phases=phase_rows(trace),
        lanes=render_job_lanes(trace) if has_sched else None,
        trace=trace,
    )
