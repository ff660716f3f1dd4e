"""The ``repro report`` pipeline: run a job, render what happened.

A :class:`RunReport` bundles the four views the paper's evaluation
sections argue from - a per-phase time table, the memory composition
at the global peak, the aggregated metric totals, and (for scheduled
multi-job runs) per-job timeline lanes - plus the
:class:`~repro.obs.trace.Trace` behind them, ready for Perfetto export.

Two entry points:

- :func:`run_report` drains catalog rows (or ``insitu``) through the
  scheduler demo (:func:`repro.sched.demo.submit_demo`) with tracing,
  metrics and the memory timeline attached.
- :func:`load_trace_report` rebuilds the trace-derived views from a
  saved ``Trace.to_json()`` file without re-running anything.

This module drives the cluster harness; it is deliberately **not**
re-exported from ``repro.obs`` (which the harness itself imports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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


# ------------------------------------------------------------------ run

def run_report(apps: list[str], *, nprocs: int = 4, platform: str = "comet",
               memory_limit: "int | str | None" = "512K") -> RunReport:
    """Drain ``apps`` through the scheduler demo and report the drain:
    the memory section is the hottest rank's composition at its peak."""
    from repro.sched.demo import submit_demo

    apps, scheduler = submit_demo(apps, nprocs=nprocs, platform=platform,
                                  memory_limit=memory_limit)
    cluster, trace = scheduler.cluster, scheduler.trace
    sched_report = scheduler.run()
    title = f"{' '.join(apps)}: {nprocs} ranks on {platform}"
    if cluster.memory_limit_per_rank is not None:
        title += f", {format_size(cluster.memory_limit_per_rank)}/rank"
    hottest = max(scheduler.trackers, key=lambda tracker: tracker.peak)
    return RunReport(
        title=title,
        job_lines=sched_report.render_log().splitlines(),
        phases=phase_rows(trace),
        peak_bytes=hottest.peak,
        composition=composition_at_peak(hottest),
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
