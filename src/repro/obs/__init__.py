"""Unified observability: metrics registry, event trace, Perfetto export.

The pieces (see ``docs/observability.md``):

- :mod:`repro.obs.registry` - the closed catalog of named counters /
  gauges / histograms, per-rank :class:`MetricShard` storage, and the
  collective :func:`reduce_metrics` aggregation.
- :mod:`repro.obs.trace` - the one :class:`Trace`, and
  :mod:`repro.obs.chrome`, its Chrome/Perfetto ``trace_event`` export.
- :mod:`repro.obs.timeline` / :mod:`repro.obs.balance` - job lanes,
  memory profile and peak composition, :class:`ImbalanceReport`.
- :mod:`repro.obs.report` - the ``repro report`` pipeline (phase
  table, memory-at-peak composition, metric totals, job lanes).
  **Imported lazily**: it pulls in the cluster harness, which itself
  imports this package - ``import repro.obs.report`` explicitly when
  you need it.
"""

from repro.obs.balance import ImbalanceReport
from repro.obs.chrome import (
    JOB_PID,
    SCHED_PID,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.registry import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    METRICS,
    Histogram,
    MetricShard,
    MetricSpec,
    MetricsRegistry,
    UnknownMetricError,
    aggregate,
    reduce_metrics,
    register,
)
from repro.obs.timeline import (
    SCHED_EVENT_KINDS,
    composition_at_peak,
    render_job_lanes,
    render_timeline,
)
from repro.obs.trace import Event, Trace

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "JOB_PID",
    "METRICS",
    "SCHED_EVENT_KINDS",
    "SCHED_PID",
    "Event",
    "Histogram",
    "ImbalanceReport",
    "MetricShard",
    "MetricSpec",
    "MetricsRegistry",
    "Trace",
    "UnknownMetricError",
    "aggregate",
    "composition_at_peak",
    "reduce_metrics",
    "register",
    "render_job_lanes",
    "render_timeline",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
