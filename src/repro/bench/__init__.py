"""Benchmark harness: one runnable spec per paper data point.

The harness turns an :class:`ExperimentSpec` (platform, framework,
app, dataset size, optimization set) into a :class:`RunRecord` (peak
node memory, virtual execution time, OOM / spill outcome), and renders
the records as the same series the paper's figures plot.  Every spec
comes from one builder, :meth:`BenchScale.spec` (a paper size label
and a :class:`Config` series), and every bench module under
``benchmarks/`` is a thin sweep built on this package.
"""

from repro.bench.records import RunRecord, Series
from repro.bench.runner import Config, ExperimentSpec, mimir, mrmpi, run_spec
from repro.bench.scale import BenchScale
from repro.bench.tables import render_memory_time_table, render_scaling_table

__all__ = [
    "BenchScale",
    "Config",
    "ExperimentSpec",
    "RunRecord",
    "Series",
    "mimir",
    "mrmpi",
    "render_memory_time_table",
    "render_scaling_table",
    "run_spec",
]
