"""Shared sweep builders for the figure-reproduction benchmarks.

Each paper figure is a sweep of (dataset size x configuration); this
module turns a compact declaration into executed `RunRecord`s and a
printed paper-style table.  Dataset sizes are quoted in *paper units*
("4G", "2^26" points) and rescaled through :class:`BenchScale`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import BenchScale, Config, Series, mimir, run_spec
from repro.bench.tables import render_memory_time_table, render_scaling_table
from repro.mpi import COMET, MIRA
from repro.mpi.platforms import Platform

SCALE = BenchScale()

#: Bench-scaled platforms used by every figure module.
BCOMET = SCALE.platform(COMET)
BMIRA = SCALE.platform(MIRA)

#: Canonical optimization-stack series of Figures 13 and 14.
OPT_STACK = (
    mimir("Mimir"),
    mimir("Mimir (hint)", hint=True),
    mimir("Mimir (hint;pr)", hint=True, partial=True),
    mimir("Mimir (hint;pr;cps)", hint=True, partial=True, compress=True),
)


def single_node_sweep(title: str, platform: Platform, app: str,
                      labels: list[str], configs: tuple[Config, ...], *,
                      max_level: int = 8) -> Series:
    """Run a full (size x config) single-node sweep."""
    series = Series(title)
    for label in labels:
        for config in configs:
            series.add(run_spec(SCALE.spec(platform, app, label, config,
                                           max_level=max_level)))
    return series


def weak_scaling_sweep(title: str, platform: Platform, app: str,
                       per_node: str, node_counts: list[int],
                       configs: tuple[Config, ...], *,
                       max_level: int = 8) -> Series:
    """Weak scaling with the representative-process model.

    One simulated rank stands for one process of each fully populated
    node: it owns ``per_node / procs_per_node`` of data and
    ``node_memory / procs_per_node`` of memory, so per-process load
    imbalance - the failure mode of the paper's Figure 14 - appears
    exactly as it would across ``nodes x procs_per_node`` real ranks.
    """
    series = Series(title)
    per_proc = max(1, SCALE.size(per_node) // platform.procs_per_node)
    for nodes in node_counts:
        for config in configs:
            series.add(run_spec(SCALE.spec(
                platform, app, str(nodes), config, size=per_proc * nodes,
                nprocs=nodes, nodes=nodes,
                memory_limit=platform.memory_per_proc, max_level=max_level)))
    return series


def print_memory_time(series: Series) -> None:
    print(render_memory_time_table(series))


def print_scaling(series: Series) -> None:
    print(render_scaling_table(series))


def in_memory_reach(series: Series, config_name: str) -> int:
    """Index of the largest in-memory label for a config (-1 if none)."""
    label = series.max_in_memory_label(config_name)
    return series.labels.index(label) if label is not None else -1


def append_trajectory(path: Path, entry: dict, **header) -> None:
    """Append one run to a ``BENCH_*.json`` trajectory, numbering it;
    ``header`` fills the top level of a file that does not exist yet."""
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        doc = {**header, "history": []}
    entry["run"] = len(doc["history"]) + 1
    doc["history"].append(entry)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
