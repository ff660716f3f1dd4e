"""Shared sweep builders for the figure-reproduction benchmarks.

Each paper figure is a sweep of (dataset size x configuration); this
module turns a compact declaration into executed `RunRecord`s and a
printed paper-style table.  Dataset sizes are quoted in *paper units*
("4G", 2**26 points) and rescaled through :class:`BenchScale`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.bench import BenchScale, ExperimentSpec, Series, run_spec
from repro.bench.tables import render_memory_time_table, render_scaling_table
from repro.memory.limits import parse_size
from repro.mpi import COMET, MIRA
from repro.mpi.platforms import Platform

SCALE = BenchScale()

#: Bench-scaled platforms used by every figure module.
BCOMET = SCALE.platform(COMET)
BMIRA = SCALE.platform(MIRA)


@dataclass(frozen=True)
class Config:
    """One plotted series: a framework plus its options."""

    name: str
    framework: str            # "mimir" | "mrmpi"
    mrmpi_page: str | None = None   # paper units, e.g. "512M"
    hint: bool = False
    compress: bool = False
    partial: bool = False


def mimir(name: str = "Mimir", **opts) -> Config:
    return Config(name=name, framework="mimir", **opts)


def mrmpi(page: str, name: str | None = None, **opts) -> Config:
    return Config(name=name or f"MR-MPI({page})", framework="mrmpi",
                  mrmpi_page=page, **opts)


#: Canonical optimization-stack series of Figures 13 and 14.
OPT_STACK = (
    mimir("Mimir"),
    mimir("Mimir (hint)", hint=True),
    mimir("Mimir (hint;pr)", hint=True, partial=True),
    mimir("Mimir (hint;pr;cps)", hint=True, partial=True, compress=True),
)


def _spec(platform: Platform, app: str, label: str, size: int,
          config: Config, *, nprocs: int | None = None,
          nodes: int = 1, memory_limit="auto", seed: int = 0,
          max_level: int = 8) -> ExperimentSpec:
    page = None
    if config.mrmpi_page is not None:
        page = max(1, parse_size(config.mrmpi_page) >> SCALE.total_shift)
    partial = config.partial and app != "bfs"  # BFS does not support pr
    return ExperimentSpec(
        label=label, config_name=config.name, platform=platform,
        nprocs=nprocs if nprocs is not None else platform.procs_per_node,
        nodes=nodes, app=app, framework=config.framework, size=size,
        mrmpi_page=page, hint=config.hint, compress=config.compress,
        partial=partial, memory_limit=memory_limit, seed=seed,
        max_level=max_level)


def wc_sizes(labels: list[str]) -> list[tuple[str, int]]:
    """Paper byte-size labels -> (label, scaled bytes)."""
    return [(label, SCALE.size(label)) for label in labels]


def count_sizes(exponents: list[int]) -> list[tuple[str, int]]:
    """Paper cardinality exponents -> ("2^k", scaled count)."""
    return [(f"2^{k}", SCALE.count(1 << k)) for k in exponents]


def single_node_sweep(title: str, platform: Platform, app: str,
                      points: list[tuple[str, int]],
                      configs: tuple[Config, ...], *,
                      max_level: int = 8) -> Series:
    """Run a full (size x config) single-node sweep."""
    series = Series(title)
    for label, size in points:
        for config in configs:
            series.add(run_spec(_spec(platform, app, label, size, config,
                                      max_level=max_level)))
    return series


def weak_scaling_sweep(title: str, platform: Platform, app: str,
                       per_node_label: str, per_node_size: int,
                       node_counts: list[int],
                       configs: tuple[Config, ...], *,
                       max_level: int = 8) -> Series:
    """Weak scaling with the representative-process model.

    One simulated rank stands for one process of each fully populated
    node: it owns ``per_node_size / procs_per_node`` of data and
    ``node_memory / procs_per_node`` of memory, so per-process load
    imbalance - the failure mode of the paper's Figure 14 - appears
    exactly as it would across ``nodes x procs_per_node`` real ranks.
    """
    series = Series(title)
    per_proc = max(1, per_node_size // platform.procs_per_node)
    for nodes in node_counts:
        for config in configs:
            spec = _spec(platform, app, str(nodes), per_proc * nodes,
                         config, nprocs=nodes, nodes=nodes,
                         memory_limit=platform.memory_per_proc,
                         max_level=max_level)
            series.add(run_spec(spec))
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
