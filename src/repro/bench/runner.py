"""Execute one experiment spec on a fresh simulated cluster.

A spec names the platform (already bench-scaled), the process count,
the app and dataset size, the framework, and the optimization set.
``run_spec`` stages the dataset on a fresh PFS, runs the job with OOM
capture, and returns a :class:`~repro.bench.records.RunRecord` - the
exact information one point of a paper figure carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.apps.bfs import bfs_mrmpi, bfs_plan
from repro.apps.octree import octree_mrmpi, octree_plan
from repro.apps.wordcount import wordcount_mrmpi, wordcount_plan
from repro.bench.records import RunRecord
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets import (
    edges_to_bytes,
    kronecker_edges,
    normal_points,
    points_to_bytes,
    uniform_text,
    zipf_text,
)
from repro.mpi.platforms import Platform
from repro.mrmpi import MRMPIConfig

#: The apps a spec runs, each with its default paper size (what
#: ``repro run`` uses without ``--size``): bytes for WordCount, a
#: point or vertex count for OC and BFS.
APPS = {"wc_uniform": "1G", "wc_wiki": "1G", "oc": "2^24", "bfs": "2^20"}
FRAMEWORKS = ("mimir", "mrmpi")

#: Dataset cache: staging is deterministic, so identical inputs are
#: generated once per process.
_DATASET_CACHE: dict[tuple, bytes] = {}


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark data point."""

    label: str                    # x-axis label (paper units)
    config_name: str              # series label, e.g. "Mimir (hint;pr)"
    platform: Platform            # bench-scaled platform
    nprocs: int
    app: str                      # one of APPS
    framework: str                # one of FRAMEWORKS
    size: int                     # bytes (wc) / points (oc) / vertices (bfs)
    #: MR-MPI page size; Mimir always uses the platform default page
    #: (the paper pins both to 64 MB for fairness).
    mrmpi_page: int | None = None
    hint: bool = False
    compress: bool = False
    partial: bool = False
    out_of_core: bool = False  # Mimir's post-publication ooc mode
    memory_limit: int | str | None = "auto"
    #: Simulated node count (weak-scaling runs use one rank per node).
    nodes: int = 1
    seed: int = 0
    edgefactor: int = 32
    density: float = 0.01
    max_level: int = 8

    def __post_init__(self):
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}")
        if self.framework not in FRAMEWORKS:
            raise ValueError(f"unknown framework {self.framework!r}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")


@dataclass(frozen=True)
class Config:
    """One plotted series: a framework plus its options."""

    name: str
    framework: str            # "mimir" | "mrmpi"
    mrmpi_page: str | None = None   # paper units, e.g. "512M"
    hint: bool = False
    compress: bool = False
    partial: bool = False
    out_of_core: bool = False


def mimir(name: str = "Mimir", **opts) -> Config:
    return Config(name, "mimir", **opts)


def mrmpi(page: str, name: str | None = None, **opts) -> Config:
    return Config(name or f"MR-MPI({page})", "mrmpi", page, **opts)


# --------------------------------------------------------------- staging

def stage_dataset(spec: ExperimentSpec) -> tuple[str, bytes]:
    """Generate (cached) the input blob for a spec; returns (path, data)."""
    if spec.app == "wc_uniform":
        key = ("wc_uniform", spec.size, spec.seed)
        if key not in _DATASET_CACHE:
            # A wide vocabulary keeps the per-rank shuffle volume close
            # to its mean (small key-hash variance); 9-letter words give
            # the ~2.5x text-to-KV expansion that puts MR-MPI's
            # in-memory crossovers where the paper's are (64M pages hold
            # 512M of input, 512M pages hold 4G).
            vocab = min(65536, max(64, spec.size // 16))
            _DATASET_CACHE[key] = uniform_text(spec.size, vocab_size=vocab,
                                               word_len=9, seed=spec.seed)
        return "input/wc_uniform.txt", _DATASET_CACHE[key]
    if spec.app == "wc_wiki":
        key = ("wc_wiki", spec.size, spec.seed)
        if key not in _DATASET_CACHE:
            vocab = min(65536, max(64, spec.size // 64))
            _DATASET_CACHE[key] = zipf_text(spec.size, vocab_size=vocab,
                                            seed=spec.seed)
        return "input/wc_wiki.txt", _DATASET_CACHE[key]
    if spec.app == "oc":
        key = ("oc", spec.size, spec.seed)
        if key not in _DATASET_CACHE:
            _DATASET_CACHE[key] = points_to_bytes(
                normal_points(spec.size, seed=spec.seed))
        return "input/points.bin", _DATASET_CACHE[key]
    if spec.app == "bfs":
        scale = max(1, round(math.log2(spec.size)))
        key = ("bfs", scale, spec.edgefactor, spec.seed)
        if key not in _DATASET_CACHE:
            _DATASET_CACHE[key] = edges_to_bytes(
                kronecker_edges(scale, spec.edgefactor, seed=spec.seed))
        return "input/edges.bin", _DATASET_CACHE[key]
    raise AssertionError(spec.app)


# --------------------------------------------------------------- running

def _mimir_config(spec: ExperimentSpec) -> MimirConfig:
    page = spec.platform.default_page_size
    return MimirConfig(page_size=page, comm_buffer_size=page,
                       input_chunk_size=page,
                       out_of_core=spec.out_of_core)


def _mrmpi_config(spec: ExperimentSpec) -> MRMPIConfig:
    page = spec.mrmpi_page or spec.platform.default_page_size
    return MRMPIConfig(page_size=page,
                       input_chunk_size=spec.platform.default_page_size)


def _job(env, spec: ExperimentSpec, path: str):
    if spec.app in ("wc_uniform", "wc_wiki"):
        if spec.framework == "mimir":
            return wordcount_plan(env, path, _mimir_config(spec),
                                  hint=spec.hint, compress=spec.compress,
                                  partial=spec.partial)
        return wordcount_mrmpi(env, path, _mrmpi_config(spec),
                               compress=spec.compress)
    if spec.app == "oc":
        if spec.framework == "mimir":
            return octree_plan(env, path, _mimir_config(spec),
                               density=spec.density,
                               max_level=spec.max_level, hint=spec.hint,
                               compress=spec.compress, partial=spec.partial)
        return octree_mrmpi(env, path, _mrmpi_config(spec),
                            density=spec.density, max_level=spec.max_level,
                            compress=spec.compress)
    if spec.app == "bfs":
        if spec.framework == "mimir":
            return bfs_plan(env, path, _mimir_config(spec),
                            hint=spec.hint, compress=spec.compress)
        return bfs_mrmpi(env, path, _mrmpi_config(spec),
                         compress=spec.compress)
    raise AssertionError(spec.app)


def run_spec(spec: ExperimentSpec) -> RunRecord:
    """Stage, run, and summarise one data point."""
    path, data = stage_dataset(spec)
    cluster = Cluster(spec.platform, nprocs=spec.nprocs, nodes=spec.nodes,
                      memory_limit=spec.memory_limit)
    cluster.pfs.store(path, data)
    result = cluster.run(_job, spec, path, allow_oom=True)
    return RunRecord(
        label=spec.label,
        config=spec.config_name,
        peak_bytes=result.node_peak_bytes,
        elapsed=result.elapsed,
        oom=result.ran_out_of_memory,
        spilled=result.spilled_bytes > 0,
        spilled_bytes=result.spilled_bytes,
        extra={"nprocs": spec.nprocs, "app": spec.app,
               "framework": spec.framework,
               "input_bytes": len(data)},
    )
