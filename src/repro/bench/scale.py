"""Benchmark-time rescaling on top of the repository-wide 1/1024 scale.

Paper experiments sweep up to 64 GB of text; even after the global
1/1024 rescale that is tens of megabytes of pure-Python record
processing per data point.  ``BenchScale`` applies a further power-of-
two shrink (default 1/16, env ``REPRO_BENCH_SHIFT``) to *everything* -
dataset sizes, page sizes, node memory, bandwidths - so all paper
ratios survive while full figure sweeps run in seconds to minutes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.bench.runner import APPS, Config, ExperimentSpec, mimir
from repro.memory.limits import parse_size
from repro.mpi.platforms import SCALE_SHIFT, Platform

#: Default extra shrink exponent (2**3 = 8x) on top of the global 1024x.
#: Smaller shifts increase fidelity (more records -> tighter hash-skew
#: concentration) at the cost of longer bench runs.
DEFAULT_EXTRA_SHIFT = 3


def extra_shift_from_env() -> int:
    """Read ``REPRO_BENCH_SHIFT`` (extra shrink exponent) from the env."""
    raw = os.environ.get("REPRO_BENCH_SHIFT", "")
    if not raw:
        return DEFAULT_EXTRA_SHIFT
    value = int(raw)
    if value < 0:
        raise ValueError(f"REPRO_BENCH_SHIFT must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class BenchScale:
    """Converts paper-quoted quantities into benchmark-run quantities."""

    extra_shift: int = field(default_factory=extra_shift_from_env)

    @property
    def total_shift(self) -> int:
        """Paper bytes are divided by ``2**total_shift``."""
        return SCALE_SHIFT + self.extra_shift

    def platform(self, platform: Platform) -> Platform:
        """The benchmark variant of an already-globally-scaled platform."""
        return platform.rescaled(self.extra_shift)

    def size(self, paper_size: int | str) -> int:
        """Scale a paper-quoted byte size or count (``"4G"``, ``"2^22"``)
        for a bench run.  Counts shrink by the same factor as bytes so
        that per-rank record footprints keep their paper ratios."""
        if isinstance(paper_size, str) and paper_size.startswith("2^"):
            paper_size = 1 << int(paper_size[2:])
        return max(1, parse_size(paper_size) >> self.total_shift)

    def spec(self, platform: Platform, app: str, label: str | None = None,
             config: Config = mimir(), *, size: int | None = None,
             nprocs: int | None = None, **fields) -> ExperimentSpec:
        """One data point: ``app`` at the paper size ``label`` (the app's
        default when None) under ``config``, one rank per process of a
        ``platform`` node unless ``nprocs`` says otherwise.  ``size``
        overrides the size the label reads as; ``fields`` fill the
        rest of the :class:`ExperimentSpec`."""
        label = label or APPS[app]
        page = None if config.mrmpi_page is None \
            else self.size(config.mrmpi_page)
        return ExperimentSpec(
            label=label, config_name=config.name, platform=platform,
            nprocs=nprocs or platform.procs_per_node, app=app,
            framework=config.framework, size=size or self.size(label),
            mrmpi_page=page, hint=config.hint, compress=config.compress,
            partial=config.partial, out_of_core=config.out_of_core,
            **fields)

    def describe(self) -> str:
        return (f"1/{1 << self.total_shift} of paper scale "
                f"(global 1/{1 << SCALE_SHIFT} x bench 1/{1 << self.extra_shift})")
