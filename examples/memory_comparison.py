#!/usr/bin/env python3
"""Miniature of the paper's Figure 8a: Mimir vs MR-MPI memory frontier.

Sweeps the WordCount dataset size on one simulated Comet node and
prints, for each framework, the peak node memory and whether the run
stayed in memory - showing MR-MPI's fixed footprint + early spill vs
Mimir's proportional footprint + 4x reach.

Run:  python examples/memory_comparison.py
"""

from repro.bench import BenchScale, Series, mimir, mrmpi, run_spec
from repro.bench.tables import render_memory_time_table
from repro.mpi import COMET


def main():
    scale = BenchScale()
    platform = scale.platform(COMET)
    print(f"Simulated Comet node, {scale.describe()}")

    series = Series("WordCount (Uniform): memory frontier")
    for label in ["256M", "512M", "1G", "2G", "4G", "8G", "16G"]:
        for config in (mimir(), mrmpi("64M"), mrmpi("512M")):
            series.add(run_spec(scale.spec(platform, "wc_uniform", label,
                                           config)))
    print(render_memory_time_table(series))
    print("\n(* = spilled to the parallel file system; OOM = exceeded"
          "\n the per-rank memory budget, as in the paper's figures)")


if __name__ == "__main__":
    main()
