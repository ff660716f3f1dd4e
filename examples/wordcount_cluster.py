#!/usr/bin/env python3
"""WordCount shoot-out: Mimir (with its optimization stack) vs MR-MPI.

Runs the same Zipf-skewed corpus through five configurations on a
simulated 24-rank Comet node and prints the peak memory and virtual
execution time of each - a miniature of the paper's Figures 8 and 13.

Run:  python examples/wordcount_cluster.py
"""

from repro.apps.wordcount import wordcount_plan, wordcount_mrmpi
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets import zipf_text
from repro.memory import format_size
from repro.mpi import COMET
from repro.mrmpi import MRMPIConfig

PLATFORM = COMET.rescaled(3)  # benchmark scale: 1/8192 of paper sizes
DATASET_BYTES = PLATFORM.node_memory // 20


def run(name, fn):
    cluster = Cluster(PLATFORM)
    cluster.pfs.store("input/words.txt",
                      zipf_text(DATASET_BYTES, vocab_size=4096, seed=7))
    result = cluster.run(fn, allow_oom=True)
    mem = "OOM" if result.ran_out_of_memory else \
        format_size(result.node_peak_bytes)
    time = "-" if result.ran_out_of_memory else f"{result.elapsed:.2f}s"
    spill = "yes" if result.spilled_bytes else "no"
    print(f"  {name:<24} {mem:>10} {time:>10} {spill:>8}")
    return result


def main():
    mimir_cfg = MimirConfig(page_size=PLATFORM.default_page_size,
                            comm_buffer_size=PLATFORM.default_page_size)
    mrmpi_cfg = MRMPIConfig(page_size=PLATFORM.default_page_size)

    print(f"WordCount, {format_size(DATASET_BYTES)} Zipf corpus, "
          f"{PLATFORM.procs_per_node} ranks "
          f"({format_size(PLATFORM.node_memory)} node)\n")
    print(f"  {'configuration':<24} {'peak mem':>10} {'time':>10} "
          f"{'spilled':>8}")

    run("MR-MPI",
        lambda env: wordcount_mrmpi(env, "input/words.txt", mrmpi_cfg))
    run("Mimir",
        lambda env: wordcount_plan(env, "input/words.txt", mimir_cfg))
    run("Mimir (hint)",
        lambda env: wordcount_plan(env, "input/words.txt", mimir_cfg,
                                   hint=True))
    run("Mimir (hint+pr)",
        lambda env: wordcount_plan(env, "input/words.txt", mimir_cfg,
                                   hint=True, partial=True))
    run("Mimir (hint+pr+cps)",
        lambda env: wordcount_plan(env, "input/words.txt", mimir_cfg,
                                   hint=True, partial=True, compress=True))


if __name__ == "__main__":
    main()
