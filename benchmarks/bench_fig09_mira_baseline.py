"""Figure 9: baseline Mimir vs MR-MPI on one Mira node.

Same four panels as Figure 8 on the BG/Q-like platform: 16 ranks,
16 GB of node memory, GPFS behind I/O forwarding, and MR-MPI pages of
64 MB and 128 MB (128 MB is the largest the smaller node supports).
The paper reports a minimum 40 % memory gain and 4x larger datasets
across all benchmarks; MR-MPI(128M) cannot even allocate its pages for
OC and BFS.
"""

from figutils import (
    BMIRA,
    in_memory_reach,
    print_memory_time,
    single_node_sweep,
)
from repro.bench import mimir, mrmpi

CONFIGS = (mimir(), mrmpi("64M"), mrmpi("128M"))


def _check_paper_shape(series, *, small_label, min_gain=0.40):
    mimir_rec = series.get("Mimir", small_label)
    mr64 = series.get("MR-MPI(64M)", small_label)
    # Paper: minimum 40 % memory gain across all Mira tests.
    assert mimir_rec.peak_bytes < (1 - min_gain) * mr64.peak_bytes
    assert in_memory_reach(series, "Mimir") > \
        in_memory_reach(series, "MR-MPI(64M)")


def test_fig09a_wc_uniform(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 9a: WC(Uniform), one Mira node", BMIRA, "wc_uniform",
            ["64M", "128M", "256M", "512M", "1G", "2G"], CONFIGS),
        rounds=1, iterations=1)
    print_memory_time(series)
    _check_paper_shape(series, small_label="64M")


def test_fig09b_wc_wikipedia(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 9b: WC(Wikipedia), one Mira node", BMIRA, "wc_wiki",
            ["64M", "128M", "256M", "512M", "1G", "2G"], CONFIGS),
        rounds=1, iterations=1)
    print_memory_time(series)
    _check_paper_shape(series, small_label="64M")


def test_fig09c_octree(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 9c: OC, one Mira node", BMIRA, "oc",
            [f"2^{k}" for k in range(22, 28)], CONFIGS, max_level=6),
        rounds=1, iterations=1)
    print_memory_time(series)
    _check_paper_shape(series, small_label="2^22")


def test_fig09d_bfs(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 9d: BFS, one Mira node", BMIRA, "bfs",
            [f"2^{k}" for k in range(18, 23)], CONFIGS),
        rounds=1, iterations=1)
    print_memory_time(series)
    _check_paper_shape(series, small_label="2^18")
