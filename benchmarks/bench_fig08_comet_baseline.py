"""Figure 8: baseline Mimir vs MR-MPI on one Comet node.

Four panels (WC Uniform, WC Wikipedia, OC, BFS), each sweeping dataset
size for Mimir, MR-MPI(64M), and MR-MPI(512M).  The paper's claims:
Mimir uses at least ~25 % less memory in the in-memory regime, runs
4x (WC/OC) to 8x (BFS) larger datasets in memory, and matches MR-MPI's
in-memory execution times.
"""

import pytest

from figutils import (
    BCOMET,
    in_memory_reach,
    print_memory_time,
    single_node_sweep,
)
from repro.bench import mimir, mrmpi

CONFIGS = (mimir(), mrmpi("64M"), mrmpi("512M"))


def _check_paper_shape(series, *, small_label):
    mimir_peak = series.get("Mimir", small_label).peak_bytes
    mr64_peak = series.get("MR-MPI(64M)", small_label).peak_bytes
    # Paper: at least ~25 % less memory in the in-memory regime.
    assert mimir_peak < 0.75 * mr64_peak
    # Paper: Mimir supports the largest in-memory datasets of the three.
    reach_mimir = in_memory_reach(series, "Mimir")
    assert reach_mimir > in_memory_reach(series, "MR-MPI(64M)")
    assert reach_mimir >= in_memory_reach(series, "MR-MPI(512M)")
    # Paper: comparable execution times wherever both run in memory.
    for mr_name in ("MR-MPI(64M)", "MR-MPI(512M)"):
        for label in series.labels:
            mimir_rec = series.get("Mimir", label)
            mr_rec = series.get(mr_name, label)
            if mimir_rec.in_memory and mr_rec.in_memory:
                assert mimir_rec.elapsed < 2 * mr_rec.elapsed
                assert mr_rec.elapsed < 2 * mimir_rec.elapsed


def test_fig08a_wc_uniform(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 8a: WC(Uniform), one Comet node", BCOMET, "wc_uniform",
            ["256M", "512M", "1G", "2G", "4G", "8G", "16G"],
            CONFIGS),
        rounds=1, iterations=1)
    print_memory_time(series)
    _check_paper_shape(series, small_label="256M")
    # 4-fold larger than the best MR-MPI case (512M pages -> 4G).
    assert series.max_in_memory_label("Mimir") == "16G"
    assert series.max_in_memory_label("MR-MPI(512M)") == "4G"


def test_fig08b_wc_wikipedia(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 8b: WC(Wikipedia), one Comet node", BCOMET, "wc_wiki",
            ["256M", "512M", "1G", "2G", "4G", "8G", "16G"],
            CONFIGS),
        rounds=1, iterations=1)
    print_memory_time(series)
    _check_paper_shape(series, small_label="256M")


def test_fig08c_octree(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 8c: OC, one Comet node", BCOMET, "oc",
            [f"2^{k}" for k in range(24, 31)], CONFIGS,
            max_level=6),
        rounds=1, iterations=1)
    print_memory_time(series)
    _check_paper_shape(series, small_label="2^24")


def test_fig08d_bfs(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 8d: BFS, one Comet node", BCOMET, "bfs",
            [f"2^{k}" for k in range(19, 27)], CONFIGS),
        rounds=1, iterations=1)
    print_memory_time(series)
    _check_paper_shape(series, small_label="2^19")
