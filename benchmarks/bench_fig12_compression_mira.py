"""Figure 12: KV compression on one Mira node.

Same configurations as Figure 11 on the smaller node: MR-MPI at its
largest workable page (128M for WC; 64M for OC and BFS, since 128M
pages cannot even be allocated there - the paper makes the same
substitution).  With compression, Mimir processes up to 16x larger
datasets than MR-MPI.
"""

from figutils import (
    BMIRA,
    in_memory_reach,
    print_memory_time,
    single_node_sweep,
)
from repro.bench import mimir, mrmpi


def _configs(page: str):
    return (
        mimir("Mimir"),
        mimir("Mimir (cps)", compress=True),
        mrmpi(page, name="MR-MPI"),
        mrmpi(page, name="MR-MPI (cps)", compress=True),
    )


def test_fig12a_wc_uniform(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 12a: KV compression, WC(Uniform), Mira", BMIRA,
            "wc_uniform",
            ["256M", "512M", "1G", "2G", "4G", "8G"],
            _configs("128M")),
        rounds=1, iterations=1)
    print_memory_time(series)
    assert in_memory_reach(series, "Mimir (cps)") > \
        in_memory_reach(series, "MR-MPI")


def test_fig12b_wc_wikipedia(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 12b: KV compression, WC(Wikipedia), Mira", BMIRA,
            "wc_wiki",
            ["256M", "512M", "1G", "2G", "4G", "8G"],
            _configs("128M")),
        rounds=1, iterations=1)
    print_memory_time(series)
    assert in_memory_reach(series, "Mimir (cps)") > \
        in_memory_reach(series, "MR-MPI")


def test_fig12c_octree(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 12c: KV compression, OC, Mira", BMIRA, "oc",
            [f"2^{k}" for k in range(24, 30)], _configs("64M"),
            max_level=6),
        rounds=1, iterations=1)
    print_memory_time(series)
    assert in_memory_reach(series, "Mimir (cps)") > \
        in_memory_reach(series, "MR-MPI")


def test_fig12d_bfs(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 12d: KV compression, BFS, Mira", BMIRA, "bfs",
            [f"2^{k}" for k in range(18, 24)], _configs("64M")),
        rounds=1, iterations=1)
    print_memory_time(series)
    assert in_memory_reach(series, "Mimir") > \
        in_memory_reach(series, "MR-MPI")
    # Compression does not meaningfully change BFS's reach (the peak
    # is in graph partitioning); at bench scale the hub vertex can make
    # a traversal round the runner-up, so allow cps to tie or edge out
    # by one step.
    assert in_memory_reach(series, "Mimir") <= \
        in_memory_reach(series, "Mimir (cps)") <= \
        in_memory_reach(series, "Mimir") + 1
