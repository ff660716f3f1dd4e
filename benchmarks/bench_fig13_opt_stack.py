"""Figure 13: the optimization stack on one Mira node.

Baseline Mimir, then +KV-hint, +partial-reduction, +KV-compression,
one at a time.  The paper's shape: peak memory drops monotonically as
optimizations are added for WC and OC (BFS supports only the hint),
and the full stack processes 4x (WC/OC) or 2x (BFS) larger datasets
than the baseline.
"""

from figutils import (
    BMIRA,
    OPT_STACK,
    in_memory_reach,
    print_memory_time,
    single_node_sweep,
)

STACK = [config.name for config in OPT_STACK]


def _check_monotone_memory(series):
    """Peak memory must not grow from base -> hint -> hint;pr.

    The cps step is checked separately: the paper notes KV compression
    "reduces memory usage only if the compression ratio reaches a
    certain threshold", so its bucket overhead may cost memory on
    low-duplication (uniform) data.
    """
    for label in series.labels:
        peaks = []
        for name in STACK[:3]:
            record = series.get(name, label)
            if record is None or not record.in_memory:
                continue
            peaks.append((name, record.peak_bytes))
        for (_, a), (_, b) in zip(peaks, peaks[1:]):
            assert b <= a * 1.10  # small tolerance for page rounding


def test_fig13a_wc_uniform(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 13a: optimization stack, WC(Uniform), Mira", BMIRA,
            "wc_uniform", ["256M", "512M", "1G", "2G", "4G", "8G"],
            OPT_STACK),
        rounds=1, iterations=1)
    print_memory_time(series)
    _check_monotone_memory(series)
    # hint and pr each extend the reach; the best stack member runs
    # 4x larger datasets than the baseline.
    best = max(in_memory_reach(series, name) for name in STACK)
    assert best >= in_memory_reach(series, STACK[0]) + 2


def test_fig13b_wc_wikipedia(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 13b: optimization stack, WC(Wikipedia), Mira", BMIRA,
            "wc_wiki", ["256M", "512M", "1G", "2G", "4G", "8G"],
            OPT_STACK),
        rounds=1, iterations=1)
    print_memory_time(series)
    _check_monotone_memory(series)
    # On skewed data compression pays off: the full stack goes furthest.
    assert in_memory_reach(series, STACK[-1]) > in_memory_reach(series,
                                                                STACK[0])


def test_fig13c_octree(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 13c: optimization stack, OC, Mira", BMIRA, "oc",
            [f"2^{k}" for k in range(24, 30)], OPT_STACK, max_level=6),
        rounds=1, iterations=1)
    print_memory_time(series)
    _check_monotone_memory(series)
    assert in_memory_reach(series, STACK[-1]) > in_memory_reach(series,
                                                                STACK[0])


def test_fig13d_bfs(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Fig 13d: optimization stack, BFS, Mira", BMIRA, "bfs",
            [f"2^{k}" for k in range(18, 24)], OPT_STACK),
        rounds=1, iterations=1)
    print_memory_time(series)
    # BFS: hint helps, pr is unsupported, cps does not move the peak.
    for label in series.labels:
        base = series.get("Mimir", label)
        hint = series.get("Mimir (hint)", label)
        if base.in_memory and hint.in_memory:
            assert hint.peak_bytes <= base.peak_bytes
    assert in_memory_reach(series, "Mimir (hint)") >= \
        in_memory_reach(series, "Mimir")
