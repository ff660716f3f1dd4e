"""Figure 14: weak scalability of the optimization stack on Mira.

Per-node inputs are the largest the *baseline* can process on one node
(2 GB/node WC, 2^27 points/node OC, 2^22 vertices/node BFS), so the
baseline is at the edge of memory from the start: as nodes are added,
load imbalance pushes some representative process over its budget and
the run OOMs.  Each added optimization extends the node count the job
survives to - the paper's central scalability result.  (The paper runs
to 1,024 nodes; we sweep 2-32 simulated nodes, which is where all the
ordering crossovers already appear.)
"""

from figutils import (
    BMIRA,
    OPT_STACK,
    print_scaling,
    weak_scaling_sweep,
)

NODES = [2, 4, 8, 16, 32]
STACK = [config.name for config in OPT_STACK]


def _reach(series, config):
    best = 0
    for n in NODES:
        record = series.get(config, str(n))
        if record is not None and record.in_memory:
            best = n
    return best


def _check_stack_order(series):
    """More optimizations never scale worse."""
    reaches = [_reach(series, name) for name in STACK]
    for a, b in zip(reaches, reaches[1:]):
        assert b >= a
    return reaches


def test_fig14a_wc_uniform(benchmark):
    series = benchmark.pedantic(
        lambda: weak_scaling_sweep(
            "Fig 14a: opt-stack weak scaling, WC(Uniform), 2G/node, Mira",
            BMIRA, "wc_uniform", "2G", NODES, OPT_STACK),
        rounds=1, iterations=1)
    print_scaling(series)
    reaches = _check_stack_order(series)
    # The full stack must scale meaningfully further than the baseline.
    assert reaches[-1] > reaches[0]


def test_fig14b_wc_wikipedia(benchmark):
    series = benchmark.pedantic(
        lambda: weak_scaling_sweep(
            "Fig 14b: opt-stack weak scaling, WC(Wikipedia), 2G/node, Mira",
            BMIRA, "wc_wiki", "2G", NODES, OPT_STACK),
        rounds=1, iterations=1)
    print_scaling(series)
    reaches = _check_stack_order(series)
    assert reaches[-1] > reaches[0]


def test_fig14c_octree(benchmark):
    series = benchmark.pedantic(
        lambda: weak_scaling_sweep(
            "Fig 14c: opt-stack weak scaling, OC, 2^27 points/node, Mira",
            BMIRA, "oc", "2^27", NODES, OPT_STACK, max_level=6),
        rounds=1, iterations=1)
    print_scaling(series)
    _check_stack_order(series)


def test_fig14d_bfs(benchmark):
    series = benchmark.pedantic(
        lambda: weak_scaling_sweep(
            "Fig 14d: opt-stack weak scaling, BFS, 2^22 vertices/node, Mira",
            BMIRA, "bfs", "2^22", NODES, OPT_STACK),
        rounds=1, iterations=1)
    print_scaling(series)
    # BFS ignores pr; hint must not hurt the reach.
    assert _reach(series, "Mimir (hint)") >= _reach(series, "Mimir")
