"""Per-phase time breakdown of WordCount across the optimization stack.

Not a paper figure, but the quantity behind the paper's Section III
arguments: where the time goes per phase, and how each optimization
shifts it (partial reduction removes the convert; compression shrinks
the aggregate; hints shave every byte-proportional stage).
"""

from figutils import BCOMET, SCALE
from repro.apps.wordcount import wordcount_plan
from repro.bench.runner import stage_dataset
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.obs import Trace
from repro.obs.report import phase_rows

DATASET = "2G"

VARIANTS = {
    "base": {},
    "hint": {"hint": True},
    "hint;pr": {"hint": True, "partial": True},
    "hint;pr;cps": {"hint": True, "partial": True, "compress": True},
}


def _run(opts):
    path, data = stage_dataset(SCALE.spec(BCOMET, "wc_wiki", DATASET))
    trace = Trace()
    cluster = Cluster(BCOMET, nprocs=BCOMET.procs_per_node,
                      memory_limit=None, trace=trace)
    cluster.pfs.store(path, data)
    page = BCOMET.default_page_size
    config = MimirConfig(page_size=page, comm_buffer_size=page,
                         input_chunk_size=page)
    result = cluster.run(lambda env: wordcount_plan(env, path, config,
                                                    **opts))
    # Slowest rank per phase (critical path); no phase repeats on a rank.
    return {row.name: row.slowest for row in phase_rows(trace)}, \
        result.elapsed


def test_phase_breakdown(benchmark):
    results = benchmark.pedantic(
        lambda: {name: _run(opts) for name, opts in VARIANTS.items()},
        rounds=1, iterations=1)

    phases = ["map+aggregate", "convert+reduce", "partial_reduce"]
    print(f"\n== Phase breakdown: WC(Wikipedia) {DATASET}, Comet ==")
    print(f"{'variant':<14}" + "".join(f"{p:>18}" for p in phases) +
          f"{'total':>10}")
    for name, (breakdown, total) in results.items():
        cells = "".join(
            f"{breakdown.get(p, 0.0):>17.2f}s" for p in phases)
        print(f"{name:<14}{cells}{total:>9.2f}s")

    base = results["base"][0]
    pr = results["hint;pr"][0]
    cps = results["hint;pr;cps"][0]
    # Partial reduction eliminates the convert+reduce phase entirely...
    assert "convert+reduce" not in pr
    assert pr["partial_reduce"] < base["convert+reduce"] * 1.5
    # ...and compression shrinks the aggregate phase's work.
    assert cps["map+aggregate"] < base["map+aggregate"]
    # Hints shave the byte-proportional stages.
    hint = results["hint"][0]
    assert hint["map+aggregate"] <= base["map+aggregate"]
