"""Pipeline benchmark: cached intermediate containers pay for themselves.

Two claims from the scheduler subsystem, measured in virtual time:

1. **Container reuse** - iterative PageRank with its adjacency stage
   ``cache()``-annotated reads the materialized container every
   iteration instead of re-shuffling the edge list, and must be
   strictly faster than the same plan re-materializing per iteration
   (with bit-identical scores).

2. **Concurrent admission** - WordCount and PageRank submitted
   together with declared footprints gang-schedule into one round on a
   memory-limited cluster and finish with zero OOMs.

Runs under pytest (``pytest benchmarks/bench_pipeline_reuse.py``) or
standalone (``python benchmarks/bench_pipeline_reuse.py [--smoke]``).
"""

import argparse
import sys
from functools import partial

from repro.cluster import Cluster
from repro.datasets.graph500 import edges_to_bytes, kronecker_edges
from repro.memory.limits import format_size
from repro.mpi.platforms import PLATFORMS
from repro.obs import Trace, render_job_lanes
from repro.sched import PlanRunner, Scheduler, StageCache
from repro.sched.demo import make_job, stage_inputs

NPROCS = 4
GRAPH_SCALE = 7
ITERATIONS = 5


# ------------------------------------------------------------- reuse sweep

def run_pagerank(*, reuse: bool, scale: int = GRAPH_SCALE,
                 iterations: int = ITERATIONS):
    """One PageRank run on a fresh cluster; returns the ClusterResult."""
    cluster = Cluster(PLATFORMS["comet"], NPROCS, memory_limit=None)
    cluster.pfs.store("bench/graph.bin", edges_to_bytes(
        kronecker_edges(scale, edgefactor=8, seed=0)))

    def job(env):
        from repro.apps.pagerank import pagerank_plan

        # The only difference between the two runs: a stage cache.
        cache = StageCache(env.comm.rank) if reuse else None
        return pagerank_plan(
            env, "bench/graph.bin", hint=True, iterations=iterations,
            runner=partial(PlanRunner, env, cache=cache))

    return cluster.run(job)


def reuse_sweep(*, scale: int = GRAPH_SCALE, iterations: int = ITERATIONS):
    cached = run_pagerank(reuse=True, scale=scale, iterations=iterations)
    rebuilt = run_pagerank(reuse=False, scale=scale, iterations=iterations)
    return cached, rebuilt


def check_reuse(cached, rebuilt) -> None:
    assert [r.ranks for r in cached.returns] == \
        [r.ranks for r in rebuilt.returns], \
        "cached adjacency changed the PageRank scores"
    assert [r.iterations for r in cached.returns] == \
        [r.iterations for r in rebuilt.returns]
    assert cached.elapsed < rebuilt.elapsed, \
        (f"cached run ({cached.elapsed:.3f}s) not faster than "
         f"re-materialization ({rebuilt.elapsed:.3f}s)")


def print_reuse(cached, rebuilt, iterations: int) -> None:
    print(f"\n== PageRank adjacency reuse: {NPROCS} ranks, Comet, "
          f"{iterations} iterations ==")
    print(f"{'variant':>16} {'time':>9} {'peak/rank':>10}")
    for name, res in (("cached", cached), ("re-materialized", rebuilt)):
        print(f"{name:>16} {res.elapsed:>8.3f}s "
              f"{format_size(res.max_rank_peak_bytes):>10}")
    print(f"speedup: {rebuilt.elapsed / cached.elapsed:.2f}x")


def test_pagerank_container_reuse(benchmark):
    cached, rebuilt = benchmark.pedantic(reuse_sweep, rounds=1, iterations=1)
    check_reuse(cached, rebuilt)
    print_reuse(cached, rebuilt, ITERATIONS)


# ------------------------------------------------------- concurrent jobs

def run_schedule(*, memory_limit: str = "1M", iterations: int = ITERATIONS):
    """WordCount + PageRank through one admission round; zero OOMs."""
    cluster = Cluster(PLATFORMS["comet"], NPROCS, memory_limit=memory_limit)
    paths = stage_inputs(cluster)
    trace = Trace()
    scheduler = Scheduler(cluster, trace=trace)
    scheduler.submit(make_job("wordcount", paths, priority=2,
                              footprint="256K"))
    scheduler.submit(make_job("pagerank", paths, priority=1,
                              footprint="288K", iterations=iterations))
    return scheduler.run(), trace


def check_schedule(report) -> None:
    assert report.ooms == 0, f"schedule OOMed {report.ooms} time(s)"
    wc = report.outcome("wordcount")
    pr = report.outcome("pagerank")
    assert wc.completed and pr.completed
    # Declared footprints fit the 1M budget together: one gang round.
    assert wc.round == pr.round == 1, report.render_log()
    # WordCount owns words on every rank; PageRank actually iterated.
    assert all(unique > 0 for unique in wc.returns), wc.returns
    assert all(iters >= 1 for iters in pr.returns)


def test_concurrent_wordcount_pagerank(benchmark):
    report, trace = benchmark.pedantic(run_schedule, rounds=1, iterations=1)
    check_schedule(report)
    print("\n== Concurrent WordCount + PageRank: "
          f"{NPROCS} ranks, Comet, 1M/rank ==")
    print(report.render_log())
    print(render_job_lanes(trace))


# ---------------------------------------------------------------- driver

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI")
    args = parser.parse_args(argv)
    scale = 6 if args.smoke else GRAPH_SCALE
    iterations = 3 if args.smoke else ITERATIONS
    cached, rebuilt = reuse_sweep(scale=scale, iterations=iterations)
    check_reuse(cached, rebuilt)
    print_reuse(cached, rebuilt, iterations)
    report, trace = run_schedule(iterations=iterations)
    check_schedule(report)
    print("\n== Concurrent WordCount + PageRank ==")
    print(report.render_log())
    print(render_job_lanes(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
