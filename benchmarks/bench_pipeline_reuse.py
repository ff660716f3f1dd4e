"""Pipeline benchmark: cached intermediate containers pay for themselves.

Two claims from the scheduler subsystem, measured in virtual time:

1. **Container reuse across jobs** - two PageRank jobs over one graph
   whose runners share a stage cache: the second job hits the first
   job's ``cache()``-annotated adjacency instead of re-shuffling the
   edge list, so the pair must be strictly faster than two runs without
   a cache (with bit-identical scores).  Within one job there is
   nothing to win: a bare runner already keeps a stage its loop
   re-reads (``PlanRunner.iterate``).

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
from repro.memory import MemoryTracker
from repro.memory.limits import format_size
from repro.mpi.platforms import PLATFORMS
from repro.obs import Trace, render_job_lanes
from repro.sched import PlanRunner, Scheduler, StageCache
from repro.sched.demo import make_job, stage_inputs

NPROCS = 4
GRAPH_SCALE = 7
ITERATIONS = 5


# ------------------------------------------------------------- reuse sweep

def run_pagerank_twice(*, reuse: bool, scale: int = GRAPH_SCALE,
                       iterations: int = ITERATIONS):
    """Two PageRank jobs, one launch each, on one fresh cluster; returns
    both ClusterResults."""
    cluster = Cluster(PLATFORMS["comet"], NPROCS, memory_limit=None)
    cluster.pfs.store("bench/graph.bin", edges_to_bytes(
        kronecker_edges(scale, edgefactor=8, seed=0)))
    # One tracker set for both launches: a cached container stays
    # charged between them.
    trackers = [MemoryTracker(None) for _ in range(NPROCS)]
    caches = [StageCache(rank) for rank in range(NPROCS)]

    def job(env):
        from repro.apps.pagerank import pagerank_plan

        # The only difference between the two pairs: a shared cache.
        cache = caches[env.comm.rank] if reuse else None
        return pagerank_plan(
            env, "bench/graph.bin", hint=True, iterations=iterations,
            runner=partial(PlanRunner, env, cache=cache))

    return [cluster.run(job, trackers=trackers) for _job in range(2)]


def reuse_sweep(*, scale: int = GRAPH_SCALE, iterations: int = ITERATIONS):
    cached = run_pagerank_twice(reuse=True, scale=scale,
                                iterations=iterations)
    rebuilt = run_pagerank_twice(reuse=False, scale=scale,
                                 iterations=iterations)
    return cached, rebuilt


def total(pair) -> float:
    return sum(res.elapsed for res in pair)


def check_reuse(cached, rebuilt) -> None:
    scores = [[r.ranks for r in res.returns] for res in (*cached, *rebuilt)]
    assert all(s == scores[0] for s in scores), \
        "a cached adjacency changed the PageRank scores"
    assert cached[1].elapsed < rebuilt[1].elapsed, \
        (f"second cached job ({cached[1].elapsed:.3f}s) not faster than "
         f"a second bare run ({rebuilt[1].elapsed:.3f}s)")
    assert total(cached) < total(rebuilt), \
        (f"two cached jobs ({total(cached):.3f}s) not faster than "
         f"two bare runs ({total(rebuilt):.3f}s)")


def print_reuse(cached, rebuilt, iterations: int) -> None:
    print(f"\n== PageRank adjacency reuse across two jobs: {NPROCS} ranks, "
          f"Comet, {iterations} iterations ==")
    print(f"{'variant':>12} {'job 1':>9} {'job 2':>9} {'total':>9} "
          f"{'peak/rank':>10}")
    for name, pair in (("shared cache", cached), ("bare", rebuilt)):
        print(f"{name:>12} {pair[0].elapsed:>8.3f}s {pair[1].elapsed:>8.3f}s "
              f"{total(pair):>8.3f}s "
              f"{format_size(pair[1].max_rank_peak_bytes):>10}")
    print(f"speedup: {total(rebuilt) / total(cached):.2f}x")


def test_pagerank_container_reuse(benchmark):
    cached, rebuilt = benchmark.pedantic(reuse_sweep, rounds=1, iterations=1)
    check_reuse(cached, rebuilt)
    print_reuse(cached, rebuilt, ITERATIONS)


# ------------------------------------------------------- concurrent jobs

def run_schedule(*, memory_limit: str = "1M", iterations: int = ITERATIONS):
    """WordCount + PageRank through one admission round; zero OOMs."""
    trace = Trace()
    cluster = Cluster(PLATFORMS["comet"], NPROCS, memory_limit=memory_limit,
                      trace=trace)
    paths = stage_inputs(cluster)
    scheduler = Scheduler(cluster)
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
    assert all(p["unique"] > 0 for p in wc.returns), wc.returns
    assert all(p["iterations"] >= 1 for p in pr.returns)


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
