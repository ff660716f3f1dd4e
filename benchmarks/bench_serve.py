"""Serving-layer benchmark: throughput and queue latency under load.

Drives the :class:`~repro.serve.daemon.ServeDaemon` in-process (no
HTTP on the hot path - the network is not what this measures) with a
seeded multi-tenant workload: three tenants submit a randomized mix of
wordcount / pagerank / bfs jobs against the gang-admission scheduler,
and the run measures, in *virtual* time,

- **jobs per virtual second** - service throughput once the scheduler
  packs rounds under the shared memory budget;
- **queue latency p50 / p99** - submit-to-admission wait, the number a
  tenant actually feels; fair-share aging keeps the tail bounded.

A second pass kills the daemon after every round and replays the
journal into a successor, measuring **replay overhead** (journal
records replayed per completed job) and asserting outputs stay
bit-identical to the uninterrupted pass - crash recovery priced, not
just claimed.

Results append to ``BENCH_serve.json`` at the repo root as a tracked
trajectory.  Runs under pytest (``pytest benchmarks/bench_serve.py``)
or standalone (``python benchmarks/bench_serve.py [--smoke]``).
"""

import argparse
import random
import sys
from pathlib import Path

from figutils import append_trajectory
from repro.cluster import Cluster
from repro.mpi import COMET
from repro.sched.demo import stage_inputs
from repro.serve.daemon import ServeDaemon
from repro.serve.tenants import TenantManager, TenantQuota

NPROCS = 4
NJOBS = 24
TENANTS = ("alice", "bob", "carol")
#: The submission mix (app, params) a seeded workload draws from; each
#: job reads its app's demo input.
MIX = [
    ("wordcount", {}),
    ("wordcount", {"partial": False}),
    ("pagerank", {"iterations": 2}),
    ("bfs", {}),
]

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def make_daemon():
    """A recovered daemon over the staged demo inputs, and those inputs."""
    cluster = Cluster(COMET, nprocs=NPROCS)
    inputs = stage_inputs(cluster, seed=0)
    daemon = ServeDaemon(cluster, tenants=TenantManager(
        {t: TenantQuota(max_queued=NJOBS, max_concurrent=2)
         for t in TENANTS}))
    daemon.recover()
    return daemon, inputs


def workload(seed: int, njobs: int):
    rng = random.Random(seed)
    return [(TENANTS[i % len(TENANTS)], *rng.choice(MIX))
            for i in range(njobs)]


def drain(daemon, limit=1000):
    for _ in range(limit):
        busy = daemon.scheduler.queue_depth or any(
            j.state == "running" for j in daemon.jobs.values())
        if not busy:
            return
        daemon.tick()
    raise AssertionError("daemon did not drain")


def percentile(values, q):
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def run_service_load(seed: int = 0, njobs: int = NJOBS, *,
                     crash_every_round: bool = False):
    """One seeded load; returns (stats, {job_id: output bytes})."""
    daemon, inputs = make_daemon()
    for tenant, app, params in workload(seed, njobs):
        daemon.submit(tenant, app, inputs[app], params=dict(params))
    if crash_every_round:
        generations = 1
        while daemon.scheduler.queue_depth or any(
                j.state == "running" for j in daemon.jobs.values()):
            daemon.tick()
            daemon.kill()
            successor = ServeDaemon(daemon.cluster, tenants=daemon.tenants)
            successor.recover()
            daemon = successor
            generations += 1
    else:
        generations = 1
        drain(daemon)

    jobs = [j for j in daemon.jobs.values() if j.state == "done"]
    assert len(jobs) == njobs, \
        f"{njobs - len(jobs)} job(s) not done after drain"
    latencies = [j.queue_latency for j in jobs
                 if j.queue_latency is not None]
    elapsed = daemon.scheduler.clock
    totals = daemon.cluster.metrics.totals()
    stats = {
        "seed": seed,
        "njobs": njobs,
        "virtual_elapsed": elapsed,
        "jobs_per_vsecond": njobs / elapsed if elapsed else None,
        "queue_latency_p50": percentile(latencies, 0.50),
        "queue_latency_p99": percentile(latencies, 0.99),
        "rounds": daemon.scheduler.rounds_run,
        "journal_records": totals.get("serve.journal.records", 0),
        "journal_replays": totals.get("serve.journal.replays", 0),
        "generations": generations,
    }
    outputs = {j.job_id: daemon.output(j.job_id) for j in jobs}
    return stats, outputs


def run_sweep(nseeds: int, njobs: int = NJOBS, verbose: bool = False):
    rows = []
    for seed in range(nseeds):
        smooth, outputs = run_service_load(seed, njobs)
        crashed, crash_outputs = run_service_load(
            seed, njobs, crash_every_round=True)
        assert crash_outputs == outputs, \
            f"seed {seed}: crash-replay outputs diverged"
        row = dict(smooth,
                   identical=True,
                   crash_generations=crashed["generations"],
                   crash_replays=crashed["journal_replays"],
                   replay_records_per_job=(
                       crashed["journal_replays"] / njobs))
        rows.append(row)
        if verbose:
            print(f"  seed {seed}: {row['jobs_per_vsecond']:.1f} jobs/vs, "
                  f"p50 {row['queue_latency_p50']:.3f}s, "
                  f"p99 {row['queue_latency_p99']:.3f}s, "
                  f"{row['crash_generations']} crash generations ok")
    return rows


def check_rows(rows):
    assert rows, "empty sweep"
    for row in rows:
        assert row["identical"], \
            f"seed {row['seed']}: outputs not bit-identical under crashes"
        assert row["jobs_per_vsecond"] > 0
        assert row["queue_latency_p99"] >= row["queue_latency_p50"] >= 0


# ------------------------------------------------------------- trajectory

def make_entry(nseeds: int, njobs: int, *, smoke: bool) -> dict:
    rows = run_sweep(nseeds, njobs, verbose=True)
    check_rows(rows)
    throughput = [r["jobs_per_vsecond"] for r in rows]
    p99s = [r["queue_latency_p99"] for r in rows]
    return {
        "smoke": smoke,
        "config": {"nprocs": NPROCS, "nseeds": nseeds, "njobs": njobs,
                   "tenants": list(TENANTS)},
        "sweep": rows,
        "summary": {
            "mean_jobs_per_vsecond": sum(throughput) / len(throughput),
            "worst_queue_latency_p99": max(p99s),
            "all_identical_under_crashes": all(r["identical"]
                                               for r in rows),
        },
    }


# ------------------------------------------------------------------ pytest

def test_serve_throughput_and_crash_identity(benchmark):
    rows = benchmark.pedantic(
        run_sweep, kwargs={"nseeds": 1, "njobs": 8}, rounds=1,
        iterations=1)
    check_rows(rows)
    row = rows[0]
    print(f"\n== serve: {row['njobs']} jobs, {NPROCS} ranks ==")
    print(f"  throughput : {row['jobs_per_vsecond']:.1f} jobs/vsecond")
    print(f"  queue p50  : {row['queue_latency_p50']:.3f}s  "
          f"p99 {row['queue_latency_p99']:.3f}s")
    print(f"  crash pass : {row['crash_generations']} generations, "
          f"outputs bit-identical")


# ------------------------------------------------------------------ driver

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep for CI")
    parser.add_argument("--seeds", type=int, default=None)
    parser.add_argument("--no-write", action="store_true",
                        help="skip updating BENCH_serve.json")
    args = parser.parse_args(argv)
    nseeds = args.seeds if args.seeds is not None else \
        (1 if args.smoke else 3)
    njobs = 8 if args.smoke else NJOBS

    print(f"serve benchmark: {nseeds} seed(s) x {njobs} jobs x "
          f"{len(TENANTS)} tenants on {NPROCS} ranks")
    entry = make_entry(nseeds, njobs, smoke=args.smoke)
    summary = entry["summary"]
    print(f"mean throughput     : "
          f"{summary['mean_jobs_per_vsecond']:.1f} jobs/vsecond")
    print(f"worst queue p99     : "
          f"{summary['worst_queue_latency_p99']:.3f} vseconds")
    print("all outputs bit-identical across crash generations")
    if not args.no_write:
        append_trajectory(BENCH_PATH, entry, benchmark="serve-throughput-latency")
        print(f"trajectory appended to {BENCH_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
