"""Chaos benchmark: recovery-time overhead vs. injected fault rate.

The robustness analog of the figure benchmarks.  Seeded chaos
schedules of increasing intensity (transient PFS errors, torn
checkpoint writes, bit corruption, rank deaths) run over a
checkpointed WordCount; every run must converge to output
bit-identical to the fault-free baseline, and the table reports what
that resilience costs in attempts and virtual time as the fault rate
climbs.
"""

import pickle
import statistics

from repro.ft import ChaosPlan, run_with_recovery
from repro.ft.chaos import (
    make_wordcount_cluster,
    verify_accounting,
    wordcount_job,
)

NPROCS = 8
JOB = wordcount_job()
RATES = (0.0, 0.05, 0.15, 0.30)
SEEDS = range(1, 6)


def make_plan(seed: int, rate: float) -> ChaosPlan:
    return ChaosPlan(seed=seed,
                     io_error_rate=rate / 4,
                     torn_write_rate=rate,
                     corruption_rate=rate,
                     tag_death_rate=rate / 2,
                     max_faults=6)


def run_rate(rate: float, expected: bytes):
    outcomes = []
    for seed in SEEDS:
        plan = make_plan(seed, rate)
        cluster = make_wordcount_cluster(NPROCS)
        cluster.chaos = plan
        ft = run_with_recovery(cluster, JOB, job_id="chaos-bench",
                               max_restarts=12)
        assert pickle.dumps(ft.result.returns) == expected, \
            f"rate {rate} seed {seed} diverged from fault-free output"
        problems = verify_accounting(ft, plan)
        assert not problems, (rate, seed, problems)
        outcomes.append((ft, plan))
    return outcomes


def test_chaos_recovery_overhead_vs_fault_rate(benchmark):
    baseline = run_with_recovery(make_wordcount_cluster(NPROCS),
                                 JOB, job_id="chaos-baseline")
    expected = pickle.dumps(baseline.result.returns)

    def sweep():
        return {rate: run_rate(rate, expected) for rate in RATES}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\n== Chaos recovery: WordCount, 8 ranks, Comet, "
          f"{len(SEEDS)} seeds/rate ==")
    print(f"{'fault rate':>10} {'attempts':>9} {'faults':>7} "
          f"{'total time':>11} {'overhead':>9}")
    mean_total = {}
    for rate, outcomes in results.items():
        attempts = statistics.mean(ft.attempts for ft, _ in outcomes)
        faults = statistics.mean(sum(plan.counts().values())
                                 for _, plan in outcomes)
        total = statistics.mean(ft.total_elapsed for ft, _ in outcomes)
        mean_total[rate] = total
        overhead = total / baseline.total_elapsed - 1.0
        print(f"{rate:>10.2f} {attempts:>9.1f} {faults:>7.1f} "
              f"{total:>10.3f}s {overhead:>8.1%}")

    # Fault-free schedules finish first try at (near-)baseline cost;
    # exact equality is off by the nonce length embedded in every
    # checkpoint frame, which differs per job id.
    clean = results[0.0]
    assert all(ft.attempts == 1 for ft, _ in clean)
    assert abs(mean_total[0.0] / baseline.total_elapsed - 1.0) < 0.01

    # Chaos is not free: the heaviest fault rate costs measurably more
    # virtual time than the clean run (restarts + retry backoff).
    assert mean_total[RATES[-1]] > 1.05 * mean_total[0.0]
    # And the heaviest rate actually injected faults everywhere.
    assert all(plan.counts() for _, plan in results[RATES[-1]])
