"""Straggler-mitigation benchmark: speculation bounds the damage.

The elastic layer's headline claim, measured in virtual time over
seeded straggler schedules (one straggling rank per seed, slowdown
factor drawn from [4, 8]):

1. **Without speculation** the job's makespan tracks the straggler
   factor - a 7x-slow rank makes the whole gang ~7x slower.  The
   damage is unbounded.
2. **With speculation** (task-pool map, per-task detection, backups
   on healthy ranks, first-result-wins) the makespan stays within
   ``BOUND`` (1.5x) of the fault-free baseline, with output
   bit-identical to it.

A second sweep measures chaos *recovery* time: seeded mixed-fault
schedules (deaths, transient I/O, torn writes, stragglers, mid-run
membership leave/join) over the checkpointed elastic WordCount, where
the elastic driver shrinks the gang on departures and re-balances the
checkpoint instead of restarting at full size.

Results append to ``BENCH_elastic.json`` at the repo root - the
benchmark-trajectory file the roadmap calls for - so the mitigation
curve is a tracked regression, not a one-off claim.

Runs under pytest (``pytest benchmarks/bench_straggler_mitigation.py``)
or standalone (``python benchmarks/bench_straggler_mitigation.py
[--smoke]``).
"""

import argparse
import sys
from pathlib import Path

from figutils import append_trajectory
from repro.ft.chaos import (
    ELASTIC_TAGS,
    global_counts,
    make_elastic_cluster,
    straggler_plan,
    wordcount_job,
)
from repro.ft.elastic import (
    BACKUP_OVERHEAD,
    STRAGGLER_THRESHOLD,
    ElasticPolicy,
    run_elastic,
)
from repro.ft.injection import ChaosPlan

NPROCS = 4
NSEEDS = 10
CHAOS_SEEDS = 6
#: Acceptance bound: speculation must keep the makespan within this
#: multiple of the fault-free baseline for every seeded schedule.
BOUND = 1.5
FACTOR_RANGE = (4.0, 8.0)

#: Finer task granularity than the policy default: 12 tasks per rank
#: detect a straggler after ~1/6 of its share and divide its work
#: evenly over 3 healthy backups.
SPEC_POLICY = ElasticPolicy(evict_stragglers=False, splits_per_rank=12)
NOSPEC_POLICY = ElasticPolicy(speculate=False, evict_stragglers=False)

#: The checkpointed elastic WordCount, and the straggler sweep's flavour
#: without the checkpoint (pure-straggler schedules never restart).
ELASTIC_JOB = wordcount_job(elastic=True)
SWEEP_JOB = wordcount_job(elastic=True, checkpoint=False)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_elastic.json"


def armed(plan: ChaosPlan, nprocs: int):
    """:func:`make_elastic_cluster` carrying ``plan`` as its fault plan."""
    cluster = make_elastic_cluster(nprocs)
    cluster.chaos = plan
    return cluster


# --------------------------------------------------------- straggler sweep

def run_straggler_sweep(nseeds: int = NSEEDS, *, nprocs: int = NPROCS,
                        factor_range=FACTOR_RANGE, verbose: bool = False):
    """Spec vs. no-spec over ``nseeds`` seeded straggler schedules."""
    baseline = run_elastic(make_elastic_cluster(nprocs), SWEEP_JOB,
                           job_id="straggler-baseline")
    expected = global_counts(baseline.result.returns)

    rows = []
    for seed in range(nseeds):
        plan = straggler_plan(seed, nprocs, factor_range=factor_range)
        (rank, factor), = plan.stragglers.items()
        spec = run_elastic(armed(plan, nprocs), SWEEP_JOB,
                           policy=SPEC_POLICY, job_id="spec")
        nospec = run_elastic(
            armed(straggler_plan(seed, nprocs, factor_range=factor_range),
                  nprocs),
            SWEEP_JOB, policy=NOSPEC_POLICY, job_id="nospec")
        report = spec.speculation[0] if spec.speculation else None
        row = {
            "seed": seed,
            "straggler_rank": rank,
            "factor": factor,
            "spec_elapsed": spec.total_elapsed,
            "nospec_elapsed": nospec.total_elapsed,
            "spec_ratio": spec.total_elapsed / baseline.total_elapsed,
            "nospec_ratio": nospec.total_elapsed / baseline.total_elapsed,
            "identical": (
                global_counts(spec.result.returns) == expected
                and global_counts(nospec.result.returns) == expected),
            "flagged": list(report.flagged) if report else [],
            "backups_launched": report.launched if report else 0,
            "backups_won": report.won if report else 0,
            "attempts_discarded": report.discarded if report else 0,
        }
        rows.append(row)
        if verbose:
            print(f"  seed {seed:>3}: rank {rank} x{factor:<5g} "
                  f"spec {row['spec_ratio']:.3f}x  "
                  f"nospec {row['nospec_ratio']:.3f}x  "
                  f"won {row['backups_won']}/{row['backups_launched']} "
                  f"{'ok' if row['identical'] else 'OUTPUT DIVERGED'}")
    return baseline.total_elapsed, rows


def check_sweep(rows, *, bound: float = BOUND) -> None:
    assert rows, "empty sweep"
    for row in rows:
        assert row["identical"], \
            f"seed {row['seed']}: output diverged from fault-free baseline"
        assert row["factor"] >= FACTOR_RANGE[0], row
        assert row["spec_ratio"] <= bound, (
            f"seed {row['seed']}: speculation left makespan at "
            f"{row['spec_ratio']:.3f}x baseline (> {bound}x bound, "
            f"straggler factor {row['factor']}x)")
        assert row["nospec_ratio"] > row["spec_ratio"], (
            f"seed {row['seed']}: speculation "
            f"({row['spec_ratio']:.3f}x) did not beat no-speculation "
            f"({row['nospec_ratio']:.3f}x)")
        # Unmitigated damage tracks the injected factor (within the
        # fixed-cost fraction of the job): the contrast speculation is
        # bounding against.
        assert row["nospec_ratio"] >= 0.75 * row["factor"], row


# ----------------------------------------------------- chaos recovery sweep

def run_chaos_recovery(nseeds: int = CHAOS_SEEDS, *, nprocs: int = NPROCS,
                       verbose: bool = False):
    """Mixed-fault recovery time under the elastic membership driver."""
    baseline = run_elastic(make_elastic_cluster(nprocs), ELASTIC_JOB,
                           job_id="chaos-baseline")
    expected = global_counts(baseline.result.returns)

    rows = []
    for seed in range(nseeds):
        plan = ChaosPlan.random(seed, nprocs, tags=ELASTIC_TAGS,
                                membership=True)
        res = run_elastic(armed(plan, nprocs), ELASTIC_JOB,
                          job_id="chaos-elastic", max_restarts=12)
        row = {
            "seed": seed,
            "elapsed": res.total_elapsed,
            "recovery_ratio": res.total_elapsed / baseline.total_elapsed,
            "attempts": res.attempts,
            "membership_changes": res.membership_changes,
            "final_nprocs": res.final_nprocs,
            "failure_kinds": res.log_counts(),
            "identical": global_counts(res.result.returns) == expected,
        }
        rows.append(row)
        if verbose:
            print(f"  seed {seed:>3}: attempts={row['attempts']} "
                  f"members={row['membership_changes']} "
                  f"final={row['final_nprocs']}p "
                  f"recovery {row['recovery_ratio']:.2f}x "
                  f"{'ok' if row['identical'] else 'OUTPUT DIVERGED'}")
    return baseline.total_elapsed, rows


def check_chaos(rows) -> None:
    assert rows, "empty chaos sweep"
    for row in rows:
        assert row["identical"], \
            f"seed {row['seed']}: chaos run diverged from baseline"
    assert any(row["membership_changes"] for row in rows), \
        "no schedule exercised a membership change"


# ------------------------------------------------------------- trajectory

def make_entry(nseeds: int, chaos_seeds: int, *, smoke: bool) -> dict:
    base_elapsed, rows = run_straggler_sweep(nseeds, verbose=True)
    check_sweep(rows)
    chaos_base, chaos_rows = run_chaos_recovery(chaos_seeds, verbose=True)
    check_chaos(chaos_rows)
    spec_ratios = [r["spec_ratio"] for r in rows]
    nospec_ratios = [r["nospec_ratio"] for r in rows]
    return {
        "smoke": smoke,
        "config": {
            "nprocs": NPROCS,
            "nseeds": nseeds,
            "chaos_seeds": chaos_seeds,
            "factor_range": list(FACTOR_RANGE),
            "threshold": STRAGGLER_THRESHOLD,
            "splits_per_rank": SPEC_POLICY.splits_per_rank,
            "backup_overhead": BACKUP_OVERHEAD,
        },
        "baseline_elapsed": base_elapsed,
        "sweep": rows,
        "summary": {
            "worst_spec_ratio": max(spec_ratios),
            "mean_spec_ratio": sum(spec_ratios) / len(spec_ratios),
            "worst_nospec_ratio": max(nospec_ratios),
            "mean_nospec_ratio": sum(nospec_ratios) / len(nospec_ratios),
            "all_identical": all(r["identical"] for r in rows),
        },
        "chaos_baseline_elapsed": chaos_base,
        "chaos_recovery": chaos_rows,
    }


# ------------------------------------------------------------------ pytest

def test_straggler_mitigation_bound(benchmark):
    base, rows = benchmark.pedantic(
        run_straggler_sweep, kwargs={"nseeds": 3}, rounds=1, iterations=1)
    check_sweep(rows)
    print(f"\n== Straggler mitigation: {NPROCS} ranks, {len(rows)} seeds ==")
    for row in rows:
        print(f"  seed {row['seed']}: spec {row['spec_ratio']:.3f}x vs "
              f"nospec {row['nospec_ratio']:.3f}x (factor {row['factor']}x)")


def test_chaos_recovery_elastic(benchmark):
    base, rows = benchmark.pedantic(
        run_chaos_recovery, kwargs={"nseeds": 3}, rounds=1, iterations=1)
    check_chaos(rows)


# ------------------------------------------------------------------ driver

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep for CI")
    parser.add_argument("--seeds", type=int, default=None,
                        help=f"straggler schedules (default {NSEEDS})")
    parser.add_argument("--no-write", action="store_true",
                        help="skip updating BENCH_elastic.json")
    args = parser.parse_args(argv)
    nseeds = args.seeds if args.seeds is not None else \
        (4 if args.smoke else NSEEDS)
    chaos_seeds = 3 if args.smoke else CHAOS_SEEDS

    print(f"straggler mitigation: {nseeds} schedules x {NPROCS} ranks "
          f"(factors {FACTOR_RANGE[0]:g}-{FACTOR_RANGE[1]:g}x, "
          f"bound {BOUND}x)")
    entry = make_entry(nseeds, chaos_seeds, smoke=args.smoke)
    summary = entry["summary"]
    print(f"worst spec ratio   : {summary['worst_spec_ratio']:.3f}x "
          f"(bound {BOUND}x)")
    print(f"worst nospec ratio : {summary['worst_nospec_ratio']:.3f}x")
    print("all outputs bit-identical to fault-free baseline")
    if not args.no_write:
        append_trajectory(BENCH_PATH, entry,
                          benchmark="elastic-straggler-mitigation",
                          bound=BOUND)
        print(f"trajectory appended to {BENCH_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
