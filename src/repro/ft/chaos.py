"""Deterministic chaos harness: seeded fault storms must not change answers.

The robustness analog of the figure benchmarks: sweep N seeded random
fault schedules (mixing rank death, transient I/O errors, torn
checkpoint writes, bit corruption, and stragglers) over a checkpointed
WordCount and assert that every run converges to output bit-identical
to a fault-free baseline, with the failure log accounting for the
injected faults.  Each schedule is fully determined by its seed, so a
failing seed reproduces exactly.

Run a quick sweep from the command line::

    PYTHONPATH=src python -m repro.ft.chaos --seeds 20

The job is :func:`~repro.apps.wordcount.wordcount_plan` under a
:class:`~repro.sched.executor.PlanRunner` carrying the run's checkpoint
manager, so its fault points are the plan's boundaries.  The elastic
flavour (swept by ``benchmarks/bench_straggler_mitigation.py``) adds the
elastic hooks: its map runs speculatively and combines locally, so
shuffle/checkpoint/reduce traffic is tiny relative to map I/O - the
regime where speculation's bound is not drowned by fixed costs.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass, field
from functools import partial

from repro.apps.wordcount import wordcount_dataset, wordcount_plan
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.ft.injection import ChaosPlan
from repro.ft.runner import FTResult, run_with_recovery
from repro.mpi import COMET
from repro.sched.executor import PlanRunner
from repro.sched.plan import Dataset
from repro.storage import BACKENDS

CFG = MimirConfig(page_size=2048, comm_buffer_size=2048,
                  input_chunk_size=512)
TEXT = b"oak elm ash fir oak elm oak yew ash oak pine fir cedar yew " * 40
INPUT_PATH = "input/chaos_words.txt"
ELASTIC_TEXT = (b"oak elm ash fir oak elm oak yew ash oak pine fir "
                b"cedar yew larch teak ") * 7200
ELASTIC_INPUT = "input/elastic_words.txt"


def _boundaries(counts: Dataset) -> tuple[str, ...]:
    """The fault points the harness plan ends in ``counts`` exposes, in
    the order a run reaches them: the map checkpoint's commit point,
    the map (after its checkpoint committed), the reduce."""
    words = counts.stage.parents[0]
    return (f"ckpt:{words.key}:precommit", words.name, counts.name)


#: Tags the harness jobs expose (plain, elastic); schedules may plant
#: deaths at these.
CHAOS_TAGS = _boundaries(wordcount_dataset(INPUT_PATH, CFG, partial=True))
ELASTIC_TAGS = _boundaries(wordcount_dataset(ELASTIC_INPUT, CFG,
                                             compress=True, partial=True))


def wordcount_job(*, elastic: bool = False, checkpoint: bool = True):
    """The harness job ``fn(env, ckpt, handle)``: :func:`wordcount_plan`
    under a :class:`PlanRunner` carrying ``ckpt``, and with
    ``elastic=True`` over the elastic input with the hooks
    :func:`~repro.ft.elastic.run_elastic` passes as ``handle``.
    ``checkpoint=False`` drops ``ckpt``: nothing is saved and no fault
    point fires (a pure straggler sweep never restarts).  Returns this
    rank's sorted ``(word, count)`` share; compare elastic runs with
    :func:`global_counts`, as a membership change re-partitions keys.
    """
    path = ELASTIC_INPUT if elastic else INPUT_PATH

    def job(env, ckpt, handle):
        runner = partial(PlanRunner, env,
                         checkpoint=ckpt if checkpoint else None,
                         elastic=handle if elastic else None)
        found = wordcount_plan(env, path, CFG, compress=elastic,
                               partial=True, collect=True, runner=runner)
        return tuple(sorted(found.counts.items()))

    return job


def global_counts(returns: list) -> tuple:
    """Gang-size-independent fingerprint of the per-rank outputs."""
    merged: dict[bytes, int] = {}
    for part in returns:
        for key, count in part or ():
            merged[key] = merged.get(key, 0) + count
    return tuple(sorted(merged.items()))


def straggler_plan(seed: int, nprocs: int, *,
                   factor_range: tuple[float, float] = (4.0, 8.0),
                   ) -> ChaosPlan:
    """A seeded one-straggler schedule (rank and factor drawn from
    ``seed``)."""
    rng = random.Random(seed)
    rank = rng.randrange(nprocs)
    factor = round(rng.uniform(*factor_range), 2)
    return ChaosPlan(seed, stragglers={rank: factor})


def make_wordcount_cluster(nprocs: int = 4, storage: str | None = None, *,
                           path: str = INPUT_PATH,
                           text: bytes = TEXT) -> Cluster:
    """A fresh cluster with the harness input staged (one per run -
    chaos mutates storage state, so runs must not share a substrate).

    ``storage`` picks the backend (see :mod:`repro.storage`); the sweep
    must converge to bit-identical output on every one of them.
    """
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None,
                      storage=storage)
    cluster.pfs.store(path, text)
    return cluster


def make_elastic_cluster(nprocs: int = 4) -> Cluster:
    """:func:`make_wordcount_cluster` with the elastic input staged."""
    return make_wordcount_cluster(nprocs, path=ELASTIC_INPUT,
                                  text=ELASTIC_TEXT)


def _canonical(returns: list) -> bytes:
    """Byte-exact fingerprint of the per-rank outputs."""
    return pickle.dumps(returns)


@dataclass
class ChaosRunRecord:
    """Outcome of one seeded schedule."""

    seed: int
    ft: FTResult
    plan: ChaosPlan
    identical: bool
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.identical and not self.problems


@dataclass
class ChaosSweepResult:
    baseline_elapsed: float
    records: list[ChaosRunRecord]

    @property
    def all_ok(self) -> bool:
        return all(record.ok for record in self.records)

    def overhead(self, record: ChaosRunRecord) -> float:
        """Recovery-time overhead of one run vs. the clean baseline."""
        return record.ft.total_elapsed / self.baseline_elapsed - 1.0


def verify_accounting(ft: FTResult, plan: ChaosPlan) -> list[str]:
    """Check the failure log against the plan's injected-fault record.

    Exact equality is impossible in general - two ranks failing in the
    same attempt surface as one launcher-level failure, and a corrupted
    checkpoint that is never re-read is never *observed* - so the
    invariants are directional: nothing in the log without an injected
    cause, and every fatal fault family that fired shows up.
    """
    problems: list[str] = []
    injected = plan.counts()
    log = ft.log_counts()
    if len(ft.failures) != ft.restarts:
        problems.append(
            f"{ft.restarts} restarts but {len(ft.failures)} failures logged")
    for kind in ("rank-death", "torn-write"):
        if log.get(kind, 0) > injected.get(kind, 0):
            problems.append(
                f"log has {log.get(kind, 0)} {kind} restarts but only "
                f"{injected.get(kind, 0)} were injected")
    transient_seen = log.get("retry", 0) + log.get("transient-io", 0)
    if transient_seen > injected.get("transient-io", 0):
        problems.append(
            f"log shows {transient_seen} transient events but only "
            f"{injected.get('transient-io', 0)} were injected")
    # A torn/corrupt file can be re-detected on every later attempt
    # until a recompute survives long enough to overwrite it, so the
    # detection count is unbounded - but a detection with no injected
    # corrupting cause at all would be a validator bug.
    detected = log.get("ckpt-invalid", 0)
    possible = injected.get("corruption", 0) + injected.get("torn-write", 0)
    if detected and not possible:
        problems.append(
            f"{detected} invalid-checkpoint detections with no "
            "corrupting fault injected")
    fatal_injected = sum(injected.get(k, 0)
                         for k in ("rank-death", "torn-write"))
    if ft.restarts > fatal_injected + injected.get("transient-io", 0):
        problems.append(
            f"{ft.restarts} restarts exceed every injected fatal cause")
    return problems


def run_chaos_sweep(nseeds: int = 20, *, nprocs: int = 4,
                    intensity: float = 1.0, max_restarts: int = 12,
                    storage: str | None = None,
                    verbose: bool = False) -> ChaosSweepResult:
    """Sweep ``nseeds`` seeded schedules; compare against a clean run."""
    job = wordcount_job()
    baseline = run_with_recovery(make_wordcount_cluster(nprocs, storage),
                                 job, job_id="chaos-baseline")
    expected = _canonical(baseline.result.returns)

    records: list[ChaosRunRecord] = []
    for seed in range(nseeds):
        plan = ChaosPlan.random(seed, nprocs, tags=CHAOS_TAGS,
                                intensity=intensity)
        ft = run_with_recovery(make_wordcount_cluster(nprocs, storage),
                               job, faults=plan,
                               job_id="chaos", max_restarts=max_restarts)
        record = ChaosRunRecord(
            seed=seed, ft=ft, plan=plan,
            identical=_canonical(ft.result.returns) == expected,
            problems=verify_accounting(ft, plan))
        records.append(record)
        if verbose:
            injected = plan.counts()
            status = "ok" if record.ok else "FAIL"
            print(f"  seed {seed:>3}: {status:<4} attempts={ft.attempts} "
                  f"elapsed={ft.total_elapsed:8.3f}s "
                  f"injected={injected or '{}'}")
            for problem in record.problems:
                print(f"           problem: {problem}")
    return ChaosSweepResult(baseline.total_elapsed, records)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="seeded chaos sweep over checkpointed WordCount")
    parser.add_argument("--seeds", type=int, default=20,
                        help="number of seeded schedules (default 20)")
    parser.add_argument("--procs", type=int, default=4)
    parser.add_argument("--intensity", type=float, default=1.0)
    parser.add_argument("--storage", choices=BACKENDS, default=None,
                        help="storage backend to sweep on "
                             "(default: REPRO_STORAGE_BACKEND or pfs)")
    args = parser.parse_args(argv)

    print(f"chaos sweep: {args.seeds} schedules x {args.procs} ranks "
          f"(intensity {args.intensity:g}, "
          f"storage {args.storage or 'default'})")
    sweep = run_chaos_sweep(args.seeds, nprocs=args.procs,
                            intensity=args.intensity,
                            storage=args.storage, verbose=True)
    faulty = [r for r in sweep.records if r.plan.counts()]
    print(f"baseline elapsed : {sweep.baseline_elapsed:.3f}s")
    print(f"schedules with faults: {len(faulty)}/{len(sweep.records)}")
    if not sweep.all_ok:
        bad = [r.seed for r in sweep.records if not r.ok]
        print(f"FAILED seeds: {bad}")
        return 1
    print("all schedules converged to bit-identical output")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
