"""Restart-on-failure driver with failure classification.

``run_with_recovery`` runs a job on a cluster; when a rank dies, the
whole allocation is torn down (as an MPI launcher would) and the job
is resubmitted against the same PFS - so checkpoints written by
completed phases survive and the restarted job skips them.  Total
virtual time accumulates across attempts, making the cost of a failure
(and the value of checkpointing) directly measurable.

Failures are *classified* (transient I/O, rank death, torn write, OOM,
unknown) and each class has its own restart cap: a flaky file system
earns more retries than an out-of-memory condition that will simply
recur, and an unrecognised exception is a bug that must propagate, not
be retried into oblivion.  Every failure, absorbed retry, and detected
bad checkpoint lands in :attr:`FTResult.failure_log`.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.cluster import Cluster, ClusterResult, RankEnv
from repro.ft.checkpoint import CheckpointManager
from repro.ft.injection import SimulatedRankFailure, TornWriteFailure
from repro.memory.tracker import MemoryLimitExceeded
from repro.mpi.errors import RankFailedError
from repro.storage.errors import RetriesExhaustedError, TransientIOError

#: Job signature: ``fn(env, ckpt) -> value``.
FTJob = Callable[[RankEnv, CheckpointManager], Any]

#: Runs stamped on each store (weakly keyed by the store), for the
#: default nonce.  Never reset while the store lives, so a stale
#: checkpoint from an earlier run on it can never satisfy a new nonce;
#: runs on other stores in the process do not move the count (the
#: nonce's bytes are checkpoint bytes, so they would move the clock).
_RUNS: "weakref.WeakKeyDictionary[Any, itertools.count]" = \
    weakref.WeakKeyDictionary()


def default_nonce(cluster: Cluster, stem: str) -> str:
    """``{stem}/run{n}`` for the ``n``-th run on ``cluster``'s store."""
    runs = _RUNS.setdefault(cluster.pfs, itertools.count(1))
    return f"{stem}/run{next(runs)}"


@dataclass
class FailureRecord:
    """One event in a fault-tolerant run's history.

    ``kind`` is one of the restart classes (``rank-death``,
    ``torn-write``, ``transient-io``, ``oom``, ``unknown``) for
    attempt-ending failures, or an absorbed event: ``retry`` (a
    transient error the backoff wrapper survived), ``ckpt-invalid`` /
    ``ckpt-stale`` (a bad checkpoint detected and recomputed).
    ``attempt`` is 0 for absorbed events recorded inside a rank.
    """

    attempt: int
    rank: int | None
    kind: str
    message: str
    lost_elapsed: float = 0.0


def classify_failure(exc: BaseException) -> str:
    """Map a rank's fatal exception to a restart class.

    An exception may carry its own class via a ``failure_class``
    attribute - how membership departures (``membership-leave``) and
    straggler evictions (``straggler-evict``) distinguish themselves
    from crashes without this module importing the elastic layer.
    """
    own = getattr(exc, "failure_class", None)
    if own is not None:
        return own
    if isinstance(exc, TornWriteFailure):
        return "torn-write"
    if isinstance(exc, SimulatedRankFailure):
        return "rank-death"
    if isinstance(exc, (TransientIOError, RetriesExhaustedError)):
        return "transient-io"
    if isinstance(exc, MemoryLimitExceeded):
        return "oom"
    return "unknown"


def restart_caps_for(max_restarts: int) -> dict[str, int]:
    """Per-class restart budgets.

    Injected faults (death, torn writes) and flaky I/O are worth the
    full budget; OOM gets one retry (a restart that restores smaller
    checkpointed state can fit where the original run did not); an
    unknown exception is a real bug and is never retried.
    """
    return {
        "rank-death": max_restarts,
        "torn-write": max_restarts,
        "transient-io": max_restarts,
        # Membership departures and straggler evictions are benign
        # under the elastic driver (which converts them into gang
        # shrinks before they reach the caps); under the plain restart
        # driver they behave like recoverable rank deaths.
        "membership-leave": max_restarts,
        "straggler-evict": max_restarts,
        "oom": min(1, max_restarts),
        "unknown": 0,
    }


@dataclass
class FTResult:
    """Outcome of a possibly-restarted job."""

    result: ClusterResult
    attempts: int
    total_elapsed: float
    failure_log: list[FailureRecord] = field(default_factory=list)

    @property
    def restarts(self) -> int:
        return self.attempts - 1

    def log_counts(self) -> dict[str, int]:
        """Failure-log tally by kind."""
        tally: dict[str, int] = {}
        for record in self.failure_log:
            tally[record.kind] = tally.get(record.kind, 0) + 1
        return tally


def restart_loop(cluster: Cluster, job: FTJob, *, job_id: str, nonce: str,
                 max_restarts: int, failure_log: list[FailureRecord],
                 membership_log: Sequence[Any] = (),
                 sweep: Callable[[int, float], None] = lambda *_: None,
                 promote: Callable[..., bool] = lambda *_: False) -> FTResult:
    """Launch ``job(env, ckpt)`` until an attempt completes: the one
    restart loop (see the module docstring), behind
    :func:`run_with_recovery` and :func:`repro.ft.elastic.run_elastic`.

    The elastic driver's two hooks: ``sweep(attempt, last_clock)`` runs
    before each launch, and ``promote(attempt, kind, failure,
    last_clock)`` may turn a logged failure into a membership change,
    which costs no restart budget.  Every entry the hooks add to
    ``membership_log`` extends the attempt cap by one.
    """
    caps = restart_caps_for(max_restarts)
    total_elapsed = 0.0
    restarts_by_class: dict[str, int] = {}
    last_clock = 0.0

    def rank_fn(env: RankEnv) -> Any:
        return job(env, CheckpointManager(env, job_id, nonce=nonce,
                                          failure_log=failure_log))

    for attempt in itertools.count(1):
        sweep(attempt, last_clock)
        try:
            result = cluster.run(rank_fn)
        except RankFailedError as failure:
            kind = classify_failure(failure.original)
            # Virtual time burnt by the failed attempt still counts.
            lost = max(failure.clocks, default=0.0)
            last_clock = max(last_clock, lost)
            total_elapsed += lost
            failure_log.append(FailureRecord(
                attempt, failure.rank, kind, str(failure.original), lost))
            if promote(attempt, kind, failure, last_clock):
                continue
            restarts_by_class[kind] = restarts_by_class.get(kind, 0) + 1
            if (restarts_by_class[kind] > caps.get(kind, 0)
                    or attempt > max_restarts + len(membership_log)):
                raise
            cluster.metrics.shard(-1).inc("ft.restarts")
            continue
        return FTResult(result, attempt, total_elapsed + result.elapsed,
                        failure_log)
    raise AssertionError("unreachable")


def run_with_recovery(cluster: Cluster, job: FTJob, *,
                      job_id: str = "job",
                      max_restarts: int = 8,
                      nonce: str | None = None) -> FTResult:
    """Run ``job`` to completion, restarting on classified failures.

    Faults come from the cluster's one plan, ``cluster.chaos``: it
    fires at the job's fault points (``env.probe``), in the storage
    hooks and on the straggler clocks.  ``nonce`` defaults to a fresh
    stamp from the cluster configuration and the runs made on its
    store (:func:`default_nonce`), so checkpoints left by a previous
    run that happens to reuse ``job_id`` are detected as stale and
    recomputed instead of silently restored; pass an explicit nonce to
    opt into cross-run checkpoint reuse.
    """
    if nonce is None:
        nonce = default_nonce(cluster, f"{job_id}/{cluster.signature()}")
    return restart_loop(cluster, job, job_id=job_id, nonce=nonce,
                        max_restarts=max_restarts, failure_log=[])
