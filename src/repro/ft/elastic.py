"""Reactive fault handling: stragglers, speculation, elastic membership.

Checkpoint/restart (:mod:`repro.ft.runner`) treats every fault as
fatal: tear the gang down, resubmit, replay from the last checkpoint.
This module adds the *reactive* layer the paper's target machines
(Mira, Comet) actually need at scale, where the common failure is not
a crash but a slow rank, and where re-running the whole gang to shed
one bad host is unaffordable.  Three mechanisms, one control loop:

- **Straggler detection** (:func:`flag_stragglers`): per-phase
  progress comparison.  Every rank's busy time for a phase is
  allgathered and compared against the median; ranks beyond
  :data:`STRAGGLER_THRESHOLD` times it are flagged (``ft.straggler.
  flagged``).
- **Speculative re-execution** (:func:`speculative_map`): the map
  phase runs as a task pool; tasks still owned by a flagged rank past
  the detection point are re-launched on the healthiest ranks.  First
  result wins, the loser is killed, and lineage-derived task keys plus
  CRC agreement make duplicates safe to discard.
- **Dynamic membership** (:func:`run_elastic` +
  :meth:`~repro.cluster.Cluster.resize`): a rank death or scheduled
  leave is *promoted* from a fatal restart to a gang shrink; joins
  grow the gang.  KV partitions checkpointed by the old gang are
  re-balanced onto the new one (:func:`~repro.ft.checkpoint.
  restore_rebalanced`, the plan runner's restore), and a partition
  lost with its rank is recomputed from lineage.

The autoscaler that drives :meth:`Cluster.resize` from queue depth and
memory residency is the scheduler's own
(:class:`repro.sched.scheduler.ScalingPolicy`; see
docs/architecture.md, "The elasticity control loop").

How speculation stays honest inside a virtual-time simulator: both
attempts of a duplicated task *physically execute* (and must produce
CRC-identical bytes), while their completion times feed a
deterministic discrete-event schedule that every rank computes
identically from allgathered durations.  Each rank then replaces its
physically accumulated clock with its scheduled completion time
(:meth:`SimComm.sync_time`), so the phase's makespan is exactly what
first-result-wins semantics would yield - a straggler stops being
charged at the point its last attempt is killed.

A job meets this layer through one handle, :class:`ElasticStageHooks`:
:func:`run_elastic` hands it to the job (``job(env, ckpt, hooks)``),
which passes it to its :class:`~repro.sched.executor.PlanRunner`
(``elastic=``).  This module must not import :mod:`repro.sched` (the
runner takes the hooks duck-typed), keeping the dependency arrow
one-way.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import reduce
from statistics import median
from typing import Any, Callable, Sequence

from repro.cluster import Cluster, RankEnv
from repro.core.combiner import CombineFn, Combiner
from repro.core.job import ContainerSink, MapContext, Mimir
from repro.core.kvcontainer import KVContainer
from repro.core.records import KVLayout
from repro.ft.injection import SimulatedRankFailure
from repro.ft.runner import (
    FailureRecord,
    FTResult,
    default_nonce,
    restart_loop,
)
from repro.io.splits import split_text_file
from repro.mpi.errors import RankFailedError
from repro.storage.errors import retrying

#: Failure kinds :func:`run_elastic` converts into gang shrinks
#: instead of same-size restarts (when policy and budget allow), and
#: the membership change each is logged as.
_SHRINKABLE = {"rank-death": "death", "membership-leave": "leave",
               "straggler-evict": "evict"}

#: Extra fraction of a task's duration a speculative duplicate costs:
#: re-reading the task's input split on the backup host.
BACKUP_OVERHEAD = 0.05

#: Slowdown multiple over the gang median at which a rank is flagged.
STRAGGLER_THRESHOLD = 2.0

#: Membership changes one :func:`run_elastic` call may make, and the
#: gang sizes it keeps between.
MAX_MEMBERSHIP_CHANGES = 4
MIN_RANKS = 1
MAX_RANKS = 64


# --------------------------------------------------------------- policy


@dataclass(frozen=True)
class ElasticPolicy:
    """Knobs of the reactive layer; immutable and validated.

    ``splits_per_rank`` sets task-pool granularity - more tasks mean
    earlier per-task detection and finer re-balancing, at more
    scheduling overhead (the paper's usual tradeoff).
    """

    speculate: bool = True
    evict_stragglers: bool = True
    splits_per_rank: int = 4

    def __post_init__(self):
        if self.splits_per_rank < 1:
            raise ValueError(
                f"splits_per_rank must be >= 1, got {self.splits_per_rank}")


# -------------------------------------------------------------- sensing


def flag_stragglers(durations: Sequence[float]) -> list[int]:
    """Ranks whose duration exceeds :data:`STRAGGLER_THRESHOLD` x the
    median: the sensor half of the control loop, over one phase's
    allgathered per-rank busy times.

    A non-positive median means the phase did no measurable work
    anywhere - nothing to flag.
    """
    if not durations:
        return []
    middle = median(durations)
    if middle <= 0.0:
        return []
    return [rank for rank, d in enumerate(durations)
            if d > STRAGGLER_THRESHOLD * middle]


# --------------------------------------------------- speculative tasks


@dataclass
class TaskAttempt:
    """One duplicated task's race, resolved by the event schedule."""

    task: int
    key: str
    primary_rank: int
    primary_end: float
    backup_rank: int
    backup_end: float | None   # None: backup cancelled before starting
    winner: str                # "primary" | "backup"


@dataclass
class SpeculationReport:
    """What one :func:`speculative_map` phase observed and decided."""

    stage_key: str
    nranks: int
    ntasks: int
    busy: list[float]
    flagged: list[int]
    detect_at: float = 0.0
    launched: int = 0
    won: int = 0
    discarded: int = 0
    makespan_unmitigated: float = 0.0
    makespan: float = 0.0
    attempts: list[TaskAttempt] = field(default_factory=list)


def speculative_map(mimir: Mimir, path: str,
                    map_fn: Callable[[MapContext, bytes], None], *,
                    policy: ElasticPolicy | None = None,
                    stage_key: str = "map",
                    combine_fn: CombineFn | None = None,
                    partitioner: Callable[[bytes, int], int] | None = None,
                    layout: KVLayout | None = None,
                    out_tag: str | None = None,
                    ctx: Any = None) -> KVContainer:
    """Task-pool map over a text file with speculative re-execution.

    Three things: a task pool, a schedule, an exchange; the first and
    the last are ``mimir``'s own map.  The file is cut into ``nranks *
    splits_per_rank`` word-aligned tasks; rank ``r`` primarily owns
    tasks ``r, r+size, ...``.  A task is a map whose sink is a
    container of the job instead of the shuffle (``map_fn`` sees the
    engine's :class:`~repro.core.job.MapContext`, ``combine_fn`` runs
    in the engine's :class:`~repro.core.combiner.Combiner`).  Every
    rank runs its primaries physically, then the gang allgathers
    per-task durations and output CRCs.  The tasks of a rank
    :func:`flag_stragglers` flags that are not yet done at the
    detection point (:data:`STRAGGLER_THRESHOLD` x median *task*
    duration - per-task granularity is what bounds the damage to a
    fraction of the phase) are re-executed on the least-loaded healthy
    ranks.  A replicated discrete-event schedule decides each race:
    first result wins, the losing attempt is killed and discarded
    (``ft.speculation.*`` metrics), and each rank's clock is replaced
    by its scheduled completion time.  The winning attempts then feed
    one more map phase of the job (:meth:`Mimir.map_items` re-emitting
    their pages), which is the exchange: comm buffers, rounds, copy
    charges, codec and spill store are the plain map's.  Since
    duplicates must agree CRC-for-CRC, output is bit-identical to the
    unmitigated run.

    Task keys ``{stage_key}/t{task}`` derive from the stage's lineage
    key, so attempts of the same logical task are identifiable across
    hosts and retries.  Returns the shuffled KVC (this rank's
    partition), exactly like ``Mimir.map_text_file``.
    """
    env, config = mimir.env, mimir.config
    comm = env.comm
    policy = policy or ElasticPolicy()
    layout = layout or config.layout
    size = comm.size
    ntasks = size * policy.splits_per_rank
    metrics = env.metrics

    comm.barrier()
    origin = max(comm.allgather(comm.clock.time))
    comm.sync_time(origin)

    failure_log = getattr(ctx, "failure_log", None)

    def on_retry(attempt: int, exc) -> None:
        if failure_log is not None:
            failure_log.append(FailureRecord(
                attempt=0, rank=comm.rank, kind="retry",
                message=f"task read attempt {attempt}: {exc}"))

    #: Outputs of the tasks this rank ran (as primary or as backup; a
    #: rank is never both for one task), by task.
    held: dict[int, KVContainer] = {}

    def run_task(task: int) -> tuple[int, float, int]:
        started = comm.clock.time
        # Uncharged boundary probes; the charged read happens per task,
        # so a re-executed task pays its input again.
        lo, hi = split_text_file(env.pfs, path, task, ntasks)
        chunk = retrying(
            comm, lambda: env.pfs.read(comm, path, lo, hi - lo),
            on_retry=on_retry) if hi > lo else b""
        out = held[task] = mimir.container(
            layout, f"kv_{stage_key}_t{task}", resident_page_budget=1)
        sink = ContainerSink(out)
        if combine_fn is not None:
            sink = Combiner(env, combine_fn, sink)
        mctx = MapContext(sink)
        map_fn(mctx, chunk)
        if mctx._keys:
            mctx._flush()
        sink.finish()
        env.charge_compute(out.nbytes)
        crc = reduce(lambda crc, run: zlib.crc32(run, crc), out.chunks(), 0)
        return task, comm.clock.time - started, crc

    # Progress exchange: every rank learns every task's duration and
    # output fingerprint, so detection and scheduling are replicated.
    gathered = comm.allgather(
        [run_task(task) for task in range(comm.rank, ntasks, size)])
    task_dur: dict[int, float] = {}
    task_crc: dict[int, int] = {}
    busy = [0.0] * size
    for rank, report_part in enumerate(gathered):
        for task, duration, crc in report_part:
            task_dur[task] = duration
            task_crc[task] = crc
            busy[rank] += duration

    flagged = flag_stragglers(busy)
    report = SpeculationReport(stage_key=stage_key, nranks=size,
                               ntasks=ntasks, busy=list(busy),
                               flagged=list(flagged),
                               makespan_unmitigated=max(busy, default=0.0),
                               makespan=max(busy, default=0.0))
    if comm.rank in flagged:
        metrics.inc("ft.straggler.flagged")

    owner = {task: task % size for task in range(ntasks)}
    finish = list(busy)

    if flagged and policy.speculate and size > 1:
        # Detection happens at per-*task* granularity: after
        # threshold x median task durations a healthy observer knows a
        # task is late.  This is what keeps the bound at a fraction of
        # the phase instead of a multiple of it.
        detect_at = STRAGGLER_THRESHOLD * median(task_dur.values())
        report.detect_at = detect_at
        healthy = sorted((r for r in range(size) if r not in flagged),
                         key=lambda r: (busy[r], r))

        # Which tasks are still unfinished at the detection point?
        # Each flagged rank runs its primaries serially in task order.
        prim_done: dict[int, float] = {}
        needs_backup: list[int] = []
        for slow in flagged:
            acc = 0.0
            for task in range(slow, ntasks, size):
                acc += task_dur[task]
                prim_done[task] = acc
                if acc > detect_at:
                    needs_backup.append(task)
        needs_backup.sort()
        assignment = {task: healthy[i % len(healthy)]
                      for i, task in enumerate(needs_backup)}

        # Physically re-execute assigned backups (duplicate charge on
        # the backup host's real clock; rescheduled below).
        backup_dur: dict[int, float] = {}
        for report_part in comm.allgather(
                [run_task(task) for task in needs_backup
                 if assignment[task] == comm.rank]):
            for task, duration, crc in report_part:
                if crc != task_crc[task]:
                    raise RuntimeError(
                        f"speculative duplicate of task "
                        f"{stage_key}/t{task} diverged from its primary "
                        f"(crc {crc:#010x} != {task_crc[task]:#010x}); "
                        "map function is not deterministic")
                backup_dur[task] = duration

        # Replicated discrete-event schedule: every rank computes the
        # same winners from the same allgathered durations.
        host_free = {r: busy[r] for r in healthy}
        winner_end: dict[int, float] = {}
        for task in needs_backup:
            host = assignment[task]
            start_b = max(detect_at, host_free[host])
            if prim_done[task] <= start_b:
                # Primary finished before the backup could launch:
                # the duplicate is cancelled unstarted, nothing to kill.
                winner_end[task] = prim_done[task]
                report.attempts.append(TaskAttempt(
                    task, f"{stage_key}/t{task}", task % size,
                    prim_done[task], host, None, "primary"))
                continue
            end_b = start_b + backup_dur[task] * (1.0 + BACKUP_OVERHEAD)
            host_free[host] = end_b
            report.launched += 1
            if comm.rank == host:
                metrics.inc("ft.speculation.launched")
            backup_won = end_b < prim_done[task]
            winner_end[task] = min(end_b, prim_done[task])
            report.attempts.append(TaskAttempt(
                task, f"{stage_key}/t{task}", task % size, prim_done[task],
                host, end_b, "backup" if backup_won else "primary"))
            report.discarded += 1
            if backup_won:
                owner[task] = host
                report.won += 1
                if comm.rank == host:
                    metrics.inc("ft.speculation.won")
            # The straggler's attempt is killed at the backup's
            # completion, or the backup lost the race: either way the
            # loser's bytes are dropped.
            if comm.rank == (task % size if backup_won else host):
                metrics.inc("ft.speculation.discarded")

        for rank in healthy:
            finish[rank] = host_free[rank]
        for slow in flagged:
            # A straggler is done when its last surviving attempt is:
            # either it finished the task itself, or the task's backup
            # won and the straggler's attempt was killed at that point.
            ends = [winner_end.get(task, prim_done[task])
                    for task in range(slow, ntasks, size)]
            finish[slow] = max(ends, default=busy[slow])
        report.makespan = max(finish, default=0.0)

    # Clock replacement: the physically accumulated time (including
    # duplicate work and straggler slowdown already charged) becomes
    # the scheduled completion time.
    comm.sync_time(origin + finish[comm.rank])
    metrics.observe("core.phase.seconds", finish[comm.rank])

    # Exchange the *winning* attempts: one more map phase of the job,
    # fed by the containers of the tasks this rank finally owns.  Record
    # order within a destination is (source rank, task) - stable and
    # replicated, though it differs from the unmitigated order, which is
    # why harnesses compare *sorted* output.
    winners = []
    for task in sorted(held):
        if owner[task] == comm.rank:
            winners.append(held[task])
        else:
            held[task].free()

    def resend(mctx: MapContext, won: KVContainer) -> None:
        for batch in won.consume_batches():
            mctx.emit_batch(batch)

    out = mimir.map_items(winners, resend, combine_fn=combine_fn,
                          partitioner=partitioner, layout=layout,
                          out_tag=out_tag or f"kv_{stage_key}")
    if ctx is not None:
        ctx.record(report, env)
    return out


# ----------------------------------------------------------- membership


class StragglerEvicted(SimulatedRankFailure):
    """A flagged rank voluntarily leaves so the gang can shrink.

    Raised after a speculative stage by :meth:`ElasticStageHooks.
    maybe_evict`; :func:`run_elastic` promotes it to a membership
    change (the plain restart driver retries it like a death).
    """

    failure_class = "straggler-evict"

    def __init__(self, tag: str, rank: int):
        super().__init__(tag, rank)
        self.args = (f"straggler rank {rank} evicted at {tag!r}",)


@dataclass
class MembershipChange:
    """One gang-size transition in an elastic run's history."""

    attempt: int
    kind: str          # "leave" | "join" | "evict" | "death"
    rank: int | None
    nprocs: int        # gang size *after* the change
    at: float          # virtual time the triggering event carried
    cause: str = ""


@dataclass
class ElasticResult(FTResult):
    """Outcome of an elastic run: an FTResult plus membership history."""

    membership_log: list[MembershipChange] = field(default_factory=list)
    speculation: list[SpeculationReport] = field(default_factory=list)
    final_nprocs: int = 0

    @property
    def membership_changes(self) -> int:
        return len(self.membership_log)


# ---------------------------------------------------- the elastic handle


class ElasticStageHooks:
    """The one elastic handle: wires the reactive layer into a
    :class:`~repro.sched.executor.PlanRunner`.

    Passed as ``runner(plan, elastic=...)``: map stages over text
    inputs run through :func:`speculative_map` (task keys derive from
    the stage's lineage key), every other executed stage's duration
    feeds :func:`flag_stragglers` via an allgather (:meth:`observe_stage`),
    and after a speculative stage the runner offers :meth:`maybe_evict`.
    :func:`run_elastic` hands one to its job, shared across attempts.
    Kept duck-typed on the scheduler side so :mod:`repro.sched` never
    imports this module at import time.
    """

    def __init__(self, policy: ElasticPolicy | None = None):
        self.policy = policy or ElasticPolicy()
        #: Flagged ranks by stage name, from :meth:`observe_stage`.
        self.flags: dict[str, list[int]] = {}
        #: Every speculative phase's report (rank 0 collects them), and
        #: the last one (every rank keeps it).
        self.reports: list[SpeculationReport] = []
        self.last_report: SpeculationReport | None = None
        #: Membership changes left to make.  :func:`run_elastic` arms it
        #: with :data:`MAX_MEMBERSHIP_CHANGES` and spends it; a runner
        #: outside that driver has nothing to absorb an eviction, so it
        #: never evicts.
        self.membership_left = 0
        #: Absorbed-event sink shared with the driver's failure log, so
        #: transient map-read retries are classified like checkpoint
        #: retries.
        self.failure_log: list[FailureRecord] = []

    def map_text(self, mimir: Mimir, path: str, stage) -> KVContainer:
        """Run a text-input map stage speculatively."""
        params = stage.params
        return speculative_map(
            mimir, path, stage.fn, policy=self.policy,
            stage_key=stage.key, combine_fn=params.get("combine_fn"),
            partitioner=params.get("partitioner"),
            layout=params.get("layout"), out_tag=f"kv_{stage.name}",
            ctx=self)

    def record(self, report: SpeculationReport, env: RankEnv) -> None:
        self.last_report = report
        if env.comm.rank == 0:
            self.reports.append(report)

    def observe_stage(self, env: RankEnv, stage, seconds: float) -> list[int]:
        """Progress-monitor a non-speculative stage (collective call)."""
        durations = env.comm.allgather(seconds)
        flagged = flag_stragglers(durations)
        if flagged:
            self.flags[stage.name] = flagged
            if env.comm.rank in flagged:
                env.metrics.inc("ft.straggler.flagged")
        return flagged

    def maybe_evict(self, env: RankEnv, tag: str) -> None:
        """Turn a persistent straggler into a membership departure.

        If the last speculative phase flagged stragglers and policy +
        budget allow shrinking, the lowest flagged rank raises
        :class:`StragglerEvicted`; the driver shrinks the gang and the
        retry runs without the slow host.  Speculation already bounded
        the *current* phase; eviction keeps the slowness from taxing
        every future phase.
        """
        report = self.last_report
        allowed = self.policy.evict_stragglers and self.membership_left > 0 \
            and env.comm.size > MIN_RANKS
        if allowed and report is not None and report.flagged \
                and env.comm.rank == min(report.flagged):
            raise StragglerEvicted(tag, env.comm.rank)


def run_elastic(cluster: Cluster, job: Callable[..., Any], *,
                policy: ElasticPolicy | None = None,
                job_id: str = "job",
                max_restarts: int = 8,
                nonce: str | None = None) -> ElasticResult:
    """Run ``job(env, ckpt, hooks)`` under the elastic membership driver;
    ``hooks`` is the run's :class:`ElasticStageHooks`, for the job's
    :class:`~repro.sched.executor.PlanRunner`.

    Like :func:`~repro.ft.runner.run_with_recovery`, with death
    *promoted*: a rank death, scheduled leave, or straggler eviction
    shrinks the gang (``Cluster.resize``) instead of burning restart
    budget, as long as :data:`MAX_MEMBERSHIP_CHANGES` is not spent and
    the gang stays at or above :data:`MIN_RANKS`.  Scheduled joins from
    the membership schedule of the cluster's plan (``cluster.chaos``)
    grow the gang at launch boundaries, and a departed rank's
    stragglers leave that plan with it.  Checkpoints survive membership
    changes because the nonce is fixed for the whole run (not per gang
    size) - :func:`~repro.ft.checkpoint.restore_rebalanced` re-shards
    them.
    """
    hooks = ElasticStageHooks(policy)
    hooks.membership_left = MAX_MEMBERSHIP_CHANGES
    if nonce is None:
        nonce = default_nonce(cluster, f"{job_id}/elastic")
    membership_log: list[MembershipChange] = []

    def can_shrink() -> bool:
        return hooks.membership_left > 0 and cluster.nprocs > MIN_RANKS

    def resize(attempt: int, kind: str, rank: int | None, delta: int,
               at: float, cause: str) -> None:
        cluster.resize(cluster.nprocs + delta)
        if rank is not None and cluster.chaos is not None:
            cluster.chaos.remove_rank(rank)
        membership_log.append(MembershipChange(
            attempt, kind, rank, cluster.nprocs, at, cause))
        hooks.membership_left -= 1
        cluster.metrics.shard(-1).inc("ft.membership.changes")

    def sweep(attempt: int, last_clock: float) -> None:
        # Launch-boundary membership sweep: joins grow the gang;
        # leaves whose rank never reached a probe shrink it here.
        if cluster.chaos is None:
            return
        for event in cluster.chaos.membership_due(last_clock,
                                                  nranks=cluster.nprocs):
            if event.kind == "join":
                if hooks.membership_left > 0 and cluster.nprocs < MAX_RANKS:
                    resize(attempt, "join", None, +1, event.at,
                           "scheduled join")
            elif can_shrink():
                resize(attempt, "leave", event.rank, -1, event.at,
                       "scheduled leave (launch boundary)")

    def promote(attempt: int, kind: str, failure: RankFailedError,
                last_clock: float) -> bool:
        if kind not in _SHRINKABLE or not can_shrink():
            return False
        resize(attempt, _SHRINKABLE[kind], failure.rank, -1,
               getattr(failure.original, "at", last_clock),
               str(failure.original))
        return True

    ft = restart_loop(
        cluster, lambda env, ckpt: job(env, ckpt, hooks),
        job_id=job_id, nonce=nonce, max_restarts=max_restarts,
        failure_log=hooks.failure_log, membership_log=membership_log,
        sweep=sweep, promote=promote)
    return ElasticResult(**vars(ft), membership_log=membership_log,
                         speculation=list(hooks.reports),
                         final_nprocs=cluster.nprocs)
