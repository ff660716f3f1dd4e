"""Reactive fault handling: stragglers, speculation, elastic membership.

Checkpoint/restart (:mod:`repro.ft.runner`) treats every fault as
fatal: tear the gang down, resubmit, replay from the last checkpoint.
This module adds the *reactive* layer the paper's target machines
(Mira, Comet) actually need at scale, where the common failure is not
a crash but a slow rank, and where re-running the whole gang to shed
one bad host is unaffordable.  Three mechanisms, one control loop:

- **Straggler detection** (:class:`StragglerMonitor`): per-phase
  progress comparison.  Every rank's busy time for a phase is
  allgathered and compared against the median; ranks beyond a
  configurable slowdown threshold are flagged (``ft.straggler.
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
  re-balanced onto the new one (:func:`restore_rebalanced`), and a
  partition lost with its rank is recomputed from lineage.

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

This module must not import :mod:`repro.sched` (its ``PlanRunner``
takes :class:`ElasticStageHooks` duck-typed), keeping the dependency
arrow one-way.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice, repeat
from statistics import median
from typing import Any, Callable, Sequence

from repro.cluster import Cluster, RankEnv
from repro.core.batch import KVBatch
from repro.core.combiner import CombineFn, Combiner
from repro.core.job import MapContext, Mimir
from repro.core.kvcontainer import KVContainer
from repro.core.records import BLOCK, KVLayout
from repro.core.shuffle import pair_columns
from repro.ft.checkpoint import CheckpointManager
from repro.ft.injection import ChaosPlan, SimulatedRankFailure
from repro.ft.runner import (
    _RUN_SEQ,
    FailureRecord,
    FTResult,
    restart_loop,
)
from repro.io.splits import split_range, split_text_file
from repro.mpi.errors import RankFailedError
from repro.storage.errors import retrying

#: Failure kinds :func:`run_elastic` converts into gang shrinks
#: instead of same-size restarts (when policy and budget allow), and
#: the membership change each is logged as.
_SHRINKABLE = {"rank-death": "death", "membership-leave": "leave",
               "straggler-evict": "evict"}


# --------------------------------------------------------------- policy


@dataclass(frozen=True)
class ElasticPolicy:
    """Knobs of the reactive layer; immutable and validated.

    ``straggler_threshold`` is the slowdown multiple over the median
    at which a rank is flagged; ``backup_overhead`` models the cost of
    re-reading a duplicated task's input split on the backup host.
    ``splits_per_rank`` sets task-pool granularity - more tasks mean
    earlier per-task detection and finer re-balancing, at more
    scheduling overhead (the paper's usual tradeoff).
    """

    straggler_threshold: float = 2.0
    min_detect_seconds: float = 0.0
    speculate: bool = True
    backup_overhead: float = 0.05
    evict_stragglers: bool = True
    max_membership_changes: int = 4
    min_ranks: int = 1
    max_ranks: int = 64
    splits_per_rank: int = 4

    def __post_init__(self):
        if self.straggler_threshold <= 1.0:
            raise ValueError(
                f"straggler_threshold must be > 1 (a threshold at or "
                f"below the median flags healthy ranks), got "
                f"{self.straggler_threshold}")
        if self.min_detect_seconds < 0:
            raise ValueError(
                f"min_detect_seconds must be >= 0, "
                f"got {self.min_detect_seconds}")
        if self.backup_overhead < 0:
            raise ValueError(
                f"backup_overhead must be >= 0, got {self.backup_overhead}")
        if self.max_membership_changes < 0:
            raise ValueError(
                f"max_membership_changes must be >= 0, "
                f"got {self.max_membership_changes}")
        if self.min_ranks < 1:
            raise ValueError(f"min_ranks must be >= 1, got {self.min_ranks}")
        if self.max_ranks < self.min_ranks:
            raise ValueError(
                f"max_ranks {self.max_ranks} < min_ranks {self.min_ranks}")
        if self.splits_per_rank < 1:
            raise ValueError(
                f"splits_per_rank must be >= 1, got {self.splits_per_rank}")


# -------------------------------------------------------------- sensing


class StragglerMonitor:
    """Flags ranks whose phase progress lags the gang median.

    The sensor half of the control loop: durations come either from a
    live allgather of per-rank busy times (``flag``) or from the
    metrics registry's per-rank ``core.phase.seconds`` summaries
    (``flag_from_metrics``) - the same signal, one in-band and one
    out-of-band.
    """

    def __init__(self, threshold: float = 2.0, min_gap: float = 0.0):
        if threshold <= 1.0:
            raise ValueError(
                f"threshold must be > 1, got {threshold}")
        if min_gap < 0:
            raise ValueError(f"min_gap must be >= 0, got {min_gap}")
        self.threshold = threshold
        self.min_gap = min_gap

    def flag(self, durations: "dict[int, float] | Sequence[float]",
             ) -> list[int]:
        """Ranks whose duration exceeds ``threshold`` x median.

        ``min_gap`` suppresses flags when the absolute lag is noise
        (phases measured in microseconds).  A non-positive median means
        the phase did no measurable work anywhere - nothing to flag.
        """
        if isinstance(durations, dict):
            items = sorted(durations.items())
        else:
            items = list(enumerate(durations))
        if not items:
            return []
        middle = median(d for _, d in items)
        if middle <= 0.0:
            return []
        return [rank for rank, d in items
                if d > self.threshold * middle
                and (d - middle) >= self.min_gap]

    def flag_from_metrics(self, registry,
                          name: str = "core.phase.seconds") -> list[int]:
        """Flag from the observability registry's per-rank summaries.

        ``registry.by_rank`` returns summary dicts per shard; the
        cluster-wide shard (rank -1) is excluded - it never ran a
        phase.
        """
        totals = {}
        for rank, summary in registry.by_rank(name).items():
            if rank < 0:
                continue
            totals[rank] = float(summary.get("total", 0.0)) \
                if isinstance(summary, dict) else float(summary)
        return self.flag(totals)


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


class _TaskSink:
    """Where one task's map output lands: the four emit verbs of a
    :class:`~repro.core.shuffle.Shuffler`, appending to a container the
    job made instead of routing, so a finished task's records are
    tracked and (under ``out_of_core``) cold until the exchange."""

    def __init__(self, held: KVContainer):
        self.held = held
        self.layout = held.layout

    def emit(self, key: bytes, value: bytes) -> None:
        self.held.add(key, value)

    def emit_run(self, keys, value: bytes) -> int:
        return self._emit_columns(iter(keys), repeat(value))

    def emit_pairs(self, pairs) -> int:
        return self._emit_columns(*pair_columns(pairs))

    def emit_batch(self, batch: KVBatch) -> None:
        self.held.extend_encoded(batch.data, batch.roff)

    def _emit_columns(self, keys, values) -> int:
        count = 0
        while block := list(islice(keys, BLOCK)):
            self.held.add_run(block, list(islice(values, len(block))))
            count += len(block)
        return count

    def finish(self) -> None:
        """Nothing buffered: every emit already reached the container."""


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
    per-task durations and output CRCs.  If a rank's busy time exceeds
    the policy threshold over the median it is flagged; its tasks not
    yet done at the detection point (``threshold`` x median *task*
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
    threshold = policy.straggler_threshold
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
        sink = _TaskSink(out)
        if combine_fn is not None:
            sink = Combiner(env, config, combine_fn, sink)
        map_fn(MapContext(sink), chunk)
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

    flagged = StragglerMonitor(
        threshold, policy.min_detect_seconds).flag(busy)
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
        detect_at = max(threshold * median(task_dur.values()),
                        policy.min_detect_seconds)
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
            end_b = start_b + backup_dur[task] * (1.0 + policy.backup_overhead)
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

    Raised at a job's eviction point by :meth:`ElasticContext.
    maybe_evict`; :func:`run_elastic` promotes it to a membership
    change (the plain restart driver retries it like a death).
    """

    failure_class = "straggler-evict"

    def __init__(self, tag: str, rank: int):
        super().__init__(tag, rank)
        self.args = (f"straggler rank {rank} evicted at {tag!r}",)


def restore_rebalanced(mimir: Mimir, ckpt: CheckpointManager, phase: str,
                       layout: KVLayout, tag: str, *,
                       partitioner: Callable[[bytes, int], int] | None = None,
                       ) -> KVContainer | None:
    """Load a phase checkpoint across a membership change into a new
    container of the job, or return ``None``.

    The shard re-balancing step: a checkpoint written by ``n`` ranks
    is discovered (:meth:`CheckpointManager.partition_count` - free
    metadata scans, so every rank agrees without communicating), and
    the restore is a map over the old partitions: each surviving rank
    reads a contiguous block of them and re-emits their records, which
    the job's own shuffle sends to their new homes.  When the gang size
    is unchanged this degrades to a plain per-rank restore.  Returns
    ``None`` when the phase never completed (including when a partition
    died with its rank before the markers committed) - the caller
    recomputes from lineage.
    """
    comm = mimir.env.comm
    agreed = comm.allreduce(ckpt.partition_count(phase), min)
    if agreed == 0:
        return None
    if agreed == comm.size:
        return ckpt.load_kvc(phase, mimir.container(layout, tag))
    out = mimir.map_items(
        range(*split_range(agreed, comm.rank, comm.size)),
        lambda mctx, part: mctx.emit_batch(
            KVBatch(ckpt.read_partition(phase, part), layout)),
        partitioner=partitioner, layout=layout, out_tag=tag)
    mimir.env.metrics.inc("ft.checkpoint.restores")
    return out


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


class SpeculationLog:
    """The reports :func:`speculative_map` hands its ``ctx``: every
    rank keeps the last one, rank 0 collects them all."""

    def __init__(self):
        self.reports: list[SpeculationReport] = []
        self.last_report: SpeculationReport | None = None

    def record(self, report: SpeculationReport, env: RankEnv) -> None:
        self.last_report = report
        if env.comm.rank == 0:
            self.reports.append(report)


class ElasticContext(SpeculationLog):
    """Per-run handle a job uses to talk to the elastic driver.

    Bundles the fault plan (probe points), the policy, and the
    speculation reports; shared across attempts so history survives
    restarts.  Jobs call :meth:`probe` where chaos-wrapped jobs call
    ``faults.check``, and may call :meth:`maybe_evict` after a phase
    whose report flagged a straggler.
    """

    def __init__(self, policy: ElasticPolicy, faults: ChaosPlan):
        super().__init__()
        self.policy = policy
        self.faults = faults
        #: Membership-change budget, decremented by :func:`run_elastic`
        #: as changes accumulate.
        self.membership_left = policy.max_membership_changes
        #: Absorbed-event sink shared with the driver's failure log, so
        #: transient map-read retries are classified like checkpoint
        #: retries.
        self.failure_log: list[FailureRecord] = []

    def probe(self, env: RankEnv, tag: str) -> None:
        """A job checkpoint/phase boundary: faults may fire here."""
        self.faults.check(tag, env.comm.rank)
        self.faults.membership_check(env.comm, tag)

    def maybe_evict(self, env: RankEnv, tag: str) -> None:
        """Turn a persistent straggler into a membership departure.

        If the last phase flagged stragglers and policy + budget allow
        shrinking, the lowest flagged rank raises
        :class:`StragglerEvicted`; the driver shrinks the gang and the
        retry runs without the slow host.  Speculation already bounded
        the *current* phase; eviction keeps the slowness from taxing
        every future phase.
        """
        report = self.last_report
        if report is None or not report.flagged:
            return
        if not self.policy.evict_stragglers:
            return
        if self.membership_left <= 0:
            return
        if env.comm.size - 1 < self.policy.min_ranks:
            return
        victim = min(report.flagged)
        if env.comm.rank == victim:
            raise StragglerEvicted(tag, victim)


def run_elastic(cluster: Cluster, job: Callable[..., Any], *,
                policy: ElasticPolicy | None = None,
                faults: ChaosPlan | None = None,
                job_id: str = "job",
                max_restarts: int = 8,
                restart_caps: dict[str, int] | None = None,
                nonce: str | None = None) -> ElasticResult:
    """Run ``job(env, ckpt, ctx)`` under the elastic membership driver.

    Like :func:`~repro.ft.runner.run_with_recovery`, with death
    *promoted*: a rank death, scheduled leave, or straggler eviction
    shrinks the gang (``Cluster.resize``) instead of burning restart
    budget, as long as the membership budget is not spent and the gang
    stays at or above ``policy.min_ranks``.
    Scheduled joins from the fault plan's membership schedule grow the
    gang at launch boundaries.  Checkpoints survive membership changes
    because the nonce is fixed for the whole run (not per gang size) -
    :func:`restore_rebalanced` does the re-sharding.
    """
    policy = policy or ElasticPolicy()
    plan = faults if faults is not None else ChaosPlan()
    ctx = ElasticContext(policy, plan)
    if nonce is None:
        nonce = f"{job_id}/elastic/run{next(_RUN_SEQ)}"
    membership_log: list[MembershipChange] = []

    def can_shrink() -> bool:
        return ctx.membership_left > 0 and cluster.nprocs > policy.min_ranks

    def resize(attempt: int, kind: str, rank: int | None, delta: int,
               at: float, cause: str) -> None:
        cluster.resize(cluster.nprocs + delta)
        if rank is not None:
            plan.remove_rank(rank)
        membership_log.append(MembershipChange(
            attempt, kind, rank, cluster.nprocs, at, cause))
        ctx.membership_left -= 1
        cluster.metrics.shard(-1).inc("ft.membership.changes")

    def sweep(attempt: int, last_clock: float) -> None:
        # Launch-boundary membership sweep: joins grow the gang;
        # leaves whose rank never reached a probe shrink it here.
        for event in plan.membership_due(last_clock, nranks=cluster.nprocs):
            if event.kind == "join":
                if ctx.membership_left > 0 \
                        and cluster.nprocs < policy.max_ranks:
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
        cluster, job, ctx, plan, install=faults is not None,
        job_id=job_id, nonce=nonce,
        max_restarts=max_restarts, restart_caps=restart_caps,
        failure_log=ctx.failure_log, membership_log=membership_log,
        sweep=sweep, promote=promote)
    return ElasticResult(**vars(ft), membership_log=membership_log,
                         speculation=list(ctx.reports),
                         final_nprocs=cluster.nprocs)


# ----------------------------------------------------- scheduler bridge


class ElasticStageHooks(SpeculationLog):
    """Wires the reactive layer into a :class:`~repro.sched.executor.
    PlanRunner`.

    Passed as ``runner(plan, elastic=...)``: map stages over text
    inputs run through :func:`speculative_map` (task keys derive from
    the stage's lineage key), and every other executed stage's
    duration feeds the straggler monitor via an allgather
    (:meth:`observe_stage`).  Kept duck-typed on the scheduler side so
    :mod:`repro.sched` never imports this module at import time.
    """

    def __init__(self, policy: ElasticPolicy | None = None):
        super().__init__()
        self.policy = policy or ElasticPolicy()
        self.monitor = StragglerMonitor(self.policy.straggler_threshold,
                                        self.policy.min_detect_seconds)
        #: Flagged ranks by stage name, from :meth:`observe_stage`.
        self.flags: dict[str, list[int]] = {}

    def map_text(self, mimir: Mimir, path: str, stage) -> KVContainer:
        """Run a text-input map stage speculatively."""
        params = stage.params
        return speculative_map(
            mimir, path, stage.fn, policy=self.policy,
            stage_key=stage.key, combine_fn=params.get("combine_fn"),
            partitioner=params.get("partitioner"),
            layout=params.get("layout"), out_tag=f"kv_{stage.name}",
            ctx=self)

    def observe_stage(self, env: RankEnv, stage, seconds: float) -> list[int]:
        """Progress-monitor a non-speculative stage (collective call)."""
        durations = env.comm.allgather(seconds)
        flagged = self.monitor.flag(durations)
        if flagged:
            self.flags[stage.name] = flagged
            if env.comm.rank in flagged:
                env.metrics.inc("ft.straggler.flagged")
        return flagged
