"""Multi-job scheduler with memory-aware admission control.

Jobs are submitted with a priority and (optionally) a declared
per-rank memory footprint; the scheduler gang-schedules batches of
jobs onto the cluster's ranks in *rounds*.  A round admits jobs - in
priority order - only while the sum of their footprints fits the
per-rank memory budget (minus a safety reserve); the rest wait in the
queue.  A job whose footprint alone exceeds the budget is admitted
*degraded* (out-of-core spill enabled) if it allows it, instead of
being allowed to OOM the rank.

Admission is enforced, not advisory: when a round carries several
jobs, each job's footprint is **reserved** against the rank's
persistent :class:`~repro.memory.tracker.MemoryTracker` for the
round's duration (a job's reservation converts into its working
budget just before it runs).  A job that blows through its estimate
OOMs the launch; the scheduler absorbs that (``allow_oom``), doubles
the offending batch's estimates, resets the poisoned trackers and
caches, and requeues - so a misdeclared job costs a retry, never a
crashed schedule.

Footprints not declared up front are *learned*: the estimator seeds
from input size and refines from each completed job's observed peak,
so the second submission of a workload is admitted on real data.

One :class:`~repro.sched.cache.StageCache` per rank survives across
rounds (the trackers are reused via ``Cluster.run(trackers=...)``), so
a later job reuses containers an earlier job cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.cluster import Cluster, RankEnv
from repro.core.config import MimirConfig
from repro.memory.limits import format_size, parse_size
from repro.memory.tracker import MemoryTracker
from repro.sched.cache import StageCache
from repro.sched.executor import PlanRunner
from repro.sched.plan import Plan

#: OOMs a job survives before it fails; each one at least doubles its
#: footprint estimate before it is admitted again.
MAX_OOM_RETRIES = 1
#: Peak memory residency at or above which the autoscaler grows the
#: gang, and at or below which it may shrink it, one rank at a time.
GROW_RESIDENCY = 0.80
SHRINK_RESIDENCY = 0.30


@dataclass
class SchedJob:
    """One submitted job: ``fn(env, ctx)`` runs on every rank."""

    name: str
    fn: Callable[[RankEnv, "JobContext"], Any]
    priority: int = 0
    #: Declared per-rank peak footprint ("32K", bytes, or None to let
    #: the estimator guess).
    footprint: int | str | None = None
    #: Total input bytes (seeds the estimate when no footprint given).
    input_bytes: int = 0
    #: May this job run with out-of-core spill when it cannot fit?
    degradable: bool = True
    config: MimirConfig | None = None
    #: Estimator key shared by repeated submissions of one workload
    #: (service jobs get unique names, so without this every
    #: resubmission would re-learn its footprint from scratch).
    workload: str | None = None
    #: Owning tenant; ignored by the scheduler itself, consumed by
    #: external admission filters (see :mod:`repro.serve.tenants`).
    tenant: str | None = None


@dataclass
class JobContext:
    """Per-rank handle a running job receives next to its ``env``."""

    env: RankEnv
    name: str
    config: MimirConfig
    cache: StageCache
    degraded: bool = False

    def runner(self, plan: Plan, *, checkpoint=None,
               elastic=None) -> PlanRunner:
        """A :class:`PlanRunner` wired into the scheduler's services."""
        return PlanRunner(self.env, plan, cache=self.cache,
                          checkpoint=checkpoint, elastic=elastic,
                          job=self.name)


class FootprintEstimator:
    """Per-rank footprint estimates: declared, learned, or seeded."""

    #: Safety factor over a learned peak (workloads vary run to run).
    HEADROOM = 1.25
    #: Expansion of input bytes into working set (shuffle + grouping).
    EXPANSION = 3.0

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.observed: dict[str, int] = {}

    @staticmethod
    def key(job: SchedJob) -> str:
        """Learning key: the declared workload, falling back to the name."""
        return job.workload or job.name

    def estimate(self, job: SchedJob, config: MimirConfig) -> int:
        observed = self.observed.get(self.key(job))
        if job.footprint is not None:
            declared = parse_size(job.footprint)
            if observed is not None and observed > declared:
                # The declaration was disproven (a measured peak - or
                # an OOMed round - above it): trust the evidence.
                return int(observed * self.HEADROOM)
            return declared
        if observed is not None:
            return int(observed * self.HEADROOM)
        fixed = 2 * config.comm_buffer_size + 4 * config.page_size
        return fixed + int(job.input_bytes / self.nprocs * self.EXPANSION)

    def observe(self, name: str, peak: int) -> None:
        """Refine from a completed run's observed per-rank peak."""
        self.observed[name] = max(peak, self.observed.get(name, 0))


@dataclass(frozen=True)
class ScalingPolicy:
    """Grows/shrinks the gang from queue depth and memory residency.

    The autoscaler half of the control loop (:class:`Scheduler`
    consults it between rounds): ``decide`` maps the sensors (ready-queue
    depth, peak memory residency from the trackers) to a target gang
    size, one rank away from the current one.  Residency dominates - a
    budget at least :data:`GROW_RESIDENCY` full grows the gang even
    when the queue is short, and shrinking is refused until residency
    is at most :data:`SHRINK_RESIDENCY`, so scale-downs never cause the
    OOM they are supposed to be irrelevant to.
    """

    min_ranks: int = 1
    max_ranks: int = 64
    #: Target ready-queue jobs per rank; deeper queues grow the gang.
    jobs_per_rank: float = 1.0

    def __post_init__(self):
        if self.min_ranks < 1:
            raise ValueError(f"min_ranks must be >= 1, got {self.min_ranks}")
        if self.max_ranks < self.min_ranks:
            raise ValueError(
                f"max_ranks {self.max_ranks} < min_ranks {self.min_ranks}")
        if not 0 < self.jobs_per_rank < math.inf:
            raise ValueError(f"jobs_per_rank must be finite and positive, "
                             f"got {self.jobs_per_rank}")

    def decide(self, *, queue_depth: int, residency: float,
               nprocs: int) -> int:
        """Target gang size for the next scheduling round."""
        wanted = -(-queue_depth // max(self.jobs_per_rank, 1e-9)) \
            if queue_depth else 0
        wanted = int(wanted)
        target = nprocs
        if residency >= GROW_RESIDENCY or wanted > nprocs:
            target = nprocs + 1
        elif wanted < nprocs and residency <= SHRINK_RESIDENCY:
            target = nprocs - 1
        return max(self.min_ranks, min(self.max_ranks, target))


@dataclass
class JobOutcome:
    """Final record of one submitted job."""

    name: str
    returns: list[Any] | None = None
    round: int = 0
    queued_rounds: int = 0
    peak_bytes: int = 0
    estimate: int = 0
    degraded: bool = False
    failed: bool = False
    error: str | None = None

    @property
    def completed(self) -> bool:
        return not self.failed and self.returns is not None


@dataclass
class SchedulerReport:
    """Outcome of one :meth:`Scheduler.run` drain."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    rounds: int = 0
    total_elapsed: float = 0.0
    ooms: int = 0

    def outcome(self, name: str) -> JobOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(name)

    def render_log(self) -> str:
        lines = [f"{self.rounds} round(s), {self.total_elapsed:.3f}s "
                 f"virtual, {self.ooms} oom(s)"]
        for o in self.outcomes:
            state = "FAILED" if o.failed else \
                ("degraded" if o.degraded else "ok")
            lines.append(
                f"  {o.name:<16} round {o.round} "
                f"(queued {o.queued_rounds}) est "
                f"{format_size(o.estimate)} peak "
                f"{format_size(o.peak_bytes)} [{state}]")
        return "\n".join(lines)


@dataclass
class _Queued:
    job: SchedJob
    seq: int
    config: MimirConfig
    estimate: int = 0
    queued_rounds: int = 0
    oom_retries: int = 0
    degraded: bool = False


class Scheduler:
    """Admission-controlled multi-job queue over one cluster."""

    def __init__(self, cluster: Cluster, *, reserve: float = 0.1,
                 scaling: ScalingPolicy | None = None):
        if not 0 <= reserve < 1:
            raise ValueError(f"reserve must be in [0, 1), got {reserve}")
        self.cluster = cluster
        self.reserve = reserve
        #: Optional autoscaler: consulted between rounds with the queue
        #: depth and observed memory residency, and actuated through
        #: :meth:`Cluster.resize`.
        self.scaling = scaling
        self.scale_events: list[tuple[int, int]] = []
        self.estimator = FootprintEstimator(cluster.nprocs)
        self.trackers = self._fresh_trackers()
        self.caches = [StageCache(rank) for rank in range(cluster.nprocs)]
        self._queue: list[_Queued] = []
        self._seq = 0
        #: Cumulative virtual time across every round run so far.
        self.clock = 0.0
        self.ooms = 0
        #: Cumulative admission rounds across every drain.
        self.rounds_run = 0
        #: Jobs admitted by the most recent round (0 when an external
        #: admission filter vetoed the whole queue).
        self.last_admitted = 0
        #: External admission veto: ``fn(job, admitted_batch) -> bool``.
        #: Consulted per candidate while a round's batch is built; a
        #: ``False`` keeps the job queued for a later round.  This is
        #: the serving layer's per-tenant concurrency hook.
        self.admission_filter: "Callable[[SchedJob, list[SchedJob]], bool] | None" = None  # noqa: E501
        #: External priority override: ``fn(job, queued_rounds) ->
        #: float`` replaces ``job.priority`` in admission ordering -
        #: fair-share aging lives here, not in the scheduler.
        self.priority_fn: "Callable[[SchedJob, int], float] | None" = None
        #: Called with (admitted jobs, round number) after admission,
        #: before launch - the journaling point for a serving front
        #: end: every job in the batch is about to run.
        self.on_admit: "Callable[[list[SchedJob], int], None] | None" = None

    def _fresh_trackers(self) -> list[MemoryTracker]:
        cluster = self.cluster
        return [MemoryTracker(cluster.memory_limit_per_rank,
                              keep_timeline=cluster.keep_timeline)
                for _ in range(cluster.nprocs)]

    def _emit(self, kind: str, label: str, *, at: float | None = None,
              **data: Any) -> None:
        trace = self.cluster.trace
        if trace is not None:
            trace.emit_abs(self.clock if at is None else at, -1,
                           kind, label, **data)

    # ------------------------------------------------------------- submit

    def submit(self, job: "SchedJob | Callable", *, name: str | None = None,
               **kwargs: Any) -> SchedJob:
        """Queue a job (a :class:`SchedJob`, or ``fn`` plus fields)."""
        if not isinstance(job, SchedJob):
            job = SchedJob(name=name or getattr(job, "__name__", "job"),
                           fn=job, **kwargs)
        self._seq += 1
        config = job.config or MimirConfig()
        self._queue.append(_Queued(job, self._seq, config))
        self._emit("submit", job.name, job=job.name,
                   priority=job.priority)
        return job

    def cancel(self, name: str) -> SchedJob | None:
        """Withdraw a still-queued job; returns it, or ``None``.

        Only jobs waiting for admission can be cancelled: a launched
        batch runs to completion (gang semantics - aborting one rank's
        job mid-round would kill the whole launch).  The serving layer
        therefore exposes cancellation as best-effort.
        """
        for queued in self._queue:
            if queued.job.name == name:
                self._queue.remove(queued)
                self._emit("cancel", name, job=name)
                return queued.job
        return None

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def estimate(self, job: SchedJob) -> int:
        return self.estimator.estimate(job, job.config or MimirConfig())

    # ---------------------------------------------------------- admission

    @property
    def _budget(self) -> int | None:
        limit = self.cluster.memory_limit_per_rank
        if limit is None:
            return None
        return int(limit * (1.0 - self.reserve))

    def _admit(self, round_no: int) -> list[_Queued]:
        """Pick this round's batch; emit queue events for the rest.

        Highest priority first (submission order breaks ties); jobs
        are admitted while their summed footprints fit what is left of
        the budget after persistent (cache) residency.  An oversized
        head-of-queue job is never starved: it gets a round to itself,
        degraded to out-of-core if its estimate exceeds even an empty
        budget and it allows that.

        An installed :attr:`admission_filter` can veto candidates for
        this round (per-tenant concurrency caps); vetoed jobs stay
        queued.  When the filter rejects every queued job the round
        admits nothing - callers running a drain loop must treat an
        empty batch as "wait", not "retry immediately".
        """
        def effective_priority(q: _Queued) -> float:
            if self.priority_fn is not None:
                return self.priority_fn(q.job, q.queued_rounds)
            return q.job.priority

        ordered = sorted(self._queue,
                         key=lambda q: (-effective_priority(q), q.seq))
        budget = self._budget
        for queued in ordered:
            queued.estimate = self.estimator.estimate(queued.job,
                                                      queued.config)
            queued.degraded = False
        if self.admission_filter is not None:
            batch_jobs: list[SchedJob] = []
            eligible = []
            for queued in ordered:
                if self.admission_filter(queued.job, batch_jobs):
                    eligible.append(queued)
                    batch_jobs.append(queued.job)
        else:
            eligible = ordered
        if budget is None:
            admitted = eligible
        else:
            resident = max((t.current - cache.resident_bytes
                            for t, cache in zip(self.trackers, self.caches)),
                           default=0)
            available = budget - resident
            admitted = []
            committed = 0
            for queued in eligible:
                if committed + queued.estimate <= available:
                    admitted.append(queued)
                    committed += queued.estimate
            if not admitted and eligible:
                head = eligible[0]
                if head.estimate > available and head.job.degradable \
                        and head.estimate > budget:
                    head.degraded = True
                    head.config = replace(head.config, out_of_core=True)
                admitted = [head]
        metrics = self.cluster.metrics.shard(-1)
        for queued in ordered:
            if queued in admitted:
                metrics.inc("sched.admissions")
                self._emit("admit", queued.job.name, job=queued.job.name,
                           round=round_no, est=queued.estimate,
                           degraded=queued.degraded)
            else:
                queued.queued_rounds += 1
                metrics.inc("sched.queued")
                self._emit("queue", queued.job.name, job=queued.job.name,
                           round=round_no)
        return admitted

    # ------------------------------------------------------------- launch

    def _launch(self, batch: list[_Queued]):
        """Run one admitted batch in a single cluster launch."""
        reservations = [(q.job.name, q.estimate) for q in batch] \
            if len(batch) > 1 else []

        def batch_fn(env: RankEnv):
            cache = self.caches[env.comm.rank]
            cache.attach(env)
            # Gang reservation: every admitted job's footprint is held
            # for the round, so combined over-admission fails here,
            # not in the middle of some unlucky job's shuffle.
            for name, estimate in reservations:
                cache.ensure_room(estimate)
                env.tracker.allocate(estimate, f"reserved:{name}")
            results: dict[str, tuple[Any, int, float]] = {}
            for queued in batch:
                env.comm.barrier()
                if reservations:
                    env.tracker.free(queued.estimate,
                                     f"reserved:{queued.job.name}")
                else:
                    cache.ensure_room(queued.estimate)
                env.tracker.reset_peak()
                start = env.tracker.current
                ctx = JobContext(env=env, name=queued.job.name,
                                 config=queued.config, cache=cache,
                                 degraded=queued.degraded)
                value = queued.job.fn(env, ctx)
                results[queued.job.name] = (
                    value, env.tracker.peak - start, env.comm.clock.time)
            return results

        return self.cluster.run(batch_fn, allow_oom=True,
                                trackers=self.trackers, base=self.clock)

    # ---------------------------------------------------------------- run

    def run_round(self) -> list[JobOutcome]:
        """Run one admission round; the incremental flavour of :meth:`run`.

        Returns the outcomes of jobs that reached a terminal state this
        round (completed, or failed past the OOM retry cap).  An OOM
        round that merely requeued its batch - or a round in which the
        admission filter vetoed every candidate (:attr:`last_admitted`
        is 0) - returns an empty list.  This is the serving daemon's
        tick: the queue persists between calls, so new jobs can be
        submitted while earlier rounds drain.
        """
        self.last_admitted = 0
        if not self._queue:
            return []
        self.rounds_run += 1
        round_no = self.rounds_run
        self._apply_scaling(round_no)
        batch = self._admit(round_no)
        self.last_admitted = len(batch)
        if not batch:
            return []
        if self.on_admit is not None:
            self.on_admit([q.job for q in batch], round_no)
        result = self._launch(batch)
        # An aborted launch's time passed too: the retry starts after it.
        self.clock += result.elapsed
        if result.ran_out_of_memory:
            return self._handle_oom(batch, result, round_no)
        outcomes: list[JobOutcome] = []
        for queued in batch:
            self._queue.remove(queued)
            per_rank = [r[queued.job.name] for r in result.returns]
            peak = max(p for _v, p, _t in per_rank)
            done_at = self.clock - result.elapsed + \
                max(t for _v, _p, t in per_rank)
            self.estimator.observe(self.estimator.key(queued.job), peak)
            self._emit("stage-done", f"{queued.job.name}:complete",
                       at=done_at, job=queued.job.name,
                       round=round_no)
            outcomes.append(JobOutcome(
                name=queued.job.name,
                returns=[v for v, _p, _t in per_rank],
                round=round_no,
                queued_rounds=queued.queued_rounds,
                peak_bytes=peak, estimate=queued.estimate,
                degraded=queued.degraded))
        return outcomes

    def run(self) -> SchedulerReport:
        """Drain the queue; returns one outcome per submitted job."""
        report = SchedulerReport(ooms=0)
        start_rounds, start_ooms = self.rounds_run, self.ooms
        while self._queue:
            report.outcomes.extend(self.run_round())
            if self.last_admitted == 0 and self._queue:
                raise RuntimeError(
                    "admission filter vetoed every queued job; a full "
                    "drain cannot make progress")
        report.rounds = self.rounds_run - start_rounds
        report.total_elapsed = self.clock
        report.ooms = self.ooms - start_ooms
        return report

    def _apply_scaling(self, round_no: int) -> None:
        """Consult the autoscaler and resize the gang between rounds.

        Rounds are the scheduler's launch boundaries - the only points
        a gang-scheduled allocation can legally change size.  Sensors:
        ready-queue depth, and the worst rank's memory residency
        (current bytes over the per-rank limit).  A resize rebuilds the
        per-rank trackers and stage caches: cached containers live in
        rank-indexed memory, so they die with the old gang shape -
        checkpoints (on the shared PFS) are what survives, exactly as
        in the membership-change recovery path.
        """
        if self.scaling is None or not self._queue:
            return
        limit = self.cluster.memory_limit_per_rank
        residency = 0.0
        if limit:
            residency = max((t.current / limit for t in self.trackers),
                            default=0.0)
        target = self.scaling.decide(queue_depth=len(self._queue),
                                     residency=residency,
                                     nprocs=self.cluster.nprocs)
        if target == self.cluster.nprocs:
            return
        self.cluster.resize(target)
        self.estimator.nprocs = target
        self.trackers = self._fresh_trackers()
        self.caches = [StageCache(rank) for rank in range(target)]
        self.scale_events.append((round_no, target))
        self.cluster.metrics.shard(-1).inc("ft.membership.changes")
        self._emit("scale", f"gang->{target}", round=round_no,
                   nprocs=target, residency=round(residency, 4))

    def _handle_oom(self, batch: list[_Queued], result,
                    round_no: int) -> list[JobOutcome]:
        """Absorb a blown estimate: reset state, bump, requeue.

        Returns terminal outcomes for jobs that exhausted their OOM
        retry budget; the rest stay queued with doubled estimates.
        """
        self.ooms += 1
        self.cluster.metrics.shard(-1).inc("sched.ooms")
        blame = result.oom.tag if result.oom is not None else "?"
        outcomes: list[JobOutcome] = []
        for queued in batch:
            self._emit("oom", queued.job.name, job=queued.job.name,
                       oom_rank=result.oom_rank, tag=blame)
            queued.oom_retries += 1
            # The whole batch shares the blame (the launch dies before
            # per-job attribution): raise every estimate to at least
            # what the rank actually held when it blew, so the next
            # admission runs these jobs in solo rounds and the real
            # offender OOMs alone.
            blown = (result.oom.current + result.oom.requested) \
                if result.oom is not None else 0
            key = self.estimator.key(queued.job)
            bumped = max(queued.estimate * 2, blown,
                         self.estimator.observed.get(key, 0))
            self.estimator.observe(key, bumped)
            if queued.oom_retries > MAX_OOM_RETRIES:
                self._queue.remove(queued)
                outcomes.append(JobOutcome(
                    name=queued.job.name, round=round_no,
                    queued_rounds=queued.queued_rounds,
                    estimate=queued.estimate, degraded=queued.degraded,
                    failed=True,
                    error=f"out of memory on rank {result.oom_rank}: "
                          f"{result.oom}"))
        # Aborted ranks never freed their allocations: the trackers'
        # accounting (and any half-built cache entry) is unusable.
        for cache in self.caches:
            cache.clear()
        self.trackers = self._fresh_trackers()
        return outcomes
