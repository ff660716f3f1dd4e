"""The always-on job service daemon over one simulated cluster.

:class:`ServeDaemon` owns a :class:`~repro.sched.scheduler.Scheduler`
and drives it from a worker loop: clients submit catalog jobs
(:mod:`repro.serve.catalog`) asynchronously, each round gang-admits
what fits (tenant quotas and fair-share aging wired through the
scheduler's external hooks), and results are retained while the
client's lease stays renewed.

Crash safety is journal-first, and the journal is the only way a
job's state changes: every transition (input registered, job
submitted / admitted / finished / cancelled / collected) is a record
appended to the :class:`~repro.serve.journal.ServeJournal` *before*
it is acknowledged or acted on, then handed to one function,
:meth:`ServeDaemon._apply`, which makes the state change and writes
the job's log line.  A daemon killed at any instant restarts by
applying every journaled record through that same function over the
same PFS, so job states, logs, the scheduler clock and the round
numbers come back as they were.  Then queued jobs re-enter the
admission queue in submission order, and jobs that were mid-run are
re-admitted through :func:`~repro.ft.runner.run_with_recovery` - the
same classified-restart driver chaos recovery uses - whose time
advances the clock.  Identical inputs produce bit-identical outputs
on either path, so a crash is invisible in the artifacts.

The lifecycle follows the service-manager shape (register, health,
route): :meth:`start` binds the HTTP front end and the worker thread,
:meth:`stop` is a graceful drain of neither (the queue persists in
the journal), and :meth:`kill` is the abrupt flavour tests use to
simulate a crash - no goodbye record is written, recovery must work
from whatever the journal holds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster import Cluster
from repro.sched.scheduler import JobOutcome, ScalingPolicy, Scheduler
from repro.serve.catalog import (
    check_params,
    merge_output,
    run_direct,
    summarize,
    to_sched_job,
)
from repro.serve.journal import ServeJournal
from repro.serve.leases import LeaseTable
from repro.serve.tenants import TenantManager

#: Served-job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: Terminal-and-collected: the lease lapsed and the output was GC'd.
EXPIRED = "expired"

_TERMINAL = (DONE, FAILED, CANCELLED, EXPIRED)
#: Worker sleep between idle ticks (real seconds).
_IDLE_TICK = 0.01


@dataclass
class ServeConfig:
    """Service-level knobs (scheduler knobs live on the cluster)."""

    lease_ttl: float = 60.0
    journal_path: str = "serve/journal"
    input_prefix: str = "serve/in"
    output_prefix: str = "serve/out"


@dataclass
class ServedJob:
    """One submission's full service-side record."""

    job_id: str
    tenant: str
    app: str
    input: str
    params: dict[str, Any]
    priority: int = 0
    footprint: "int | str | None" = None
    #: The lease TTL the submission asked for (``None``: the default).
    ttl: "float | None" = None
    state: str = QUEUED
    #: Virtual (scheduler-clock) timestamps for the latency trajectory.
    submit_clock: float = 0.0
    start_clock: "float | None" = None
    done_clock: "float | None" = None
    round: "int | None" = None
    summary: "dict[str, Any] | None" = None
    error: "str | None" = None
    output_path: "str | None" = None
    log: list[str] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    @property
    def queue_latency(self) -> "float | None":
        if self.start_clock is None:
            return None
        return self.start_clock - self.submit_clock

    def note(self, message: str) -> None:
        self.log.append(message)

    def to_json(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id, "tenant": self.tenant, "app": self.app,
            "input": self.input, "params": self.params,
            "priority": self.priority, "state": self.state,
            "round": self.round, "submit_clock": self.submit_clock,
            "start_clock": self.start_clock, "done_clock": self.done_clock,
            "queue_latency": self.queue_latency, "summary": self.summary,
            "error": self.error, "output_path": self.output_path,
        }


class ServeError(Exception):
    """An API-visible failure with an HTTP-ish status code."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


class ServeDaemon:
    """Multi-tenant job service over ``cluster``; see module docstring.

    ``clock`` feeds the lease table (injectable for tests).  The
    daemon records into the cluster's trace and is faulted by the
    cluster's chaos plan: its own probe points (``serve:submit:<id>``
    on the daemon, ``serve:job:<id>`` on every rank as a served job
    starts) and its journal appends fire that one plan.
    """

    def __init__(self, cluster: Cluster, *,
                 tenants: TenantManager | None = None,
                 config: ServeConfig | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 scaling: ScalingPolicy | None = None):
        self.cluster = cluster
        self.config = config or ServeConfig()
        self.metrics = cluster.metrics.shard(-1)
        self.tenants = tenants or TenantManager()
        self.tenants.metrics = self.metrics
        self.scheduler = Scheduler(cluster, scaling=scaling)
        self._scale_seen = 0
        self.tenants.install(self.scheduler)
        self.scheduler.on_admit = self._on_admit
        self.leases = LeaseTable(self.config.lease_ttl, clock=clock,
                                 metrics=self.metrics)
        self.journal = ServeJournal(cluster.pfs, self.config.journal_path,
                                    metrics=self.metrics)
        self.jobs: dict[str, ServedJob] = {}
        self.inputs: dict[str, str] = {}      # "<tenant>/<name>" -> path
        self._puts = 0                        # input records applied
        self._seq = 0
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._worker: "threading.Thread | None" = None
        self._http: Any = None
        self.crashed = False
        self.crash_error: "BaseException | None" = None
        self.recovered_jobs: list[str] = []

    # ------------------------------------------------------------ recovery

    def recover(self) -> list[str]:
        """Open the journal and replay to the pre-crash state.

        Must be called (directly or via :meth:`start`) before serving.
        Every record goes through :meth:`_apply`, the same function
        that applied it live.  Returns the ids of interrupted mid-run
        jobs that were re-admitted through ``run_with_recovery``.
        """
        with self._lock:
            for record in self.journal.open():
                self._apply(record)
            jobs = sorted(self.jobs.values(), key=lambda j: j.job_id)
            for job in jobs:
                if not job.terminal or job.state == DONE:
                    self.leases.grant(job.job_id, job.ttl)
            # Interrupted jobs first: they were admitted before
            # anything still queued, and recovery must not reorder
            # effects a client already observed.
            interrupted = [job for job in jobs if job.state == RUNNING]
            for job in interrupted:
                self._recover_interrupted(job)
            for job in jobs:
                if job.state == QUEUED:
                    self.scheduler.submit(self._sched_job(vars(job)))
                    job.note("replay: requeued")
            return [job.job_id for job in interrupted]

    def _commit(self, record: dict[str, Any]) -> "ServedJob | None":
        """Journal ``record``, then apply it: the one live transition."""
        self.journal.append(record)
        return self._apply(record)

    def _apply(self, record: dict[str, Any]) -> "ServedJob | None":
        """Make one journal record's state change and log its line.

        The only writer of a job's state, live (through :meth:`_commit`)
        and on replay.  It also raises the scheduler's clock and round
        count to the record's, which is a no-op live and restores them
        on replay.  Returns the record's job (``None`` for an input).
        """
        kind = record["type"]
        if kind == "input":
            self.inputs[f"{record['tenant']}/{record['name']}"] = \
                record["path"]
            self._puts += 1
            return None
        if kind == "submit":
            self._seq = max(self._seq, int(record["seq"]))
            job = ServedJob(
                job_id=record["job_id"], tenant=record["tenant"],
                app=record["app"], input=record["input"],
                params=record["params"],
                priority=record.get("priority", 0),
                footprint=record.get("footprint"), ttl=record.get("ttl"),
                submit_clock=record.get("submit_clock", 0.0))
            self.jobs[job.job_id] = job
            job.note(f"submitted by {job.tenant} (app={job.app}, "
                     f"input={job.input})")
        job = self.jobs[record["job_id"]]
        if kind == "start":
            job.state = RUNNING
            job.round = record.get("round")
            job.start_clock = record.get("start_clock")
            job.note(f"admitted into round {job.round}")
        elif kind == "done":
            job.state = DONE
            job.summary = record.get("summary")
            job.output_path = record.get("output")
            job.done_clock = record.get("done_clock")
            job.note(f"done ({record.get('bytes', '?')} output bytes)")
        elif kind == "failed":
            job.state = FAILED
            job.error = record.get("error")
            job.done_clock = record.get("done_clock")
            job.note(f"failed: {job.error}")
        elif kind == "cancel":
            job.state = CANCELLED
            job.note("cancelled by owner")
        elif kind == "gc":
            job.state = EXPIRED
            job.output_path = None
            job.note("output garbage-collected (lease expired)")
        sched = self.scheduler
        sched.clock = max(sched.clock, job.submit_clock,
                          job.start_clock or 0.0, job.done_clock or 0.0)
        sched.rounds_run = max(sched.rounds_run, job.round or 0)
        return job

    def _recover_interrupted(self, job: ServedJob) -> None:
        """Finish a job the crash cut down mid-run.

        Re-admitted through the classified-restart driver: rank-level
        faults during recovery are themselves absorbed, and a stable
        per-job nonce lets checkpoints written by one recovery attempt
        satisfy the next.
        """
        from repro.ft.runner import run_with_recovery

        ft = run_with_recovery(
            self.cluster,
            lambda env, ckpt, faults: run_direct(
                job.app, env, job.input, job.params, checkpoint=ckpt),
            job_id=job.job_id, nonce=f"serve:{job.job_id}")
        job.note(f"replay: re-admitted via run_with_recovery "
                 f"({ft.attempts} attempt(s))")
        self.recovered_jobs.append(job.job_id)
        self.scheduler.clock += ft.total_elapsed
        self._complete(job, ft.result.returns)

    # ------------------------------------------------------------- inputs

    def put_input(self, tenant: str, name: str, data: bytes) -> str:
        """Stage input bytes for ``tenant``; journaled, returns the path.
        A re-PUT writes a path no earlier PUT used: a path's bytes never
        change under a job or a stage keyed by the path."""
        if not name or "/" in name or name.startswith("."):
            raise ServeError(400, f"invalid input name {name!r}")
        # Unknown tenants are rejected in closed mode.
        self.tenants.quota(tenant)
        with self._lock:
            path = f"{self.config.input_prefix}/{tenant}/{name}"
            if f"{tenant}/{name}" in self.inputs:
                path = f"{self.config.input_prefix}/{tenant}/" \
                       f".{self._puts}/{name}"
            self.cluster.pfs.store(path, data)
            self._commit({"type": "input", "tenant": tenant, "name": name,
                          "path": path, "size": len(data)})
        return path

    def _resolve_input(self, tenant: str, name: str) -> str:
        key = f"{tenant}/{name}"
        if key in self.inputs:
            return self.inputs[key]
        # Shared read-only datasets staged outside the service tree
        # (demo inputs): any tenant may read them, none may shadow them.
        if not name.startswith("serve/") and self.cluster.pfs.exists(name):
            return name
        raise ServeError(404, f"input {name!r} not found for tenant "
                              f"{tenant!r}; PUT /input/{name} first")

    # ------------------------------------------------------------- submit

    def _sched_job(self, spec: dict[str, Any]):
        """The scheduler job for one submission; ``spec`` is its submit
        record or a replayed job's fields (the same names)."""
        return to_sched_job(
            spec["app"], spec["job_id"], spec["input"], spec["params"],
            tenant=spec["tenant"], priority=spec["priority"],
            footprint=spec["footprint"],
            input_bytes=self.cluster.pfs.size(spec["input"]))

    def submit(self, tenant: str, app: str, input_name: str, *,
               params: dict[str, Any] | None = None, priority: int = 0,
               footprint: "int | str | None" = None,
               ttl: "float | None" = None) -> ServedJob:
        """Accept one job: validate, quota-check, journal, enqueue.

        The journal append is the commit point - a crash before it
        means the client saw an error and the job never existed; a
        crash after it means replay resubmits, even if the scheduler
        never heard of the job (the mid-submit crash window).
        """
        params = check_params(app, params or {})
        with self._lock:
            path = self._resolve_input(tenant, input_name)
            queued = sum(1 for j in self.jobs.values()
                         if j.tenant == tenant and j.state == QUEUED)
            seq = self._seq + 1
            record = {"type": "submit", "job_id": f"job-{seq:04d}",
                      "seq": seq, "tenant": tenant, "app": app,
                      "input": path, "params": params,
                      "priority": priority, "footprint": footprint,
                      "submit_clock": self.scheduler.clock}
            if ttl is not None:
                record["ttl"] = ttl
            sched_job = self._sched_job(record)
            self.tenants.check_submit(
                tenant, queued=queued,
                footprint=self.scheduler.estimate(sched_job))
            job = self._commit(record)
            chaos = self.cluster.chaos
            if chaos is not None:  # journaled, not yet enqueued
                chaos.check(f"serve:submit:{job.job_id}", -1)
            self.scheduler.submit(sched_job)
            self.leases.grant(job.job_id, ttl)
            self.metrics.inc("serve.submissions")
        return job

    # ------------------------------------------------------------ serving

    def _on_admit(self, jobs, round_no: int) -> None:
        """Scheduler hook: journal every admission before the launch."""
        for sched_job in jobs:
            if sched_job.name not in self.jobs:
                continue        # library user sharing the scheduler
            self._commit({"type": "start", "job_id": sched_job.name,
                          "round": round_no,
                          "start_clock": self.scheduler.clock})
            self.metrics.inc("serve.admissions")

    def _complete(self, job: ServedJob, returns: "list[Any]") -> None:
        """Store the output artifact, then journal the completion."""
        output = merge_output(job.app, returns)
        path = f"{self.config.output_prefix}/{job.job_id}"
        self.cluster.pfs.store(path, output)
        self._commit({"type": "done", "job_id": job.job_id,
                      "output": path, "summary": summarize(job.app, returns),
                      "done_clock": self.scheduler.clock,
                      "bytes": len(output)})
        self.metrics.inc("serve.completions")
        if not self.leases.alive(job.job_id):
            self._collect(job)

    def _finish(self, outcome: JobOutcome) -> None:
        job = self.jobs.get(outcome.name)
        if job is None:
            return
        if outcome.failed:
            self._commit({"type": "failed", "job_id": job.job_id,
                          "error": outcome.error,
                          "done_clock": self.scheduler.clock})
            self.metrics.inc("serve.completions")
            return
        self._complete(job, outcome.returns)

    def tick(self) -> bool:
        """One worker iteration: a round if work waits, then lease GC.

        Returns whether any job was admitted (progress signal for the
        worker's idle backoff).  Exceptions escaping the launch - a
        rank death the scheduler does not absorb - are daemon crashes;
        the worker loop records them and stops serving, exactly like a
        real process dying.
        """
        with self._lock:
            progressed = False
            if self.scheduler.queue_depth:
                for outcome in self.scheduler.run_round():
                    self._finish(outcome)
                progressed = self.scheduler.last_admitted > 0
            scaled = len(self.scheduler.scale_events) - self._scale_seen
            if scaled > 0:
                self.metrics.inc("serve.autoscale.events", scaled)
                self._scale_seen += scaled
            self._sweep()
            self.metrics.set_gauge("serve.queue.depth",
                                   self.scheduler.queue_depth)
            return progressed

    def _sweep(self) -> None:
        """Lease GC: lapsed leases release their jobs' outputs."""
        for job_id in self.leases.sweep():
            job = self.jobs.get(job_id)
            if job is None:
                continue
            if job.state == DONE:
                self._collect(job)
            # Queued/running jobs keep running - the journal already
            # promised them - but _complete sees the dead lease and
            # collects the output the moment it exists.

    def _collect(self, job: ServedJob) -> None:
        """Garbage-collect one lease-expired output."""
        if job.output_path is not None:
            self.cluster.pfs.delete(job.output_path)
        self._commit({"type": "gc", "job_id": job.job_id})
        self.metrics.inc("serve.gc.outputs")

    # ----------------------------------------------------------- queries

    def _get(self, job_id: str, tenant: "str | None" = None) -> ServedJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeError(404, f"no such job {job_id!r}")
        if tenant is not None and job.tenant != tenant:
            raise ServeError(403, f"job {job_id!r} belongs to another "
                                  f"tenant")
        return job

    def status(self, job_id: str, tenant: "str | None" = None) -> dict:
        """Job status; polling renews the caller's lease."""
        with self._lock:
            job = self._get(job_id, tenant)
            lease = self.leases.renew(job_id)
            doc = job.to_json()
            doc["lease_remaining"] = self.leases.remaining(job_id)
            doc["lease_renewals"] = lease.renewals if lease else None
            return doc

    def renew(self, job_id: str, tenant: "str | None" = None,
              ttl: "float | None" = None) -> dict:
        with self._lock:
            job = self._get(job_id, tenant)
            lease = self.leases.renew(job_id, ttl)
            if lease is None:
                raise ServeError(410, f"lease for {job_id!r} already "
                                      f"expired")
            return {"job_id": job.job_id,
                    "lease_remaining": self.leases.remaining(job_id)}

    def cancel(self, job_id: str, tenant: "str | None" = None) -> dict:
        """Withdraw a queued job; running/terminal jobs refuse (409)."""
        with self._lock:
            job = self._get(job_id, tenant)
            if job.state != QUEUED or \
                    self.scheduler.cancel(job_id) is None:
                raise ServeError(409, f"job {job_id!r} is {job.state}; "
                                      f"only queued jobs can be cancelled")
            self._commit({"type": "cancel", "job_id": job.job_id})
            self.metrics.inc("serve.cancellations")
            self.leases.drop(job_id)
            return {"job_id": job_id, "state": CANCELLED}

    def output(self, job_id: str, tenant: "str | None" = None) -> bytes:
        with self._lock:
            job = self._get(job_id, tenant)
            if job.state == EXPIRED:
                raise ServeError(410, f"output of {job_id!r} was "
                                      f"garbage-collected (lease expired)")
            if job.state != DONE:
                raise ServeError(409, f"job {job_id!r} is {job.state}, "
                                      f"not done")
            self.leases.renew(job_id)
            return self.cluster.pfs.fetch(job.output_path)

    def job_log(self, job_id: str, tenant: "str | None" = None) -> str:
        with self._lock:
            job = self._get(job_id, tenant)
            self.metrics.inc("serve.log.fetches")
            return "\n".join(job.log) + "\n"

    def job_log_since(self, job_id: str, offset: int,
                      tenant: "str | None" = None) -> dict:
        """Incremental log fetch: lines from ``offset`` on, plus the
        cursor for the next call - the ``?offset=N`` / ``--follow``
        contract.  ``state`` lets a follower stop once the job is
        terminal *and* it has drained every line."""
        with self._lock:
            job = self._get(job_id, tenant)
            offset = max(0, min(int(offset), len(job.log)))
            self.metrics.inc("serve.log.fetches")
            return {"job_id": job.job_id, "state": job.state,
                    "lines": list(job.log[offset:]),
                    "next_offset": len(job.log)}

    def list_jobs(self, tenant: "str | None" = None) -> list[dict]:
        with self._lock:
            return [job.to_json() for job in self.jobs.values()
                    if tenant is None or job.tenant == tenant]

    def health(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {"status": "crashed" if self.crashed else "ok",
                    "queue_depth": self.scheduler.queue_depth,
                    "rounds": self.scheduler.rounds_run,
                    "virtual_clock": self.scheduler.clock,
                    "jobs": states,
                    "leases": len(self.leases)}

    # ---------------------------------------------------------- lifecycle

    def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Recover, bind the HTTP API, start the worker; returns port."""
        from repro.serve.api import ServeHTTPServer

        if self.journal.nonce is None:
            self.recover()
        self._http = ServeHTTPServer(self, host, port)
        self._http.start()
        self._stop.clear()
        self._worker = threading.Thread(target=self._worker_loop,
                                        name="serve-worker", daemon=True)
        self._worker.start()
        return self._http.port

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                progressed = self.tick()
            except Exception as exc:
                # A failure the scheduler does not absorb kills the
                # process in a real deployment; serving stops and the
                # journal is what the next incarnation recovers from.
                self.crashed = True
                self.crash_error = exc
                return
            if not progressed:
                self._stop.wait(_IDLE_TICK)
            else:
                # Yield so API threads waiting on the lock get a turn
                # between rounds even under a full queue.
                time.sleep(0)

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until the queue is empty and nothing is running."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.crashed:
                return False
            with self._lock:
                busy = self.scheduler.queue_depth or any(
                    j.state == RUNNING for j in self.jobs.values())
            if not busy:
                return True
            time.sleep(0.005)
        return False

    def stop(self) -> None:
        """Graceful stop: finish the current round, keep the journal."""
        self._stop.set()
        if self._worker is not None:
            self._worker.join(timeout=60.0)
            self._worker = None
        if self._http is not None:
            self._http.shutdown()
            self._http = None

    def kill(self) -> None:
        """Abrupt stop (test harness for crashes).

        Identical to :meth:`stop` at the thread level - a Python
        thread cannot be killed mid-launch - but semantically the
        daemon is now *gone*: nothing was drained, no shutdown record
        exists, and the only way back is a new daemon replaying the
        journal.
        """
        self.stop()

