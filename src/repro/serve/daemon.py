"""The always-on job service daemon over one simulated cluster.

:class:`ServeDaemon` owns a :class:`~repro.sched.scheduler.Scheduler`
and drives it from a worker loop: clients submit catalog jobs
(:mod:`repro.serve.catalog`) asynchronously, each round gang-admits
what fits (tenant quotas and fair-share aging wired through the
scheduler's external hooks), and results are retained while the
client's lease stays renewed.

Crash safety is journal-first: every externally visible transition
(input registered, job submitted / admitted / finished / cancelled /
collected) is appended to the :class:`~repro.serve.journal.
ServeJournal` *before* it is acknowledged or acted on.  A daemon
killed at any instant restarts by replaying the journal over the same
PFS: finished jobs keep their outputs, queued jobs re-enter the
admission queue in submission order, and jobs that were mid-run are
re-admitted through :func:`~repro.ft.runner.run_with_recovery` - the
same classified-restart driver chaos recovery uses - before serving
resumes.  Identical inputs produce bit-identical outputs on either
path, so a crash is invisible in the artifacts.

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
from repro.obs.trace import Trace
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


@dataclass
class ServeConfig:
    """Service-level knobs (scheduler knobs live on the cluster)."""

    lease_ttl: float = 60.0
    aging_rate: float = 1.0
    journal_path: str = "serve/journal"
    input_prefix: str = "serve/in"
    output_prefix: str = "serve/out"
    #: Worker sleep between idle ticks (real seconds).
    tick_interval: float = 0.01


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

    ``clock`` feeds the lease table (injectable for tests); ``chaos``
    is an optional :class:`~repro.ft.injection.ChaosPlan` consulted at
    the daemon's own probe points (``serve:submit:<id>``,
    ``serve:job:<id>``) and on journal appends, in addition to
    whatever the cluster itself injects.
    """

    def __init__(self, cluster: Cluster, *,
                 tenants: TenantManager | None = None,
                 config: ServeConfig | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 chaos: Any = None,
                 scaling: ScalingPolicy | None = None,
                 trace: Trace | None = None):
        self.cluster = cluster
        self.config = config or ServeConfig()
        self.chaos = chaos
        self.trace = trace if trace is not None else Trace()
        self.metrics = cluster.metrics.shard(-1)
        self.tenants = tenants or TenantManager(
            aging_rate=self.config.aging_rate)
        self.tenants.metrics = self.metrics
        self.scheduler = Scheduler(cluster, trace=self.trace,
                                   scaling=scaling)
        self._scale_seen = 0
        self.tenants.install(self.scheduler)
        self.scheduler.on_admit = self._on_admit
        self.leases = LeaseTable(self.config.lease_ttl, clock=clock,
                                 metrics=self.metrics)
        self.journal = ServeJournal(cluster.pfs, self.config.journal_path,
                                    metrics=self.metrics, chaos=chaos)
        self.jobs: dict[str, ServedJob] = {}
        self.inputs: dict[str, str] = {}      # "<tenant>/<name>" -> path
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
        Returns the ids of interrupted mid-run jobs that were
        re-admitted through ``run_with_recovery``.
        """
        with self._lock:
            records = self.journal.open()
            interrupted: list[ServedJob] = []
            requeue: list[ServedJob] = []
            for record in records:
                kind = record["type"]
                if kind == "input":
                    self.inputs[f"{record['tenant']}/{record['name']}"] = \
                        record["path"]
                elif kind == "submit":
                    self._seq = max(self._seq, int(record["seq"]))
                    job = ServedJob(
                        job_id=record["job_id"], tenant=record["tenant"],
                        app=record["app"], input=record["input"],
                        params=record["params"],
                        priority=record.get("priority", 0),
                        footprint=record.get("footprint"),
                        submit_clock=record.get("submit_clock", 0.0))
                    job.note("replay: submitted")
                    self.jobs[job.job_id] = job
                elif kind == "start":
                    job = self.jobs[record["job_id"]]
                    job.state = RUNNING
                    job.round = record.get("round")
                    job.start_clock = record.get("start_clock")
                elif kind == "done":
                    job = self.jobs[record["job_id"]]
                    job.state = DONE
                    job.summary = record.get("summary")
                    job.output_path = record.get("output")
                    job.done_clock = record.get("done_clock")
                elif kind == "failed":
                    job = self.jobs[record["job_id"]]
                    job.state = FAILED
                    job.error = record.get("error")
                elif kind == "cancel":
                    self.jobs[record["job_id"]].state = CANCELLED
                elif kind == "gc":
                    job = self.jobs[record["job_id"]]
                    job.state = EXPIRED
                    job.output_path = None
            for job in sorted(self.jobs.values(),
                              key=lambda j: j.job_id):
                if job.state == RUNNING:
                    interrupted.append(job)
                elif job.state == QUEUED:
                    requeue.append(job)
                if not job.terminal or job.state == DONE:
                    self.leases.grant(job.job_id)
            # Interrupted jobs first: they were admitted before
            # anything still queued, and recovery must not reorder
            # effects a client already observed.
            for job in interrupted:
                self._recover_interrupted(job)
            for job in requeue:
                self._enqueue(job)
                job.note("replay: requeued")
            return [job.job_id for job in interrupted]

    def _recover_interrupted(self, job: ServedJob) -> None:
        """Finish a job the crash cut down mid-run.

        Re-admitted through the classified-restart driver: rank-level
        faults during recovery are themselves absorbed, and a stable
        per-job nonce lets checkpoints written by one recovery attempt
        satisfy the next.
        """
        from repro.ft.runner import run_with_recovery

        app, path, params = job.app, job.input, job.params
        ft = run_with_recovery(
            self.cluster,
            lambda env, ckpt, faults: run_direct(app, env, path, params,
                                                 checkpoint=ckpt),
            faults=self.chaos, job_id=job.job_id,
            nonce=f"serve:{job.job_id}")
        job.note(f"replay: re-admitted via run_with_recovery "
                 f"({ft.attempts} attempt(s))")
        self.recovered_jobs.append(job.job_id)
        self._complete(job, ft.result.returns)

    # ------------------------------------------------------------- inputs

    def put_input(self, tenant: str, name: str, data: bytes) -> str:
        """Stage input bytes for ``tenant``; journaled, returns the path."""
        if not name or "/" in name or name.startswith("."):
            raise ServeError(400, f"invalid input name {name!r}")
        # Unknown tenants are rejected in closed mode.
        self.tenants.quota(tenant)
        with self._lock:
            path = f"{self.config.input_prefix}/{tenant}/{name}"
            self.cluster.pfs.store(path, data)
            self.journal.append({"type": "input", "tenant": tenant,
                                 "name": name, "path": path,
                                 "size": len(data)})
            self.inputs[f"{tenant}/{name}"] = path
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

    def _probe(self, tag: str) -> None:
        if self.chaos is not None:
            self.chaos.check(tag, -1)

    def _enqueue(self, job: ServedJob) -> None:
        probe = None
        if self.chaos is not None:
            chaos = self.chaos
            job_id = job.job_id
            def probe(env):
                chaos.check(f"serve:job:{job_id}", env.comm.rank)
        self.scheduler.submit(to_sched_job(
            job.app, job.job_id, job.input, job.params,
            tenant=job.tenant, priority=job.priority,
            footprint=job.footprint,
            input_bytes=self.cluster.pfs.size(job.input),
            probe=probe))

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
            sched_job = to_sched_job(app, "quota-probe", path, params,
                                     tenant=tenant, footprint=footprint,
                                     input_bytes=self.cluster.pfs.size(path))
            estimate = self.scheduler.estimator.estimate(
                sched_job, sched_job.config or _default_config())
            self.tenants.check_submit(tenant, queued=queued,
                                      footprint=estimate)
            self._seq += 1
            job = ServedJob(job_id=f"job-{self._seq:04d}", tenant=tenant,
                            app=app, input=path, params=params,
                            priority=priority, footprint=footprint,
                            submit_clock=self.scheduler.clock)
            self.journal.append({
                "type": "submit", "job_id": job.job_id, "seq": self._seq,
                "tenant": tenant, "app": app, "input": path,
                "params": params, "priority": priority,
                "footprint": footprint,
                "submit_clock": job.submit_clock})
            self.jobs[job.job_id] = job
            job.note(f"submitted by {tenant} (app={app}, input={path})")
            # Mid-submit crash window: journaled but not yet enqueued.
            self._probe(f"serve:submit:{job.job_id}")
            self._enqueue(job)
            self.leases.grant(job.job_id, ttl)
            self.metrics.inc("serve.submissions")
        return job

    # ------------------------------------------------------------ serving

    def _on_admit(self, jobs, round_no: int) -> None:
        """Scheduler hook: journal every admission before the launch."""
        for sched_job in jobs:
            job = self.jobs.get(sched_job.name)
            if job is None:     # library user sharing the scheduler
                continue
            job.state = RUNNING
            job.round = round_no
            job.start_clock = self.scheduler.clock
            job.note(f"admitted into round {round_no}")
            self.journal.append({"type": "start", "job_id": job.job_id,
                                 "round": round_no,
                                 "start_clock": job.start_clock})
            self.metrics.inc("serve.admissions")

    def _complete(self, job: ServedJob, returns: "list[Any]") -> None:
        """Store the output artifact, then journal the completion."""
        output = merge_output(job.app, returns)
        path = f"{self.config.output_prefix}/{job.job_id}"
        self.cluster.pfs.store(path, output)
        job.summary = summarize(job.app, returns)
        job.output_path = path
        job.done_clock = self.scheduler.clock
        self.journal.append({"type": "done", "job_id": job.job_id,
                             "output": path, "summary": job.summary,
                             "done_clock": job.done_clock})
        job.state = DONE
        job.note(f"done ({len(output)} output bytes)")
        self.metrics.inc("serve.completions")
        if not self.leases.alive(job.job_id):
            self._collect(job)

    def _finish(self, outcome: JobOutcome) -> None:
        job = self.jobs.get(outcome.name)
        if job is None:
            return
        if outcome.failed:
            job.error = outcome.error
            self.journal.append({"type": "failed", "job_id": job.job_id,
                                 "error": outcome.error})
            job.state = FAILED
            job.note(f"failed: {outcome.error}")
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
        self.journal.append({"type": "gc", "job_id": job.job_id})
        job.state = EXPIRED
        job.output_path = None
        job.note("output garbage-collected (lease expired)")
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
            self.journal.append({"type": "cancel", "job_id": job.job_id})
            job.state = CANCELLED
            job.note("cancelled by owner")
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
                self._stop.wait(self.config.tick_interval)
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


def _default_config():
    from repro.core.config import MimirConfig

    return MimirConfig()
