"""Replay parity: a daemon killed after any step of a scripted session
comes back, from its journal alone, as the same service."""

import pytest

from repro.cluster import Cluster
from repro.ft.injection import ChaosPlan
from repro.mpi import COMET, RankFailedError
from repro.sched.demo import stage_inputs
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.journal import ServeJournal
from repro.serve.tenants import TenantManager, TenantQuota

NPROCS = 2
TTL = 10.0

#: The scripted session: a wordcount/pagerank mix over the demo
#: inputs, one cancel of a queued job, and one lease GC (the clock
#: jumps past every lease, then a tick sweeps).
STEPS = [
    ("submit", "alice", "wordcount", "demo/words.txt", {}),
    ("submit", "bob", "pagerank", "demo/graph.bin", {"iterations": 2}),
    ("tick",),
    ("submit", "alice", "wordcount", "demo/words.txt", {"partial": False}),
    ("submit", "bob", "wordcount", "demo/words.txt", {}),
    ("cancel", "job-0004"),
    ("tick",),
    ("expire",),
    ("submit", "carol", "pagerank", "demo/graph.bin", {"iterations": 3}),
    ("tick",),
]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def new_daemon(cluster, clock):
    daemon = ServeDaemon(cluster, clock=clock,
                         config=ServeConfig(lease_ttl=TTL))
    daemon.recover()
    return daemon


def run_step(daemon, clock, step):
    kind, *args = step
    if kind == "submit":
        tenant, app, path, params = args
        daemon.submit(tenant, app, path, params=dict(params))
    elif kind == "cancel":
        daemon.cancel(args[0])
    elif kind == "expire":
        clock.now += 10 * TTL
        daemon.tick()
    else:
        daemon.tick()


def snapshot(daemon):
    """What a daemon serves at one instant: every job's document and
    log, and the scheduler's clock and round count."""
    return {"jobs": {job_id: (job.to_json(), list(job.log))
                     for job_id, job in daemon.jobs.items()},
            "clock": daemon.scheduler.clock,
            "rounds": daemon.scheduler.rounds_run}


def scripted_session():
    """Run :data:`STEPS`, each on a new daemon: the daemon that ran a
    step is killed and a successor replays the journal.  Returns one
    ``(killed, successor, records)`` per kill point: two snapshots and
    the journal records the successor replayed."""
    clock = FakeClock()
    cluster = Cluster(COMET, nprocs=NPROCS)
    stage_inputs(cluster, seed=0)
    daemon = new_daemon(cluster, clock)
    pairs = []
    for step in STEPS:
        run_step(daemon, clock, step)
        daemon.kill()
        records = ServeJournal(cluster.pfs).open()
        successor = new_daemon(cluster, clock)
        pairs.append((snapshot(daemon), snapshot(successor), records))
        daemon = successor
    return pairs


@pytest.fixture(scope="module")
def kill_points():
    return scripted_session()


def test_session_covers_every_transition(kill_points):
    final = kill_points[-1][1]["jobs"]
    states = sorted(doc["state"] for doc, _log in final.values())
    assert states == ["cancelled", "done", "expired", "expired",
                      "expired"]


def test_successor_serves_the_same_job_documents(kill_points):
    for step, (killed, successor, _records) in zip(STEPS, kill_points):
        killed, successor = killed["jobs"], successor["jobs"]
        assert sorted(successor) == sorted(killed), step
        for job_id, (doc, _log) in killed.items():
            if doc["state"] == "running":
                continue
            assert successor[job_id][0] == doc, (step, job_id)


def journaled_clocks(records):
    return [record[key] for record in records
            for key in ("submit_clock", "start_clock", "done_clock")
            if key in record]


def assert_causal(doc):
    if doc["queue_latency"] is not None:
        assert doc["queue_latency"] >= 0, doc
    if doc["done_clock"] is not None:
        assert doc["done_clock"] >= doc["start_clock"], doc


def assert_log_extends(killed_log, log):
    """``log`` starts with the transition lines the killed daemon wrote
    (its own ``replay:`` lines are not journaled) and adds only
    ``replay:`` lines after them."""
    written = [line for line in killed_log
               if not line.startswith("replay: ")]
    assert log[:len(written)] == written
    assert all(line.startswith("replay: ") for line in log[len(written):])


def test_successor_keeps_the_clock_and_round_numbers(kill_points):
    for step, (_killed, successor, records) in zip(STEPS, kill_points):
        assert successor["clock"] >= max(journaled_clocks(records)), step
        rounds = [r["round"] for r in records if r["type"] == "start"]
        # The next admission is round ``rounds + 1``.
        assert successor["rounds"] >= max(rounds, default=0), step


def test_successor_logs_extend_the_killed_daemons(kill_points):
    for killed, successor, _records in kill_points:
        for job_id, (_doc, log) in killed["jobs"].items():
            assert_log_extends(log, successor["jobs"][job_id][1])


@pytest.fixture(scope="module")
def interrupted():
    """A rank dies in round 2; the successor finishes the cut-down job
    through ``run_with_recovery`` (whose time advances the clock) and
    then runs the job that was queued behind it.  Returns the killed
    daemon's snapshot, the journal it left, the successor's recovered
    ids and clock, and the successor after one more tick."""
    chaos = ChaosPlan(seed=11).fail_at("serve:job:job-0002", 1)
    tenants = TenantManager({"alice": TenantQuota(max_concurrent=1)})
    cluster = Cluster(COMET, nprocs=NPROCS, chaos=chaos)
    stage_inputs(cluster, seed=0)
    daemon = ServeDaemon(cluster, tenants=tenants)
    daemon.recover()
    daemon.submit("alice", "wordcount", "demo/words.txt")
    daemon.tick()
    daemon.submit("alice", "pagerank", "demo/graph.bin",
                  params={"iterations": 2})
    daemon.submit("alice", "wordcount", "demo/words.txt")
    with pytest.raises(RankFailedError):
        daemon.tick()
    daemon.kill()
    records = ServeJournal(cluster.pfs).open()
    successor = ServeDaemon(cluster, tenants=tenants)
    recovered = successor.recover()
    clock = successor.scheduler.clock
    successor.tick()
    return snapshot(daemon), records, recovered, clock, successor


def test_latencies_are_causal(kill_points, interrupted):
    _killed, _records, _recovered, _clock, successor = interrupted
    docs = [job.to_json() for job in successor.jobs.values()]
    for killed, after, _records in kill_points:
        docs += [doc for doc, _log in [*killed["jobs"].values(),
                                       *after["jobs"].values()]]
    for doc in docs:
        assert_causal(doc)


def test_interrupted_job_is_finished_after_the_journaled_clock(
        interrupted):
    killed, records, recovered, clock, successor = interrupted
    assert killed["jobs"]["job-0002"][0]["state"] == "running"
    assert recovered == ["job-0002"]
    assert clock > max(journaled_clocks(records))
    assert successor.jobs["job-0003"].round == 3
    assert all(job.state == "done" for job in successor.jobs.values())
    log = successor.jobs["job-0002"].log
    assert_log_extends(killed["jobs"]["job-0002"][1], log[:-1])
    assert log[-1].startswith("done (")


def test_a_journal_in_the_older_record_shapes_replays():
    """A ``done`` record without ``bytes`` (journals written before the
    field existed) still replays, clock and round included."""
    cluster = Cluster(COMET, nprocs=NPROCS)
    journal = ServeJournal(cluster.pfs)
    journal.open()
    for record in [
            {"type": "submit", "job_id": "job-0001", "seq": 1,
             "tenant": "alice", "app": "wordcount",
             "input": "demo/words.txt", "params": {}, "priority": 0,
             "footprint": None, "submit_clock": 0.25},
            {"type": "start", "job_id": "job-0001", "round": 4,
             "start_clock": 0.25},
            {"type": "done", "job_id": "job-0001",
             "output": "serve/out/job-0001", "summary": {},
             "done_clock": 0.5}]:
        journal.append(record)
    daemon = ServeDaemon(cluster)
    assert daemon.recover() == []
    assert daemon.jobs["job-0001"].state == "done"
    assert daemon.jobs["job-0001"].log == [
        "submitted by alice (app=wordcount, input=demo/words.txt)",
        "admitted into round 4", "done (? output bytes)"]
    assert (daemon.scheduler.clock, daemon.scheduler.rounds_run) == (0.5, 4)
