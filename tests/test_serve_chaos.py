"""Chaos tests: the daemon dies mid-submit and mid-run, and the
journal replay restores queue state and completes every job
bit-identically."""

import pytest

from repro.cluster import Cluster
from repro.ft import SimulatedRankFailure
from repro.ft.injection import ChaosPlan
from repro.mpi import COMET, RankFailedError
from repro.sched.demo import stage_inputs
from repro.serve.catalog import merge_output, run_direct
from repro.serve.daemon import ServeDaemon

NPROCS = 4
WORDS = b"chaos monkey eats the cluster chaos wins chaos\n"


def make_cluster(chaos=None):
    cluster = Cluster(COMET, nprocs=NPROCS, chaos=chaos)
    stage_inputs(cluster, seed=0)
    return cluster


def reference(app, path, params, extra_inputs=()):
    cluster = make_cluster()
    for name, data in extra_inputs:
        cluster.pfs.store(name, data)
    result = cluster.run(lambda env: run_direct(app, env, path, params))
    return merge_output(app, result.returns)


def drain(daemon, limit=64):
    for _ in range(limit):
        busy = daemon.scheduler.queue_depth or any(
            j.state == "running" for j in daemon.jobs.values())
        if not busy:
            return
        daemon.tick()
    raise AssertionError("daemon did not drain")


class TestMidSubmitKill:
    def test_kill_between_journal_append_and_enqueue(self):
        """The mid-submit crash window: the submit record is durable
        but the scheduler never heard of the job.  Replay must requeue
        and complete it - journal-first means the journal wins."""
        chaos = ChaosPlan(seed=3).fail_at("serve:submit:job-0002", -1)
        cluster = make_cluster(chaos)
        daemon = ServeDaemon(cluster)
        daemon.recover()
        daemon.put_input("alice", "words.txt", WORDS)
        first = daemon.submit("alice", "wordcount", "words.txt")
        with pytest.raises(SimulatedRankFailure):
            daemon.submit("alice", "pagerank", "demo/graph.bin",
                          params={"iterations": 2})
        # The daemon is dead; the journaled-but-unqueued job exists in
        # the table yet never reached the scheduler.
        assert "job-0002" in daemon.jobs
        assert daemon.scheduler.queue_depth == 1
        daemon.kill()

        successor = ServeDaemon(cluster)
        assert successor.recover() == []
        assert successor.scheduler.queue_depth == 2
        drain(successor)
        assert successor.jobs[first.job_id].state == "done"
        assert successor.jobs["job-0002"].state == "done"
        assert successor.output(first.job_id) == reference(
            "wordcount", "serve/in/alice/words.txt", {},
            [("serve/in/alice/words.txt", WORDS)])
        assert successor.output("job-0002") == reference(
            "pagerank", "demo/graph.bin", {"iterations": 2})

    def test_torn_submit_record_never_resurrects(self):
        """If the crash tears the submit record itself, the client got
        an error, so replay must *not* recreate the job - no duplicated
        and no ghost work."""
        chaos = ChaosPlan(seed=5, torn_write_rate=1.0,
                          corruptible_prefix="serve/")
        cluster = make_cluster()
        daemon = ServeDaemon(cluster)
        daemon.recover()
        ok = daemon.submit("alice", "wordcount", "demo/words.txt")
        # Arm chaos only now so the earlier submit landed cleanly.
        cluster.chaos = chaos
        with pytest.raises(SimulatedRankFailure):
            daemon.submit("alice", "wordcount", "demo/words.txt")
        daemon.kill()
        cluster.chaos = None

        successor = ServeDaemon(cluster)
        successor.recover()
        assert sorted(successor.jobs) == [ok.job_id]
        drain(successor)
        assert successor.jobs[ok.job_id].state == "done"
        # The seq of the torn submission is reusable: resubmitting
        # yields a fresh id with no collision.
        again = successor.submit("alice", "wordcount", "demo/words.txt")
        drain(successor)
        assert successor.jobs[again.job_id].state == "done"


class TestMidRunKill:
    def test_rank_death_mid_round_recovers_on_restart(self):
        """A rank dies inside an admitted round (the daemon 'process'
        crashes with it).  The successor finds the started-but-
        unfinished job in the journal and re-admits it through
        run_with_recovery; the final artifact matches the direct
        reference bit for bit."""
        victim_tag = "serve:job:job-0001"
        chaos = ChaosPlan(seed=11).fail_at(victim_tag, 2)
        cluster = make_cluster(chaos)
        daemon = ServeDaemon(cluster)
        daemon.recover()
        daemon.put_input("alice", "words.txt", WORDS)
        job = daemon.submit("alice", "wordcount", "words.txt")
        with pytest.raises(RankFailedError):
            drain(daemon)
        assert daemon.jobs[job.job_id].state == "running"
        daemon.kill()

        # The cluster keeps its chaos plan: the scheduled death already
        # fired, so recovery completes.
        successor = ServeDaemon(cluster)
        interrupted = successor.recover()
        assert interrupted == [job.job_id]
        recovered = successor.jobs[job.job_id]
        assert recovered.state == "done"
        assert "run_with_recovery" in "\n".join(recovered.log)
        assert successor.output(job.job_id) == reference(
            "wordcount", "serve/in/alice/words.txt", {},
            [("serve/in/alice/words.txt", WORDS)])

    def test_mixed_queue_survives_mid_run_kill(self):
        """Kill during job 2 of 4; the successor completes all four
        with no duplicated or lost jobs."""
        chaos = ChaosPlan(seed=13).fail_at("serve:job:job-0002", 1)
        cluster = make_cluster(chaos)
        daemon = ServeDaemon(cluster)
        daemon.recover()
        daemon.put_input("t", "words.txt", WORDS)
        specs = [("wordcount", "words.txt", {}),
                 ("pagerank", "demo/graph.bin", {"iterations": 2}),
                 ("wordcount", "demo/words.txt", {}),
                 ("pagerank", "demo/graph.bin", {"iterations": 3})]
        ids = [daemon.submit("t", app, inp, params=p).job_id
               for app, inp, p in specs]
        with pytest.raises(RankFailedError):
            drain(daemon)
        daemon.kill()

        successor = ServeDaemon(cluster)
        successor.recover()
        drain(successor)
        assert sorted(successor.jobs) == sorted(ids)
        for (app, inp, p), job_id in zip(specs, ids):
            assert successor.jobs[job_id].state == "done", \
                (job_id, successor.jobs[job_id].error)
            path = successor.jobs[job_id].input
            assert successor.output(job_id) == reference(
                app, path, p, [("serve/in/t/words.txt", WORDS)])

    def test_worker_thread_records_crash(self):
        """Through the real worker loop: the daemon marks itself
        crashed instead of hanging or swallowing the failure."""
        import time

        chaos = ChaosPlan(seed=17).fail_at("serve:job:job-0001", 0)
        daemon = ServeDaemon(make_cluster(chaos))
        daemon.start()
        try:
            daemon.submit("alice", "wordcount", "demo/words.txt")
            deadline = time.monotonic() + 30.0
            while not daemon.crashed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert daemon.crashed
            assert isinstance(daemon.crash_error, RankFailedError)
            assert daemon.health()["status"] == "crashed"
        finally:
            daemon.stop()
