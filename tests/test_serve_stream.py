"""Serve-side streaming surfaces: incremental log fetch, the
``--follow`` client loop, autoscaling in the worker loop, and the
``stream_wordcount`` catalog app."""

import pytest

from repro.cluster import Cluster
from repro.sched import ScalingPolicy
from repro.mpi import COMET
from repro.serve.api import ServeClient
from repro.serve.catalog import merge_output, run_direct
from repro.serve.daemon import ServeDaemon, ServeError

NPROCS = 2
WORDS = (b"the quick brown fox\njumps over the lazy dog\n"
         b"the fox again\n" * 3)


def make_daemon(**kwargs):
    cluster = Cluster(COMET, nprocs=NPROCS)
    return cluster, ServeDaemon(cluster, **kwargs)


def drain(daemon, limit=64):
    for _ in range(limit):
        busy = daemon.scheduler.queue_depth or any(
            j.state == "running" for j in daemon.jobs.values())
        if not busy:
            return
        daemon.tick()
    raise AssertionError("daemon did not drain")


class TestIncrementalLogFetch:
    def test_offset_cursor_walks_the_log(self):
        cluster, daemon = make_daemon()
        daemon.recover()
        daemon.put_input("t1", "words", WORDS)
        job = daemon.submit("t1", "wordcount", "words")

        first = daemon.job_log_since(job.job_id, 0, "t1")
        assert first["lines"] and first["state"] == "queued"
        cursor = first["next_offset"]

        drain(daemon)
        second = daemon.job_log_since(job.job_id, cursor, "t1")
        assert second["state"] == "done"
        assert second["next_offset"] > cursor
        # No overlap: the two fetches concatenate to the full log.
        full = daemon.job_log(job.job_id, "t1")
        assert "\n".join(first["lines"] + second["lines"]) + "\n" == full
        # A drained cursor returns no lines and stands still.
        third = daemon.job_log_since(job.job_id, second["next_offset"], "t1")
        assert third["lines"] == []
        assert third["next_offset"] == second["next_offset"]

    def test_offset_clamps_and_counts_fetches(self):
        cluster, daemon = make_daemon()
        daemon.recover()
        daemon.put_input("t1", "words", WORDS)
        job = daemon.submit("t1", "wordcount", "words")
        doc = daemon.job_log_since(job.job_id, 9999, "t1")
        assert doc["lines"] == []
        assert daemon.job_log_since(job.job_id, -5, "t1")["lines"]
        assert daemon.cluster.metrics.totals()["serve.log.fetches"] == 2

    def test_foreign_tenant_cannot_read_log(self):
        cluster, daemon = make_daemon()
        daemon.recover()
        daemon.put_input("t1", "words", WORDS)
        job = daemon.submit("t1", "wordcount", "words")
        with pytest.raises(ServeError):
            daemon.job_log_since(job.job_id, 0, "t2")


class TestFollowOverHTTP:
    @pytest.fixture()
    def service(self):
        cluster, daemon = make_daemon()
        port = daemon.start()
        yield daemon, f"http://127.0.0.1:{port}"
        daemon.stop()

    def test_follow_streams_every_line_once(self, service):
        daemon, url = service
        client = ServeClient(url, tenant="t1")
        client.put_input("words", WORDS)
        job_id = client.submit("wordcount", "words")["job_id"]
        lines = list(client.follow_log(job_id, timeout=60.0))
        assert lines == client.job_log(job_id).splitlines()
        assert any(line.startswith("done") for line in lines)

    def test_bad_offset_is_a_400(self, service):
        from repro.serve.api import ServeAPIError

        daemon, url = service
        client = ServeClient(url, tenant="t1")
        client.put_input("words", WORDS)
        job_id = client.submit("wordcount", "words")["job_id"]
        with pytest.raises(ServeAPIError) as err:
            client._json("GET", f"/jobs/{job_id}/log?offset=nope")
        assert err.value.status == 400


class TestAutoscaling:
    def test_deep_queue_scales_the_gang_and_counts_events(self):
        cluster, daemon = make_daemon(
            scaling=ScalingPolicy(max_ranks=8))
        daemon.recover()
        daemon.put_input("t1", "words", WORDS)
        for _ in range(6):
            daemon.submit("t1", "wordcount", "words")
        drain(daemon)
        assert daemon.scheduler.scale_events, "policy never consulted"
        totals = daemon.cluster.metrics.totals()
        assert totals["serve.autoscale.events"] == \
            len(daemon.scheduler.scale_events)
        assert all(j.state == "done" for j in daemon.jobs.values())

    def test_no_policy_means_no_events(self):
        cluster, daemon = make_daemon()
        daemon.recover()
        daemon.put_input("t1", "words", WORDS)
        daemon.submit("t1", "wordcount", "words")
        drain(daemon)
        assert "serve.autoscale.events" not in daemon.cluster.metrics.totals()


class TestStreamWordCountApp:
    def test_streamed_app_matches_batch_app_bit_for_bit(self):
        cluster, daemon = make_daemon()
        daemon.recover()
        daemon.put_input("t1", "words", WORDS)
        streamed = daemon.submit("t1", "stream_wordcount", "words",
                                 params={"window": 10, "nbatches": 3})
        batch = daemon.submit("t1", "wordcount", "words")
        drain(daemon)
        assert daemon.jobs[streamed.job_id].state == "done"
        out_stream = cluster.pfs.fetch(
            daemon.jobs[streamed.job_id].output_path)
        out_batch = cluster.pfs.fetch(daemon.jobs[batch.job_id].output_path)
        assert out_stream == out_batch
        summary = daemon.jobs[streamed.job_id].summary
        assert summary["windows"] >= 1

    def test_direct_run_matches_scheduled_run(self):
        # The recovery path (run_direct) must reproduce the scheduler
        # path byte for byte - same stages, no ctx services.
        cluster, daemon = make_daemon()
        daemon.recover()
        daemon.put_input("t1", "words", WORDS)
        job = daemon.submit("t1", "stream_wordcount", "words",
                            params={"window": 10, "nbatches": 3})
        drain(daemon)
        served = cluster.pfs.fetch(daemon.jobs[job.job_id].output_path)

        ref_cluster = Cluster(COMET, nprocs=NPROCS)
        ref_cluster.pfs.store("words", WORDS)
        result = ref_cluster.run(lambda env: run_direct(
            "stream_wordcount", env, "words",
            {"window": 10, "nbatches": 3}))
        assert merge_output("stream_wordcount", result.returns) == served

    def test_each_tenant_streams_its_own_input(self):
        # Both tenants' inputs are named "docs"; the stage cache must
        # not serve bob the batch counts of alice's stream.
        docs = {"alice": b"alpha beta\nalpha delta\nalpha gamma\n",
                "bob": WORDS}
        params = {"window": 10, "nbatches": 3}
        cluster, daemon = make_daemon()
        daemon.recover()
        jobs = {}
        for tenant, data in docs.items():
            path = daemon.put_input(tenant, "docs", data)
            jobs[tenant] = daemon.submit(tenant, "stream_wordcount", "docs",
                                         params=params)
            drain(daemon)
        ref_cluster = Cluster(COMET, nprocs=NPROCS)
        ref_cluster.pfs.store(path, docs["bob"])
        result = ref_cluster.run(lambda env: run_direct(
            "stream_wordcount", env, path, params))
        assert daemon.output(jobs["bob"].job_id, "bob") == \
            merge_output("stream_wordcount", result.returns)

    def test_unknown_param_rejected(self):
        cluster, daemon = make_daemon()
        daemon.recover()
        daemon.put_input("t1", "words", WORDS)
        with pytest.raises(ValueError):
            daemon.submit("t1", "stream_wordcount", "words",
                          params={"bogus": 1})
