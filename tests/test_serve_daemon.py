"""The serve daemon: HTTP e2e, quotas over the wire, crash replay,
leases/GC, and cancellation."""

import pytest

from repro.cluster import Cluster
from repro.datasets.graph500 import edges_to_bytes, kronecker_edges
from repro.mpi import COMET
from repro.sched.demo import stage_inputs
from repro.serve.api import ServeAPIError, ServeClient
from repro.serve.catalog import merge_output, run_direct
from repro.serve.daemon import ServeConfig, ServeDaemon, ServeError
from repro.serve.tenants import TenantManager, TenantQuota

NPROCS = 4
WORDS = b"to be or not to be that is the question to be\n"


def make_cluster():
    cluster = Cluster(COMET, nprocs=NPROCS)
    stage_inputs(cluster, seed=0)
    return cluster


def reference_output(app, path, params, *, extra_inputs=()):
    """What a direct ``Cluster.run`` of the same job produces."""
    cluster = make_cluster()
    for name, data in extra_inputs:
        cluster.pfs.store(name, data)
    result = cluster.run(lambda env: run_direct(app, env, path, params))
    return merge_output(app, result.returns)


def test_bfs_hint_param_reaches_the_driver():
    outputs, kv_bytes = [], []
    for params in ({}, {"hint": True}):
        cluster = make_cluster()
        result = cluster.run(lambda env: run_direct(
            "bfs", env, "demo/graph.bin", params))
        outputs.append(merge_output("bfs", result.returns))
        kv_bytes.append(cluster.metrics.totals()["core.map.kv_bytes"])
    assert outputs[0] == outputs[1] and kv_bytes[1] < kv_bytes[0]


def drain(daemon, limit=64):
    for _ in range(limit):
        busy = daemon.scheduler.queue_depth or any(
            j.state == "running" for j in daemon.jobs.values())
        if not busy:
            return
        daemon.tick()
    raise AssertionError("daemon did not drain")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestHTTPEndToEnd:
    @pytest.fixture()
    def service(self):
        cluster = make_cluster()
        daemon = ServeDaemon(cluster)
        port = daemon.start()
        yield daemon, f"http://127.0.0.1:{port}"
        daemon.stop()

    def test_three_tenants_mixed_apps_match_direct_runs(self, service):
        """The tentpole e2e: three tenants submit mixed jobs of most
        catalog apps over HTTP; every output is bit-identical to the
        same job run directly on a fresh cluster."""
        daemon, url = service
        jobs = []
        for tenant, app, inp, params, extra in [
            ("alice", "wordcount", "words.txt", {},
             [("serve/in/alice/words.txt", WORDS)]),
            ("bob", "pagerank", "demo/graph.bin", {"iterations": 3}, []),
            ("carol", "wordcount", "demo/words.txt", {"partial": False},
             []),
            ("alice", "pagerank", "demo/graph.bin", {"iterations": 2}, []),
            ("carol", "wordcount", "demo/words.txt", {}, []),
            ("bob", "octree", "demo/points.bin", {"compress": True}, []),
            ("carol", "components", "demo/graph.bin", {"compress": True},
             []),
            ("alice", "inverted_index", "demo/words.txt", {}, []),
        ]:
            client = ServeClient(url, tenant=tenant)
            if extra:
                client.put_input("words.txt", WORDS)
            sub = client.submit(app, inp, params=params)
            jobs.append((client, sub["job_id"], app, params, extra))

        for client, job_id, app, params, extra in jobs:
            doc = client.wait(job_id, timeout=60.0)
            assert doc["state"] == "done", doc
            served = client.output(job_id)
            path = doc["input"]
            assert served == reference_output(app, path, params,
                                              extra_inputs=extra)

    def test_quota_exceeding_tenant_gets_structured_429(self, service):
        daemon, url = service
        daemon.tenants.quotas["greedy"] = TenantQuota(max_queued=1)
        # Stall admission so the queue cannot drain between submits.
        daemon.scheduler.admission_filter = lambda job, batch: False
        client = ServeClient(url, tenant="greedy")
        client.submit("wordcount", "demo/words.txt")
        with pytest.raises(ServeAPIError) as exc:
            client.submit("wordcount", "demo/words.txt")
        assert exc.value.status == 429
        assert exc.value.body["error"] == "quota-exceeded"
        assert exc.value.body["tenant"] == "greedy"
        assert exc.value.body["quota"] == "max_queued"

    def test_foreign_tenant_cannot_read_jobs(self, service):
        daemon, url = service
        owner = ServeClient(url, tenant="alice")
        thief = ServeClient(url, tenant="mallory")
        sub = owner.submit("wordcount", "demo/words.txt")
        owner.wait(sub["job_id"])
        with pytest.raises(ServeAPIError) as exc:
            thief.status(sub["job_id"])
        assert exc.value.status == 403
        with pytest.raises(ServeAPIError) as exc:
            thief.output(sub["job_id"])
        assert exc.value.status == 403

    def test_unknown_app_and_params_rejected_400(self, service):
        _daemon, url = service
        client = ServeClient(url, tenant="alice")
        with pytest.raises(ServeAPIError) as exc:
            client.submit("sort", "demo/words.txt")
        assert exc.value.status == 400
        with pytest.raises(ServeAPIError) as exc:
            client.submit("wordcount", "demo/words.txt",
                          params={"bogus": 1})
        assert exc.value.status == 400

    @pytest.mark.parametrize("app,inp,params", [
        ("bfs", "demo/graph.bin", {"hint": "false"}),          # bool
        ("bfs", "demo/graph.bin", {"hint": 0}),
        ("pagerank", "demo/graph.bin", {"iterations": "2"}),   # int
        ("pagerank", "demo/graph.bin", {"iterations": True}),
        ("kmeans", "demo/points.bin", {"k": 2.5}),
        ("stream_wordcount", "demo/words.txt", {"window": "10"}),  # float
        ("stream_wordcount", "demo/words.txt", {"window": False}),
    ])
    def test_wrong_typed_param_rejected_400(self, service, app, inp, params):
        daemon, url = service
        with pytest.raises(ServeAPIError) as exc:
            ServeClient(url, tenant="alice").submit(app, inp, params=params)
        assert exc.value.status == 400
        assert "wants" in str(exc.value) and not daemon.jobs

    @pytest.mark.parametrize("app,inp,params", [
        ("kmeans", "demo/points.bin", {"k": 0}),
        ("pagerank", "demo/graph.bin", {"iterations": -1}),
        ("components", "demo/graph.bin", {"iterations": 0}),
        ("stream_wordcount", "demo/words.txt", {"nbatches": 0}),
        ("stream_wordcount", "demo/words.txt", {"window": -1.0}),
        ("stream_wordcount", "demo/words.txt", {"window": 0}),
        # The body holds NaN / Infinity / -Infinity, which Python's json
        # parses: a window that is not finite would count nothing.
        ("stream_wordcount", "demo/words.txt", {"window": float("nan")}),
        ("stream_wordcount", "demo/words.txt", {"window": float("inf")}),
        ("stream_wordcount", "demo/words.txt", {"window": float("-inf")}),
    ])
    def test_out_of_range_param_rejected_400(self, service, app, inp,
                                             params):
        daemon, url = service
        with pytest.raises(ServeAPIError) as exc:
            ServeClient(url, tenant="alice").submit(app, inp, params=params)
        assert exc.value.status == 400
        assert "must be" in str(exc.value) and not daemon.jobs

    def test_json_integer_is_a_float_param(self, service):
        daemon, url = service
        sub = ServeClient(url, tenant="alice").submit(
            "stream_wordcount", "demo/words.txt",
            params={"window": 10, "nbatches": 2})
        assert daemon.jobs[sub["job_id"]].params["window"] == 10

    def test_missing_input_rejected_404(self, service):
        _daemon, url = service
        client = ServeClient(url, tenant="alice")
        with pytest.raises(ServeAPIError) as exc:
            client.submit("wordcount", "no-such-input")
        assert exc.value.status == 404

    def test_health_and_metrics_endpoints(self, service):
        _daemon, url = service
        client = ServeClient(url, tenant="alice")
        sub = client.submit("wordcount", "demo/words.txt")
        client.wait(sub["job_id"])
        health = client.health()
        assert health["status"] == "ok"
        metrics = client.metrics()
        assert metrics["serve.submissions"] >= 1
        assert metrics["serve.completions"] >= 1
        phases = metrics["core.phase.seconds"]  # engine metrics are served too
        assert sum(phases["buckets"]) == phases["count"] > 0
        log = client.job_log(sub["job_id"])
        assert "submitted by alice" in log
        assert "done" in log


class TestCrashReplay:
    def submit_batch(self, daemon, n=4):
        daemon.put_input("alice", "words.txt", WORDS)
        ids = []
        for i in range(n):
            app = "wordcount" if i % 2 == 0 else "pagerank"
            inp = "words.txt" if i % 2 == 0 else "demo/graph.bin"
            params = {} if i % 2 == 0 else {"iterations": 2}
            ids.append(daemon.submit("alice", app, inp,
                                     params=params).job_id)
        return ids

    def finish_and_collect(self, cluster, daemon, ids):
        drain(daemon)
        outputs = {}
        for job_id in ids:
            job = daemon.jobs[job_id]
            assert job.state == "done", (job_id, job.state, job.error)
            outputs[job_id] = daemon.output(job_id)
        return outputs

    def test_kill_before_any_round_replays_full_queue(self):
        cluster = make_cluster()
        daemon = ServeDaemon(cluster)
        daemon.recover()
        ids = self.submit_batch(daemon)
        daemon.kill()  # nothing ever ran

        successor = ServeDaemon(cluster)
        interrupted = successor.recover()
        assert interrupted == []
        assert successor.scheduler.queue_depth == len(ids)
        outputs = self.finish_and_collect(cluster, successor, ids)

        # No duplicated or lost jobs: ids survive exactly once.
        assert sorted(successor.jobs) == sorted(ids)
        reference = ServeDaemon(make_cluster())
        reference.recover()
        ref_ids = self.submit_batch(reference)
        ref_outputs = self.finish_and_collect(None, reference, ref_ids)
        assert list(outputs.values()) == list(ref_outputs.values())

    def test_kill_mid_queue_resumes_without_rerunning_done_work(self):
        cluster = make_cluster()
        daemon = ServeDaemon(cluster)
        daemon.recover()
        ids = self.submit_batch(daemon, n=6)
        daemon.tick()  # one round: some jobs finish, some still queued
        done_before = {j for j in ids if daemon.jobs[j].state == "done"}
        assert done_before and len(done_before) < len(ids)
        outputs_before = {j: daemon.output(j) for j in done_before}
        daemon.kill()

        successor = ServeDaemon(cluster)
        successor.recover()
        for job_id in done_before:
            assert successor.jobs[job_id].state == "done"
        self.finish_and_collect(cluster, successor, ids)
        for job_id, blob in outputs_before.items():
            # Finished work was not recomputed: artifacts untouched.
            assert successor.output(job_id) == blob

    @pytest.mark.parametrize("cut", [1, 9, 33, 101])
    def test_journal_truncated_at_arbitrary_offset_replays(self, cut):
        """Chop ``cut`` bytes off the journal tail (a crash mid-append
        at any offset) - the successor replays the valid prefix and
        completes every job it still knows about."""
        cluster = make_cluster()
        daemon = ServeDaemon(cluster)
        daemon.recover()
        ids = self.submit_batch(daemon)
        daemon.kill()

        blob = cluster.pfs.fetch("serve/journal")
        cluster.pfs.store("serve/journal", blob[:-cut])

        successor = ServeDaemon(cluster)
        successor.recover()
        known = [j for j in ids if j in successor.jobs]
        # A torn tail loses whole submit records from the end only.
        assert known == ids[:len(known)]
        self.finish_and_collect(cluster, successor, known)

    def test_mid_run_kill_readmits_through_recovery_driver(self):
        """A job journaled as started but never finished is re-run via
        run_with_recovery at boot, and its output matches the direct
        reference."""
        cluster = make_cluster()
        daemon = ServeDaemon(cluster)
        daemon.recover()
        daemon.put_input("alice", "words.txt", WORDS)
        job = daemon.submit("alice", "wordcount", "words.txt")
        # Simulate dying inside the round: journal the admission by
        # hand, then kill before any outcome lands.
        daemon.journal.append({"type": "start", "job_id": job.job_id,
                               "round": 1, "start_clock": 0.0})
        daemon.kill()

        successor = ServeDaemon(cluster)
        interrupted = successor.recover()
        assert interrupted == [job.job_id]
        recovered = successor.jobs[job.job_id]
        assert recovered.state == "done"
        assert successor.output(job.job_id) == reference_output(
            "wordcount", "serve/in/alice/words.txt", {},
            extra_inputs=[("serve/in/alice/words.txt", WORDS)])


class TestLeasesAndGC:
    def make(self, ttl=10.0):
        clock = FakeClock()
        cluster = make_cluster()
        daemon = ServeDaemon(cluster, clock=clock,
                             config=ServeConfig(lease_ttl=ttl))
        daemon.recover()
        return daemon, clock

    def test_polling_keeps_the_lease_alive(self):
        daemon, clock = self.make(ttl=10.0)
        job = daemon.submit("alice", "wordcount", "demo/words.txt")
        drain(daemon)
        for _ in range(5):
            clock.now += 8.0
            daemon.status(job.job_id)  # poll = implicit renew
            daemon.tick()
        assert daemon.jobs[job.job_id].state == "done"
        assert daemon.output(job.job_id)

    def test_lapsed_lease_garbage_collects_output(self):
        daemon, clock = self.make(ttl=10.0)
        job = daemon.submit("alice", "wordcount", "demo/words.txt")
        drain(daemon)
        output_path = daemon.jobs[job.job_id].output_path
        assert daemon.cluster.pfs.exists(output_path)

        clock.now = 100.0  # client walked away
        daemon.tick()
        assert daemon.jobs[job.job_id].state == "expired"
        assert not daemon.cluster.pfs.exists(output_path)
        with pytest.raises(ServeError) as exc:
            daemon.output(job.job_id)
        assert exc.value.status == 410
        # Status still answers (job metadata outlives the artifact).
        assert daemon.status(job.job_id)["state"] == "expired"

    def test_explicit_renew_extends_and_gone_after_expiry(self):
        daemon, clock = self.make(ttl=10.0)
        job = daemon.submit("alice", "wordcount", "demo/words.txt")
        drain(daemon)
        clock.now = 8.0
        assert daemon.renew(job.job_id)["lease_remaining"] == \
            pytest.approx(10.0)
        clock.now = 50.0
        daemon.tick()
        with pytest.raises(ServeError) as exc:
            daemon.renew(job.job_id)
        assert exc.value.status == 410

    def test_job_finishing_after_lease_death_is_collected_at_once(self):
        daemon, clock = self.make(ttl=5.0)
        job = daemon.submit("alice", "wordcount", "demo/words.txt")
        clock.now = 100.0  # lease dies while the job still queues
        drain(daemon)
        assert daemon.jobs[job.job_id].state == "expired"
        assert not daemon.cluster.pfs.exists(
            f"serve/out/{job.job_id}")


    def test_replayed_job_keeps_its_ttl(self):
        clock = FakeClock()
        cluster = make_cluster()
        config = ServeConfig(lease_ttl=60.0)
        daemon = ServeDaemon(cluster, clock=clock, config=config)
        daemon.recover()
        job = daemon.submit("alice", "wordcount", "demo/words.txt", ttl=5.0)
        daemon.kill()

        successor = ServeDaemon(cluster, clock=clock, config=config)
        successor.recover()
        assert successor.leases.remaining(job.job_id) <= 5.0


class TestFailedJob:
    def test_failed_job_has_a_done_clock_live_and_replayed(self):
        # Too little memory for a send buffer: every admission OOMs
        # until the job runs out of retries and fails.
        cluster = Cluster(COMET, nprocs=2, memory_limit="4K")
        stage_inputs(cluster, seed=0)
        daemon = ServeDaemon(cluster)
        daemon.recover()
        job = daemon.submit("alice", "wordcount", "demo/words.txt")
        drain(daemon)
        assert job.state == "failed"
        assert job.done_clock is not None
        assert job.done_clock >= job.start_clock
        daemon.kill()

        successor = ServeDaemon(cluster)
        successor.recover()
        assert successor.jobs[job.job_id].to_json() == job.to_json()


class TestInputIsolation:
    def test_reput_graph_serves_the_new_graph(self):
        graphs = [edges_to_bytes(kronecker_edges(scale, seed=seed))
                  for scale, seed in ((5, 1), (6, 2))]
        cluster = make_cluster()
        daemon = ServeDaemon(cluster)
        daemon.recover()
        paths, jobs = [], []
        for graph in graphs:
            paths.append(daemon.put_input("alice", "g.bin", graph))
            jobs.append(daemon.submit("alice", "pagerank", "g.bin",
                                      params={"iterations": 2}))
            drain(daemon)
        assert paths[0] == "serve/in/alice/g.bin" and paths[1] != paths[0]
        assert [job.state for job in jobs] == ["done", "done"]
        for path, graph, job in zip(paths, graphs, jobs):
            assert daemon.output(job.job_id) == reference_output(
                "pagerank", path, {"iterations": 2},
                extra_inputs=[(path, graph)])

    def test_reput_name_replays_to_its_latest_path(self):
        cluster = make_cluster()
        daemon = ServeDaemon(cluster)
        daemon.recover()
        daemon.put_input("alice", "words.txt", WORDS)
        latest = daemon.put_input("alice", "words.txt", WORDS + WORDS)
        daemon.kill()

        successor = ServeDaemon(cluster)
        successor.recover()
        job = successor.submit("alice", "wordcount", "words.txt")
        assert job.input == latest
        assert cluster.pfs.fetch(latest) == WORDS + WORDS


class TestCancellation:
    def make(self):
        cluster = make_cluster()
        daemon = ServeDaemon(cluster)
        daemon.recover()
        return daemon

    def test_cancel_queued_job(self):
        daemon = self.make()
        job = daemon.submit("alice", "wordcount", "demo/words.txt")
        doc = daemon.cancel(job.job_id)
        assert doc["state"] == "cancelled"
        assert daemon.scheduler.queue_depth == 0
        drain(daemon)
        assert daemon.jobs[job.job_id].state == "cancelled"

    def test_cancel_done_job_conflicts(self):
        daemon = self.make()
        job = daemon.submit("alice", "wordcount", "demo/words.txt")
        drain(daemon)
        with pytest.raises(ServeError) as exc:
            daemon.cancel(job.job_id)
        assert exc.value.status == 409

    def test_cancelled_job_stays_cancelled_across_restart(self):
        cluster = make_cluster()
        daemon = ServeDaemon(cluster)
        daemon.recover()
        keep = daemon.submit("alice", "wordcount", "demo/words.txt")
        drop = daemon.submit("alice", "wordcount", "demo/words.txt")
        daemon.cancel(drop.job_id)
        daemon.kill()

        successor = ServeDaemon(cluster)
        successor.recover()
        assert successor.jobs[drop.job_id].state == "cancelled"
        assert successor.scheduler.queue_depth == 1
        drain(successor)
        assert successor.jobs[keep.job_id].state == "done"
        assert successor.jobs[drop.job_id].state == "cancelled"


class TestFairShare:
    def test_one_tenant_cannot_fill_a_round(self):
        cluster = make_cluster()
        daemon = ServeDaemon(
            cluster,
            tenants=TenantManager(
                {"hog": TenantQuota(max_queued=16, max_concurrent=1)}))
        daemon.recover()
        hog_ids = [daemon.submit("hog", "wordcount",
                                 "demo/words.txt").job_id
                   for _ in range(4)]
        other = daemon.submit("other", "wordcount", "demo/words.txt")
        daemon.tick()
        ran = [j for j in daemon.jobs.values() if j.state == "done"]
        hog_ran = [j for j in ran if j.tenant == "hog"]
        assert len(hog_ran) <= 1          # concurrency quota held
        assert daemon.jobs[other.job_id].state == "done"
        drain(daemon)
        assert all(daemon.jobs[j].state == "done" for j in hog_ids)

    def test_aging_eventually_admits_low_priority_work(self):
        cluster = make_cluster()
        daemon = ServeDaemon(
            cluster, tenants=TenantManager(aging_rate=5.0))
        daemon.recover()
        low = daemon.submit("slow", "wordcount", "demo/words.txt",
                            priority=-10)
        for _ in range(6):
            daemon.submit("fast", "wordcount", "demo/words.txt",
                          priority=10)
            daemon.tick()
        drain(daemon)
        assert daemon.jobs[low.job_id].state == "done"
