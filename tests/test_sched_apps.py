"""Services change what an app's Plan costs, never what it computes."""

import hashlib
from dataclasses import replace
from functools import partial

import pytest

from repro.apps.bfs import bfs_plan
from repro.apps.components import components_plan
from repro.apps.inverted_index import inverted_index_plan
from repro.apps.kmeans import kmeans_plan
from repro.apps.octree import octree_plan
from repro.apps.pagerank import pagerank_plan
from repro.apps.wordcount import wordcount_plan
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.ft.checkpoint import CheckpointManager
from repro.insitu.pipeline import InSituAnalytics
from repro.insitu.simulation import ParticleSimulation
from repro.mpi import COMET
from repro.sched import PlanRunner, SchedJob, Scheduler, StageCache
from repro.sched.demo import stage_inputs

CFG = MimirConfig(page_size=2048, comm_buffer_size=2048,
                  input_chunk_size=512)

APPS = {
    "wordcount": lambda env, config, **kw: wordcount_plan(
        env, "demo/words.txt", config, hint=True, partial=True,
        compress=True, collect=True, **kw),
    "bfs": lambda env, config, **kw: bfs_plan(
        env, "demo/graph.bin", config, compress=True, keep_parents=True, **kw),
    "kmeans": lambda env, config, **kw: kmeans_plan(
        env, "demo/points.bin", 4, config, max_iterations=5, **kw),
    "octree": lambda env, config, **kw: octree_plan(
        env, "demo/points.bin", config, density=0.01, max_level=4,
        hint=True, compress=True, partial=True, **kw),
    "components": lambda env, config, **kw: components_plan(
        env, "demo/graph.bin", config, compress=True, **kw),
    "inverted_index": lambda env, config, **kw: inverted_index_plan(
        env, "demo/docs/", config, compress=True, **kw),
}


def view(result):
    """Every field of a result dataclass, comparable with ``==``."""
    return [v.tolist() if hasattr(v, "tolist") else v
            for v in vars(result).values()]


def make_cluster(nprocs=3):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    stage_inputs(cluster, text_bytes=1 << 12, graph_scale=5, npoints=256)
    text = cluster.pfs.fetch("demo/words.txt")
    for i in range(5):
        cluster.pfs.store(f"demo/docs/{i}.txt", text[i * 300:(i + 2) * 300])
    return cluster


def launch(cluster, app, services=lambda env: {}):
    """Outputs and elapsed of ``app`` under ``PlanRunner(**services(env))``."""
    result = cluster.run(lambda env: view(APPS[app](
        env, CFG, runner=partial(PlanRunner, env, **services(env)))))
    return result.returns, result.elapsed


@pytest.mark.parametrize("app", APPS)
class TestServicesIdentity:
    def test_no_services_repeats_exactly(self, app):
        cluster = make_cluster()
        assert launch(cluster, app) == launch(cluster, app)

    def test_stage_cache_attached(self, app):
        cluster = make_cluster()
        caches = [StageCache(rank) for rank in range(cluster.nprocs)]
        cached, _ = launch(cluster, app,
                           lambda env: {"cache": caches[env.comm.rank]})
        assert cached == launch(cluster, app)[0]
        # BFS and components cache their partition stage; they alone
        # leave one behind.
        assert [len(c.entries) for c in caches] == \
            [int(app in ("bfs", "components"))] * cluster.nprocs

    def test_under_scheduler_context(self, app):
        cluster = make_cluster()
        scheduler = Scheduler(cluster)
        scheduler.submit(SchedJob(app, config=CFG, fn=lambda env, ctx: view(
            APPS[app](env, ctx.config, runner=ctx.runner))))
        assert scheduler.run().outcome(app).returns == launch(cluster, app)[0]

    def test_restored_from_stage_checkpoint(self, app):
        cluster = make_cluster()
        first, again = (launch(cluster, app, lambda env: {
            "checkpoint": CheckpointManager(env, f"apps-{app}",
                                            nonce="fixed")})[0]
            for _attempt in range(2))
        assert first == again == launch(cluster, app)[0]


class TestEvictedBetweenJobs:
    def test_codec_stage_reloads_whole_for_the_second_job(self):
        """Admission evicts the cached, codec-frozen partition stage to
        make room for the second job, which reloads every edge of it."""
        cluster = Cluster(COMET, nprocs=2, memory_limit="256K")
        stage_inputs(cluster, graph_scale=5)
        scheduler = Scheduler(cluster)
        config = replace(CFG, codec="dedup+zlib")

        def bfs(env, ctx):
            return view(APPS["bfs"](env, ctx.config, runner=ctx.runner))

        scheduler.submit(SchedJob("first", bfs, config=config))
        first = scheduler.run().outcome("first").returns
        # A declared footprint of the whole limit: nothing may stay,
        # and past the admission budget the job runs degraded.
        scheduler.submit(SchedJob("second", bfs, config=config,
                                  footprint="256K"))
        second = scheduler.run().outcome("second")
        assert second.degraded and second.returns == first
        assert [(c.stats.evictions, c.stats.reloads)
                for c in scheduler.caches] == [(1, 1), (1, 1)]
        assert first == cluster.run(
            lambda env: view(APPS["bfs"](env, config))).returns


def score_bits(result):
    """A PageRank result with every float as ``float.hex``."""
    return (result.iterations,
            [(v, score.hex()) for v, score in result.ranks.items()],
            result.final_delta.hex())


class TestPageRank:
    @pytest.mark.parametrize("opts", [
        {}, {"hint": True}, {"hint": True, "compress": True},
    ])
    @pytest.mark.parametrize("cached", [True, False])
    def test_scores_bitwise_identical(self, opts, cached):
        returns = make_cluster().run(lambda env: score_bits(pagerank_plan(
            env, "demo/graph.bin", CFG, iterations=3, **opts,
            runner=partial(PlanRunner, env, cache=StageCache(env.comm.rank))
            if cached else None))).returns
        # Recorded from the dict-driven direct driver PageRank used to
        # have; the combiner changes the summation order.
        assert hashlib.sha1(repr(returns).encode()).hexdigest() == (
            "c736e7b5610213aa5367d4aedadf30d467fafa04"
            if opts.get("compress") else
            "a397cfd9d8fde5ab135a8d905615703a2ef14529")


class TestInSitu:
    def test_density_summaries_pinned(self):
        def job(env):
            analytics = InSituAnalytics(
                env, ParticleSimulation(env, 256, seed=2), config=CFG)
            return [sorted(analytics.analyse_step().dense_octants.items())
                    for _step in range(3)]

        returns = Cluster(COMET, nprocs=3, memory_limit=None).run(job).returns
        # Recorded from the direct ``Mimir`` path this class used to have.
        assert hashlib.sha1(repr(returns).encode()).hexdigest() == \
            "74cb7ee1b4892961b7bcda1b478fab2a13b95d32"
