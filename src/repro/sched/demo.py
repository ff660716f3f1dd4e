"""Self-contained scheduler demo (``python -m repro.sched``).

Builds a small simulated cluster, stages synthetic inputs, submits a
mix of jobs - WordCount, an iterative PageRank whose adjacency list is
cached, and optionally k-means / BFS / an in-situ analysis - and
drains the queue, printing the admission log and the per-job timeline
lanes.  The same adapters back the ``repro pipeline`` CLI subcommand.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.datasets.graph500 import edges_to_bytes, kronecker_edges
from repro.datasets.points import normal_points, points_to_bytes
from repro.datasets.words import uniform_text
from repro.mpi.platforms import PLATFORMS
from repro.obs import Trace, render_job_lanes
from repro.sched.scheduler import SchedJob, Scheduler

#: Demo job names mapped to builders; see :func:`make_job`.
DEMO_APPS = ("wordcount", "pagerank", "kmeans", "bfs", "insitu")


def stage_inputs(cluster: Cluster, *, text_bytes: int = 1 << 15,
                 graph_scale: int = 7, npoints: int = 1 << 10,
                 seed: int = 0) -> dict[str, str]:
    """Place the demo datasets on the cluster's PFS (cost-free)."""
    cluster.pfs.store("demo/words.txt", uniform_text(text_bytes, seed=seed))
    cluster.pfs.store("demo/graph.bin", edges_to_bytes(
        kronecker_edges(graph_scale, edgefactor=8, seed=seed)))
    cluster.pfs.store("demo/points.bin", points_to_bytes(
        normal_points(npoints, seed=seed)))
    return {"wordcount": "demo/words.txt", "pagerank": "demo/graph.bin",
            "bfs": "demo/graph.bin", "kmeans": "demo/points.bin",
            "insitu": ""}


def make_job(app: str, paths: dict[str, str], *,
             priority: int = 0, footprint=None,
             iterations: int = 5) -> SchedJob:
    """A :class:`SchedJob` adapter for one demo application."""
    # Plan-driven apps run through the service catalog:
    # app -> (catalog params, payload field the job returns).
    catalog_jobs = {
        "wordcount": ({"hint": True, "partial": True}, "unique"),
        "pagerank": ({"hint": True, "iterations": iterations}, "iterations"),
        "kmeans": ({"k": 4, "iterations": iterations}, "iterations"),
        "bfs": ({}, "levels"),
    }
    if app in catalog_jobs:
        params, field = catalog_jobs[app]

        def fn(env, ctx):
            from repro.serve.catalog import run_app

            return run_app(app, env, paths[app], params, ctx=ctx)[field]
    elif app == "insitu":
        from repro.insitu.pipeline import InSituAnalytics
        from repro.insitu.simulation import ParticleSimulation

        def run_insitu(env, ctx):
            sim = ParticleSimulation(env, 512, seed=1)
            analytics = InSituAnalytics(env, sim, runner=ctx.runner)
            dense = 0
            for _step in range(3):
                dense += len(analytics.analyse_step().dense_octants)
            return dense
        fn = run_insitu
    else:
        raise ValueError(f"unknown demo app {app!r}; "
                         f"pick from {DEMO_APPS}")
    return SchedJob(name=app, fn=fn, priority=priority,
                    footprint=footprint)


def submit_demo(apps: "list[str] | None" = None, *, nprocs: int = 4,
                platform: str = "comet",
                memory_limit: "int | str | None" = "512K",
                ) -> tuple[list[str], Scheduler]:
    """The demo cluster, inputs staged, and a traced scheduler holding
    ``apps`` (default WordCount + PageRank) in priority order."""
    apps = list(apps) if apps else ["wordcount", "pagerank"]
    cluster = Cluster(PLATFORMS[platform], nprocs,
                      memory_limit=memory_limit)
    paths = stage_inputs(cluster)
    scheduler = Scheduler(cluster, trace=Trace())
    for i, app in enumerate(apps):
        scheduler.submit(make_job(app, paths, priority=len(apps) - i))
    return apps, scheduler


def run_demo(apps: "list[str] | None" = None, *, nprocs: int = 4,
             platform: str = "comet",
             memory_limit: "int | str | None" = "512K",
             verbose: bool = True) -> int:
    """Submit ``apps`` (see :func:`submit_demo`) and drain them."""
    _apps, scheduler = submit_demo(apps, nprocs=nprocs, platform=platform,
                                   memory_limit=memory_limit)
    report = scheduler.run()
    if verbose:
        print(report.render_log())
        print()
        print(render_job_lanes(scheduler.trace))
    return 0 if all(o.completed for o in report.outcomes) else 1
