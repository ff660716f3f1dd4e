"""Self-contained scheduler demo (``python -m repro pipeline``).

Builds a small simulated cluster, stages synthetic inputs, submits a
mix of jobs - any catalog app (WordCount, an iterative PageRank whose
adjacency list is cached, k-means, BFS, ...) or an in-situ analysis -
and drains the queue, printing the admission log and the per-job
timeline lanes.  ``repro report`` drains the same submissions.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.datasets.graph500 import edges_to_bytes, kronecker_edges
from repro.datasets.points import normal_points, points_to_bytes
from repro.datasets.words import uniform_text
from repro.mpi.platforms import PLATFORMS
from repro.obs import Trace, render_job_lanes
from repro.sched.scheduler import SchedJob, Scheduler
from repro.serve.catalog import (
    DEMO_GRAPH,
    DEMO_POINTS,
    DEMO_TEXT,
    SERVE_APPS,
    to_sched_job,
)


def stage_inputs(cluster: Cluster, *, text_bytes: int = 1 << 15,
                 graph_scale: int = 7, npoints: int = 1 << 10,
                 seed: int = 0) -> dict[str, str]:
    """Place the demo datasets on the cluster's PFS (cost-free); returns
    every catalog app's input, and ``insitu``'s (it reads none)."""
    cluster.pfs.store(DEMO_TEXT, uniform_text(text_bytes, seed=seed))
    cluster.pfs.store(DEMO_GRAPH, edges_to_bytes(
        kronecker_edges(graph_scale, edgefactor=8, seed=seed)))
    cluster.pfs.store(DEMO_POINTS, points_to_bytes(
        normal_points(npoints, seed=seed)))
    return {**{app: row.demo_input for app, row in SERVE_APPS.items()},
            "insitu": ""}


#: Row params the demo overrides: k-means stops after 5 rounds (its row
#: allows 10) to keep a demo drain short.  Every other row runs at its
#: defaults, so components runs to convergence.
DEMO_PARAMS = {"kmeans": {"iterations": 5}}


def make_job(app: str, paths: dict[str, str], *,
             priority: int = 0, footprint=None,
             iterations: int | None = None) -> SchedJob:
    """The scheduler job for one demo app: a catalog app at its row's
    defaults and :data:`DEMO_PARAMS` (``iterations``, if given,
    overrides both), or the in-situ analysis."""
    if app in SERVE_APPS:
        params = dict(DEMO_PARAMS.get(app, {}))
        if iterations is not None:
            params["iterations"] = iterations
        return to_sched_job(app, app, paths[app], params,
                            priority=priority, footprint=footprint)
    if app != "insitu":
        raise ValueError(f"unknown demo app {app!r}; pick from "
                         f"{', '.join(SERVE_APPS)} or insitu")
    from repro.insitu.pipeline import InSituAnalytics
    from repro.insitu.simulation import ParticleSimulation

    def run_insitu(env, ctx):
        sim = ParticleSimulation(env, 512, seed=1)
        analytics = InSituAnalytics(env, sim, runner=ctx.runner)
        dense = 0
        for _step in range(3):
            dense += len(analytics.analyse_step().dense_octants)
        return dense
    return SchedJob(name=app, fn=run_insitu, priority=priority,
                    footprint=footprint)


def submit_demo(apps: "list[str] | None" = None, *, nprocs: int = 4,
                platform: str = "comet",
                memory_limit: "int | str | None" = "512K",
                ) -> tuple[list[str], Scheduler]:
    """The demo cluster (keeping its memory timeline and a trace),
    inputs staged, and a scheduler holding ``apps`` (default WordCount +
    PageRank) in priority order."""
    apps = list(apps) if apps else ["wordcount", "pagerank"]
    cluster = Cluster(PLATFORMS[platform], nprocs,
                      memory_limit=memory_limit, keep_timeline=True,
                      trace=Trace())
    paths = stage_inputs(cluster)
    scheduler = Scheduler(cluster)
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
        print(render_job_lanes(scheduler.cluster.trace))
    return 0 if all(o.completed for o in report.outcomes) else 1
