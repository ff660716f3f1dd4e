"""The service's job catalog: apps a client may submit by name.

An HTTP client cannot ship a Python callable, so the service runs a
closed catalog of named applications (the RPC-style "run job" shape: a
mapper/reducer named by the request, inputs by path).  The catalog is
one table, :data:`SERVE_APPS`, one row per app: the demo dataset it
runs on, its params (each with a default, whose type it takes, and
whether it must be positive), how to run it on one rank - under the
scheduler (``ctx`` flavour, wired into the stage cache / trace /
admission services) or *direct* on a bare
:class:`~repro.cluster.RankEnv` (the ``run_with_recovery`` flavour
used when a crashed daemon re-admits an interrupted job, and what
tests compare against) - how to merge the per-rank payloads into one
deterministic output artifact (the bytes ``fetch-output`` serves,
bit-identical for identical inputs no matter which path executed the
job), and how to summarize a finished job.

Entries are **pure functions of (app, input path, params)**: a journal
replay rebuilds exactly the job that was submitted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.cluster import RankEnv
from repro.sched.executor import PlanRunner
from repro.sched.scheduler import SchedJob


@dataclass(frozen=True)
class Param:
    """A param's default (its type is the default's) and whether a
    submitted value must be ``> 0``."""

    default: Any
    positive: bool = False


#: The demo datasets (``repro.sched.demo.stage_inputs``, ``repro serve
#: --stage-demo``); every row names the one it runs on.
DEMO_TEXT = "demo/words.txt"
DEMO_GRAPH = "demo/graph.bin"
DEMO_POINTS = "demo/points.bin"


@dataclass(frozen=True)
class ServeApp:
    """One catalog row: ``demo_input`` is the demo dataset it runs on;
    ``run(env, path, config, runner, checkpoint, **params)`` returns the
    rank's JSON payload (``runner`` builds a :class:`PlanRunner` with
    the launch's services and ``checkpoint``); ``merge`` and
    ``summarize`` fold the per-rank payloads."""

    demo_input: str
    params: dict[str, Param]
    run: Callable[..., Any]
    merge: Callable[[list[Any]], bytes]
    summarize: Callable[[list[Any]], dict[str, Any]]


# ------------------------------------------------------------- run

def _run_wordcount(env, path, config, runner, _checkpoint, **params):
    from repro.apps.wordcount import wordcount_plan

    result = wordcount_plan(env, path, config, runner=runner, collect=True,
                            **params)
    return {"counts": {k.decode("latin-1"): v
                       for k, v in result.counts.items()},
            "unique": result.unique_words,
            "total": result.total_words}


def _run_pagerank(env, path, config, runner, _checkpoint, **params):
    from repro.apps.pagerank import pagerank_plan

    result = pagerank_plan(env, path, config, runner=runner, **params)
    return {"ranks": {str(node): score
                      for node, score in result.ranks.items()},
            "iterations": result.iterations,
            "final_delta": result.final_delta}


def _run_kmeans(env, path, config, runner, _checkpoint, *, k,
                iterations, seed):
    from repro.apps.kmeans import kmeans_plan

    result = kmeans_plan(env, path, k, config, runner=runner,
                         max_iterations=iterations, seed=seed)
    return {"iterations": result.iterations,
            "sizes": list(result.sizes),
            "inertia": result.inertia,
            "centroids": [[float(x) for x in row]
                          for row in result.centroids]}


def _run_bfs(env, path, config, runner, _checkpoint, **params):
    from repro.apps.bfs import bfs_plan

    result = bfs_plan(env, path, config, runner=runner, **params)
    return {"root": result.root, "levels": result.levels,
            "visited": result.visited_local}


def _run_octree(env, path, config, runner, _checkpoint, **params):
    from repro.apps.octree import octree_plan

    result = octree_plan(env, path, config, runner=runner, **params)
    return {"levels": result.levels_run, "clusters": result.clusters}


def _run_components(env, path, config, runner, _checkpoint, *, iterations,
                    **params):
    from repro.apps.components import components_plan

    result = components_plan(env, path, config, runner=runner,
                             max_iterations=iterations, **params)
    return {"labels": {str(v): label for v, label in result.labels.items()},
            "iterations": result.iterations}


def _run_inverted_index(env, path, config, runner, _checkpoint, **params):
    from repro.apps.inverted_index import inverted_index_plan

    # The input path is the document prefix.
    result = inverted_index_plan(env, path, config, runner=runner, **params)
    docs = result.documents
    return {"index": {word.decode("latin-1"): ",".join(docs[d] for d in ids)
                      for word, ids in result.index.items()},
            "documents": len(docs)}


def _run_stream_wordcount(env, path, config, runner, checkpoint, *,
                          window, nbatches):
    from repro.stream.runner import StreamRunner
    from repro.stream.scenarios import StreamWordCount, doc_stream
    from repro.stream.windows import TumblingWindows

    # Replay the staged text as a document trickle: the input lines
    # split into ``nbatches`` micro-batches, one document per line,
    # windowed over virtual event time.  Checkpointed window state
    # flows through ``checkpoint`` on the recovery path, so a crashed
    # daemon resumes the stream from the last completed window rather
    # than batch zero; the window state is all it checkpoints.  A JSON
    # integer ``window`` is still a float.
    window = float(window)
    lines = [ln for ln in env.pfs.read(env.comm, path).split(b"\n") if ln]
    stream = doc_stream("serve-docs", lines, nbatches=nbatches,
                        interval=window / 2.0)
    result = StreamRunner(env, StreamWordCount(env), stream,
                          TumblingWindows(window),
                          runner=partial(runner, checkpoint=None),
                          checkpoint=checkpoint,
                          pace=False).run()
    return {**result.final, "windows": result.closed,
            "resumed": result.resumed}


# ----------------------------------------------------------- merge
#
# Deterministic and order-insensitive: keyed collections are
# partitioned across ranks (disjoint), so a union then a sort gives the
# same bytes for any gang size or execution path.  A float renders as
# its ``repr`` - bit-identical scores stay bit-identical text.

def _lines(rows) -> bytes:
    return ("\n".join(rows) + "\n").encode()


def _json(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def _merge_rows(field: str, vertices: bool = False):
    """``key\\tvalue`` lines of the payloads' ``field`` dicts, sorted by
    key (numerically for vertex ids)."""
    def merge(returns):
        rows = {}
        for payload in returns:
            rows.update({int(k): v for k, v in payload[field].items()}
                        if vertices else payload[field])
        return _lines([f"{k}\t{v}" for k, v in sorted(rows.items())])
    return merge


def _merge_bfs(returns):
    return _json({"root": returns[0]["root"], "levels": returns[0]["levels"],
                  "visited_total": sum(p["visited"] for p in returns)})


def _merge_octree(returns):
    return _json({"levels": returns[0]["levels"],
                  "clusters": sorted(c for p in returns
                                     for c in p["clusters"])})


#: The catalog: every app a client may submit, one row each.
SERVE_APPS: dict[str, ServeApp] = {
    "wordcount": ServeApp(
        DEMO_TEXT,
        {"hint": Param(True), "partial": Param(True),
         "compress": Param(False)},
        _run_wordcount, _merge_rows("counts"),
        lambda returns: {"unique": sum(p["unique"] for p in returns),
                         "total": sum(p["total"] for p in returns)}),
    "pagerank": ServeApp(
        DEMO_GRAPH,
        {"hint": Param(True), "iterations": Param(5, positive=True),
         "compress": Param(False)},
        _run_pagerank, _merge_rows("ranks", vertices=True),
        lambda returns: {"iterations": returns[0]["iterations"],
                         "final_delta": returns[0]["final_delta"]}),
    "kmeans": ServeApp(
        DEMO_POINTS,
        {"k": Param(4, positive=True), "iterations": Param(10, positive=True),
         "seed": Param(0)},
        # Converged state is identical on every rank; rank 0 speaks.
        _run_kmeans, lambda returns: _json(returns[0]),
        lambda returns: {"iterations": returns[0]["iterations"],
                         "inertia": returns[0]["inertia"]}),
    "bfs": ServeApp(
        DEMO_GRAPH,
        {"hint": Param(False)},
        _run_bfs, _merge_bfs,
        lambda returns: {"levels": returns[0]["levels"],
                         "visited": sum(p["visited"] for p in returns)}),
    "octree": ServeApp(
        DEMO_POINTS,
        {"hint": Param(True), "compress": Param(False),
         "partial": Param(True)},
        _run_octree, _merge_octree,
        lambda returns: {"levels": returns[0]["levels"],
                         "clusters": sum(len(p["clusters"])
                                         for p in returns)}),
    "components": ServeApp(
        DEMO_GRAPH,
        {"hint": Param(False), "compress": Param(False),
         "iterations": Param(64, positive=True)},
        _run_components, _merge_rows("labels", vertices=True),
        lambda returns: {"iterations": returns[0]["iterations"],
                         "components": len(set().union(
                             *(p["labels"].values() for p in returns)))}),
    "inverted_index": ServeApp(
        DEMO_TEXT,
        {"compress": Param(False)},
        _run_inverted_index, _merge_rows("index"),
        lambda returns: {"words": sum(len(p["index"]) for p in returns),
                         "documents": returns[0]["documents"]}),
    "stream_wordcount": ServeApp(
        DEMO_TEXT,
        {"window": Param(10.0, positive=True),
         "nbatches": Param(4, positive=True)},
        _run_stream_wordcount, _merge_rows("counts"),
        lambda returns: {"unique": sum(len(p["counts"]) for p in returns),
                         "windows": returns[0]["windows"],
                         "resumed": sum(p["resumed"] for p in returns)}),
}


def check_params(app: str, params: dict[str, Any]) -> dict[str, Any]:
    """Validate a submission's app + params; returns a copy of them.

    A value of the wrong type is refused, never coerced: ``"false"``
    for a flag would be ``True`` by the time the app saw it.  A value
    ``<= 0`` for a positive param is refused too, and so is a float that
    is not finite (``NaN`` and ``Infinity`` parse from a JSON body).
    """
    if app not in SERVE_APPS:
        raise ValueError(f"unknown app {app!r}; catalog: "
                         f"{', '.join(sorted(SERVE_APPS))}")
    allowed = SERVE_APPS[app].params
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"unknown param(s) {unknown} for {app!r}; "
                         f"allowed: {list(allowed)}")
    for name, value in params.items():
        spec = allowed[name]
        want = type(spec.default)
        # ``type() is``: a bool is an int to ``isinstance``.  A JSON
        # integer may stand for a float, nothing else for anything else.
        if type(value) is not want and \
                not (want is float and type(value) is int):
            raise ValueError(f"param {name!r} of {app!r} wants "
                             f"{want.__name__}, got {value!r}")
        if want is float and not math.isfinite(value):
            raise ValueError(f"param {name!r} of {app!r} must be finite, "
                             f"got {value!r}")
        if spec.positive and value <= 0:
            raise ValueError(f"param {name!r} of {app!r} must be > 0, "
                             f"got {value!r}")
    return dict(params)


def run_app(app: str, env: RankEnv, path: str,
            params: dict[str, Any], *, ctx: Any = None,
            checkpoint: Any = None) -> Any:
    """Run one catalog app on this rank; returns its JSON payload.

    ``ctx`` is the scheduler's :class:`~repro.sched.scheduler.
    JobContext` (None when run direct); ``checkpoint`` an optional
    :class:`~repro.ft.checkpoint.CheckpointManager` for the recovery
    path.  This is the one place that decides which services a plan
    runs with: the scheduler's, or none beyond the checkpoint.
    The row's defaults fill in the params a submission left out.
    """
    row = SERVE_APPS[app]
    if ctx is not None:
        config, runner = ctx.config, ctx.runner
    else:
        config, runner = None, partial(PlanRunner, env)
    values = {name: params.get(name, spec.default)
              for name, spec in row.params.items()}
    return row.run(env, path, config, partial(runner, checkpoint=checkpoint),
                   checkpoint, **values)


def run_direct(app: str, env: RankEnv, path: str,
               params: dict[str, Any], checkpoint: Any = None) -> Any:
    """The bare-env flavour (recovery re-admission, reference runs)."""
    return run_app(app, env, path, params, ctx=None, checkpoint=checkpoint)


def to_sched_job(app: str, job_id: str, path: str,
                 params: dict[str, Any], *, tenant: str | None = None,
                 priority: int = 0, footprint: int | str | None = None,
                 input_bytes: int = 0, probe: Any = None) -> SchedJob:
    """Build the scheduler job for one submission.

    ``probe`` is an optional ``fn(env)`` called on every rank before
    the app runs - the chaos hook the serve tests use to schedule rank
    deaths mid-run at a named point (``serve:job:<id>``).
    """
    def fn(env: RankEnv, ctx) -> Any:
        if probe is not None:
            probe(env)
        return run_app(app, env, path, params, ctx=ctx)

    return SchedJob(name=job_id, fn=fn, priority=priority,
                    footprint=footprint, input_bytes=input_bytes,
                    workload=f"serve:{app}", tenant=tenant)


def merge_output(app: str, returns: "list[Any]") -> bytes:
    """Fold per-rank payloads into the job's single output artifact."""
    return SERVE_APPS[app].merge(returns)


def summarize(app: str, returns: "list[Any]") -> dict[str, Any]:
    """Small status-endpoint summary of a finished job."""
    return SERVE_APPS[app].summarize(returns)
