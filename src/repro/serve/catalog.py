"""The service's job catalog: apps a client may submit by name.

An HTTP client cannot ship a Python callable, so the service runs a
closed catalog of named applications (the RPC-style "run job" shape:
a mapper/reducer named by the request, inputs by path).  Each entry
knows how to

- build the per-rank job function the scheduler launches (``ctx``
  flavour, wired into the stage cache / trace / admission services);
- run *direct* on a bare :class:`~repro.cluster.RankEnv` (the
  ``run_with_recovery`` flavour used when a crashed daemon re-admits
  an interrupted job, and what tests compare against);
- merge the per-rank return payloads into one deterministic output
  artifact - the bytes ``fetch-output`` serves, bit-identical for
  identical inputs no matter which path executed the job.

Entries are **pure functions of (app, input path, params)**: a journal
replay rebuilds exactly the job that was submitted.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any

from repro.cluster import RankEnv
from repro.sched.executor import PlanRunner
from repro.sched.scheduler import SchedJob

#: Apps a client may submit, with the type of each param they accept.
SERVE_APPS: dict[str, dict[str, type]] = {
    "wordcount": {"hint": bool, "partial": bool, "compress": bool},
    "pagerank": {"hint": bool, "iterations": int, "compress": bool},
    "kmeans": {"k": int, "iterations": int, "seed": int},
    "bfs": {"hint": bool},
    "stream_wordcount": {"window": float, "nbatches": int},
}


def check_params(app: str, params: dict[str, Any]) -> dict[str, Any]:
    """Validate a submission's app + params; returns a copy of them.

    A value of the wrong type is refused, never coerced: ``"false"``
    for a flag would be ``True`` by the time the app saw it.
    """
    if app not in SERVE_APPS:
        raise ValueError(f"unknown app {app!r}; catalog: "
                         f"{', '.join(sorted(SERVE_APPS))}")
    allowed = SERVE_APPS[app]
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"unknown param(s) {unknown} for {app!r}; "
                         f"allowed: {list(allowed)}")
    for name, value in params.items():
        want = allowed[name]
        # ``type() is``: a bool is an int to ``isinstance``.  A JSON
        # integer may stand for a float, nothing else for anything else.
        if type(value) is not want and \
                not (want is float and type(value) is int):
            raise ValueError(f"param {name!r} of {app!r} wants "
                             f"{want.__name__}, got {value!r}")
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
    """
    if ctx is not None:
        config, bare_runner = ctx.config, ctx.runner
    else:
        config, bare_runner = None, partial(PlanRunner, env)
    runner = partial(bare_runner, checkpoint=checkpoint)
    if app == "wordcount":
        from repro.apps.wordcount import wordcount_plan

        result = wordcount_plan(
            env, path, config, runner=runner,
            hint=bool(params.get("hint", True)),
            partial=bool(params.get("partial", True)),
            compress=bool(params.get("compress", False)),
            collect=True)
        return {"counts": {k.decode("latin-1"): v
                           for k, v in result.counts.items()},
                "unique": result.unique_words,
                "total": result.total_words}
    if app == "pagerank":
        from repro.apps.pagerank import pagerank_plan

        result = pagerank_plan(
            env, path, config, runner=runner,
            hint=bool(params.get("hint", True)),
            compress=bool(params.get("compress", False)),
            iterations=int(params.get("iterations", 5)))
        return {"ranks": {str(node): score
                          for node, score in result.ranks.items()},
                "iterations": result.iterations,
                "final_delta": result.final_delta}
    if app == "kmeans":
        from repro.apps.kmeans import kmeans_plan

        result = kmeans_plan(
            env, path, int(params.get("k", 4)), config, runner=runner,
            max_iterations=int(params.get("iterations", 10)),
            seed=int(params.get("seed", 0)))
        return {"iterations": result.iterations,
                "sizes": list(result.sizes),
                "inertia": result.inertia,
                "centroids": [[float(x) for x in row]
                              for row in result.centroids]}
    if app == "bfs":
        from repro.apps.bfs import bfs_plan

        result = bfs_plan(env, path, config, runner=runner,
                          hint=bool(params.get("hint", False)))
        return {"root": result.root, "levels": result.levels,
                "visited": result.visited_local}
    if app == "stream_wordcount":
        from repro.stream.runner import StreamRunner
        from repro.stream.scenarios import StreamWordCount
        from repro.stream.source import StreamSource
        from repro.stream.windows import TumblingWindows

        # Replay the staged text as a document trickle: the input
        # lines split into ``nbatches`` micro-batches, one document
        # per line, windowed over virtual event time.  Checkpointed
        # window state flows through ``checkpoint`` on the recovery
        # path, so a crashed daemon resumes the stream from the last
        # completed window rather than batch zero.
        window = float(params.get("window", 10.0))
        nbatches = max(1, int(params.get("nbatches", 4)))
        lines = [ln for ln in env.pfs.read(env.comm, path).split(b"\n")
                 if ln]
        per = -(-len(lines) // nbatches) if lines else 1
        payload_batches = []
        index = 0
        for i in range(nbatches):
            chunk = lines[i * per:(i + 1) * per]
            payload_batches.append(
                [(index + j, doc) for j, doc in enumerate(chunk)])
            index += len(chunk)
        stream = StreamSource.from_payload_batches(
            "serve-docs", payload_batches, interval=window / 2.0)
        scenario = StreamWordCount(env)
        result = StreamRunner(env, scenario, stream,
                              TumblingWindows(window), runner=bare_runner,
                              checkpoint=checkpoint, pace=False).run()
        return {"counts": {k.decode("latin-1"): v
                           for k, v in result.final.items()},
                "windows": result.closed,
                "resumed": result.resumed}
    raise ValueError(f"unknown app {app!r}")


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


# ----------------------------------------------------------- output merge

def merge_output(app: str, returns: "list[Any]") -> bytes:
    """Fold per-rank payloads into the job's single output artifact.

    Deterministic and order-insensitive: keyed collections are
    partitioned across ranks (disjoint), so a union then a sort gives
    the same bytes for any gang size or execution path.  Floats are
    rendered with ``repr`` - bit-identical scores stay bit-identical
    text.
    """
    if app in ("wordcount", "stream_wordcount"):
        counts: dict[str, int] = {}
        for payload in returns:
            counts.update(payload["counts"])
        lines = [f"{word}\t{count}" for word, count in sorted(counts.items())]
        return ("\n".join(lines) + "\n").encode()
    if app == "pagerank":
        scores: dict[int, float] = {}
        for payload in returns:
            scores.update({int(n): s for n, s in payload["ranks"].items()})
        lines = [f"{node}\t{score!r}" for node, score in sorted(scores.items())]
        return ("\n".join(lines) + "\n").encode()
    if app == "kmeans":
        # Converged state is identical on every rank; rank 0 speaks.
        return (json.dumps(returns[0], sort_keys=True) + "\n").encode()
    if app == "bfs":
        merged = {"root": returns[0]["root"], "levels": returns[0]["levels"],
                  "visited_total": sum(p["visited"] for p in returns)}
        return (json.dumps(merged, sort_keys=True) + "\n").encode()
    raise ValueError(f"unknown app {app!r}")


def summarize(app: str, returns: "list[Any]") -> dict[str, Any]:
    """Small status-endpoint summary of a finished job."""
    if app == "wordcount":
        return {"unique": sum(p["unique"] for p in returns),
                "total": sum(p["total"] for p in returns)}
    if app == "pagerank":
        return {"iterations": returns[0]["iterations"],
                "final_delta": returns[0]["final_delta"]}
    if app == "kmeans":
        return {"iterations": returns[0]["iterations"],
                "inertia": returns[0]["inertia"]}
    if app == "bfs":
        return {"levels": returns[0]["levels"],
                "visited": sum(p["visited"] for p in returns)}
    if app == "stream_wordcount":
        return {"unique": sum(len(p["counts"]) for p in returns),
                "windows": returns[0]["windows"],
                "resumed": sum(p["resumed"] for p in returns)}
    return {}
