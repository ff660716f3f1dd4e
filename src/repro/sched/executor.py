"""Lowering a :class:`~repro.sched.plan.Plan` onto the Mimir driver.

A :class:`PlanRunner` executes one rank's share of a plan.  Stages
materialize on demand (:meth:`materialize` walks the DAG), and three
cross-cutting services hook in by stage key:

- the **intermediate cache** (:class:`~repro.sched.cache.StageCache`):
  a ``cache()``-annotated stage consults it first and adopts its
  output into it afterwards.  Hit/miss decisions are agreed
  collectively (``all_true``) because a recompute runs collectives a
  hit would skip - a rank-divergent decision would deadlock the job.
- **stage-granular checkpoints** (:class:`~repro.ft.checkpoint.
  CheckpointManager`): a ``checkpoint()``-annotated stage saves its
  output under its stage key, so a restarted attempt (see
  :func:`repro.ft.runner.run_with_recovery`) reloads completed stages
  and re-executes only from the failed one.
- the **trace** receives a ``stage-done`` event per executed stage
  (under the scheduler: the round's :meth:`~repro.obs.trace.Trace.at`).

Cached inputs are *pinned* while a downstream stage reads them, so a
concurrent cache eviction can never free pages under a live iterator,
and they are read non-destructively (``consume=False``) so the next
consumer still finds them intact.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.cluster import RankEnv
from repro.core.job import Mimir
from repro.core.kvcontainer import KVContainer
from repro.core.records import KVLayout
from repro.sched.plan import Dataset, Plan, Stage


class PlanRunner:
    """Executes a plan's stages on one rank."""

    def __init__(self, env: RankEnv, plan: Plan, *, cache=None,
                 trace=None, checkpoint=None, elastic=None,
                 job: str | None = None):
        self.env = env
        self.plan = plan
        self.cache = cache
        self.checkpoint = checkpoint
        self.trace = trace
        #: Optional reactive-fault hooks (duck-typed; see
        #: :class:`repro.ft.elastic.ElasticStageHooks`): text-input map
        #: stages run speculatively, and every other executed stage's
        #: duration feeds the straggler monitor.
        self.elastic = elastic
        self.job = job or plan.name
        self.mimir = Mimir(env, plan.config, trace=trace)
        self._speculated: set[str] = set()
        #: Times each stage *name* actually executed (restores and
        #: cache hits do not count) - the observable that recompute
        #: and stage-skip tests assert on.
        self.stage_counts: Counter[str] = Counter()
        if cache is not None and cache.env is not env:
            cache.attach(env, trace)

    # -------------------------------------------------------- materialize

    def materialize(self, ds: "Dataset | Stage") -> KVContainer:
        """The stage's output container, by whatever path is cheapest.

        Cache hit beats checkpoint restore beats execution; a cached
        stage that has to execute (or restore) is adopted into the
        cache on the way out.
        """
        stage = ds.stage if isinstance(ds, Dataset) else ds
        key = stage.key
        comm = self.env.comm
        use_cache = stage.cached and self.cache is not None
        if use_cache:
            if comm.all_true(self.cache.has(key)):
                return self.cache.get(key)
            # Some rank lost its copy: every rank drops and recomputes
            # together, keeping the collective schedule in lockstep.
            self.env.metrics.inc("sched.cache.misses")
            self.cache.drop(key)
        kvc = None
        if self.checkpoint is not None and stage.checkpointed \
                and self.checkpoint.has(key):
            kvc = self.checkpoint.load_kvc(key, self.mimir.container(
                self._layout_of(stage), f"kv_{stage.name}"))
        if kvc is None:
            kvc = self._execute(stage)
            if self.checkpoint is not None and stage.checkpointed:
                self.checkpoint.save_kvc(key, kvc)
        if use_cache:
            self.cache.put(key, kvc, name=stage.name, job=self.job)
            return self.cache.get(key)
        return kvc

    def _layout_of(self, stage: Stage) -> KVLayout:
        """The record layout a stage's output was written with."""
        if stage.op == "map":
            return stage.params.get("layout") or self.plan.config.layout
        if stage.op in ("reduce", "partial_reduce", "join"):
            return stage.params.get("out_layout") or KVLayout()
        if stage.op == "sort_local":
            return self._layout_of(stage.parents[0])
        raise ValueError(f"leaf stage {stage.name!r} has no KV output")

    # ----------------------------------------------------------- execute

    @contextmanager
    def reading(self, ds: "Dataset | Stage",
                ) -> Iterator[tuple[KVContainer, bool]]:
        """Materialize a stage for one reader: its container and
        whether the reader may consume it.  A container the cache owns
        stays pinned while it is read and must be left intact."""
        stage = ds.stage if isinstance(ds, Dataset) else ds
        kvc = self.materialize(stage)
        preserved = stage.cached and self.cache is not None
        if preserved:
            kvc.pin()
        try:
            yield kvc, not preserved
        finally:
            if preserved:
                kvc.unpin()

    def _execute(self, stage: Stage) -> KVContainer:
        runner = getattr(self, f"_run_{stage.op}", None)
        if runner is None:
            raise ValueError(
                f"stage {stage.name!r} ({stage.op}) is a raw input with "
                "no KV output of its own - map it first")
        started = self.env.comm.clock.time
        out = runner(stage)
        self.stage_counts[stage.name] += 1
        self.env.metrics.inc("sched.stages.executed")
        if self.elastic is not None and stage.key not in self._speculated:
            # Collective: every rank executes the same stage schedule,
            # so the progress allgather cannot diverge.  Speculative
            # maps already monitored (and re-scheduled) themselves.
            self.elastic.observe_stage(
                self.env, stage, self.env.comm.clock.time - started)
        if self.trace is not None:
            self.trace.emit(
                self.env, "stage-done", f"{self.job}:{stage.name}",
                job=self.job, stage=stage.name, key=stage.key)
        return out

    def _run_map(self, stage: Stage) -> KVContainer:
        parent = stage.parents[0]
        params = stage.params
        common = dict(combine_fn=params.get("combine_fn"),
                      partitioner=params.get("partitioner"),
                      layout=params.get("layout"),
                      out_tag=f"kv_{stage.name}")
        if parent.op == "read_text":
            if self.elastic is not None:
                self._speculated.add(stage.key)
                return self.elastic.map_text(
                    self.mimir, parent.params["path"], stage)
            return self.mimir.map_text_file(parent.params["path"], stage.fn,
                                            **common)
        if parent.op == "read_binary":
            return self.mimir.map_binary_file(
                parent.params["path"], parent.params["record_size"],
                stage.fn, **common)
        if parent.op == "source":
            items = parent.params["items"]
            if callable(items):
                items = items()
            return self.mimir.map_items(items, stage.fn, **common)
        if parent.op == "source_stream":
            batch = parent.params["stream"].batch(parent.params["index"])
            self.env.metrics.inc("stream.batches.ingested")
            self.env.metrics.inc("stream.records.ingested",
                                 len(batch.records))
            return self.mimir.map_items(batch.payloads(), stage.fn,
                                        **common)
        with self.reading(parent) as (kvc, consume):
            return self.mimir.map_kvs(kvc, stage.fn, **common,
                                      consume=consume)

    def _run_reduce(self, stage: Stage) -> KVContainer:
        with self.reading(stage.parents[0]) as (kvc, consume):
            return self.mimir.reduce(
                kvc, stage.fn, out_layout=stage.params.get("out_layout"),
                out_tag=f"kv_{stage.name}", consume=consume)

    def _run_partial_reduce(self, stage: Stage) -> KVContainer:
        with self.reading(stage.parents[0]) as (kvc, consume):
            return self.mimir.partial_reduce(
                kvc, stage.fn, out_layout=stage.params.get("out_layout"),
                out_tag=f"kv_{stage.name}", consume=consume)

    def _run_sort_local(self, stage: Stage) -> KVContainer:
        with self.reading(stage.parents[0]) as (kvc, consume):
            return self.mimir.sort_local(
                kvc, by_value=stage.params.get("by_value", False),
                key_fn=stage.params.get("key_fn"),
                out_tag=f"kv_{stage.name}", consume=consume)

    def _run_join(self, stage: Stage) -> KVContainer:
        """Co-group: tag each side, shuffle by key, split in the reduce."""
        def feed(ctx, side):
            tag, (kvc, consume) = side
            for key, value in kvc.consume() if consume else kvc.records():
                ctx.emit(key, tag + value)

        left, right = stage.parents
        with self.reading(left) as lhs, self.reading(right) as rhs:
            union = self.mimir.map_items(
                [(b"L", lhs), (b"R", rhs)], feed,
                partitioner=stage.params.get("partitioner"),
                layout=KVLayout(), out_tag=f"kv_{stage.name}_union")

        join_fn = stage.fn

        def split(ctx, key, values):
            lvals = [v[1:] for v in values if v[:1] == b"L"]
            rvals = [v[1:] for v in values if v[:1] == b"R"]
            join_fn(ctx, key, lvals, rvals)

        return self.mimir.reduce(
            union, split, out_layout=stage.params.get("out_layout"),
            out_tag=f"kv_{stage.name}")

    # ------------------------------------------------------------ results

    def stream(self, ds: Dataset) -> Iterator[tuple[bytes, bytes]]:
        """This rank's records of a dataset: a cache-resident stage is
        read pinned and left intact, any other output is drained, its
        pages freed as the reader advances."""
        with self.reading(ds) as (kvc, consume):
            try:
                yield from kvc.consume() if consume else kvc.records()
            finally:
                if consume:
                    kvc.free()

    def collect(self, ds: Dataset) -> list[tuple[bytes, bytes]]:
        return list(self.stream(ds))

    # ---------------------------------------------------------- iteration

    def iterate(self, state: Any,
                body: Callable[["PlanRunner", int, Any], Any], *,
                until: Callable[[Any], bool] | None = None,
                max_iters: int = 50) -> tuple[Any, int]:
        """Run ``body(runner, i, state)`` until ``until(state)`` holds.

        Each pass salts the plan, so stages *created inside the body*
        get per-iteration identities (fresh cache/checkpoint keys)
        while stages built before the loop keep theirs and hit the
        cache every pass.  ``until`` must be deterministic from
        ``state`` (it is evaluated on every rank).
        """
        iterations = 0
        for i in range(max_iters):
            with self.plan.salted(f"{self.plan.salt}#i{i}"):
                state = body(self, i, state)
            iterations = i + 1
            if until is not None and until(state):
                break
        return state, iterations
