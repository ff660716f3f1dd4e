"""Declarative dataflow plans over the Mimir driver.

A :class:`Plan` composes MapReduce stages into a DAG without running
anything: ``plan.read_binary(...).map(fn).reduce(rfn)`` builds three
:class:`Stage` nodes linked by :class:`Dataset` handles.  A
:class:`~repro.sched.executor.PlanRunner` later lowers each stage onto
the existing :class:`~repro.core.job.Mimir` driver for one rank.

The point of the indirection is that a stage has an *identity* - a
stable key derived from its operation, parameters, and lineage - which
is what lets the intermediate cache recognise "this is the same
adjacency list the previous job built" and what names stage-granular
checkpoints.  ``Dataset.cache()`` and ``Dataset.checkpoint()`` are
plan-time annotations; the runner and the scheduler decide what they
cost.
"""

from __future__ import annotations

import hashlib
import itertools
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

from repro.core.config import MimirConfig
from repro.core.records import KVLayout

#: Stage operations a plan may contain.  ``read_text`` / ``read_binary``
#: / ``source`` / ``source_stream`` are leaf inputs; the rest take KV
#: parents.
STAGE_OPS = ("read_text", "read_binary", "source", "source_stream", "map",
             "reduce", "partial_reduce", "sort_local", "join")


def _describe(value: Any) -> str:
    """A stable, hashable description of one stage parameter.

    Callables hash by qualified name (the code a user edits renames or
    moves; two lambdas defined at the same spot in one process collide,
    which is why iterative plans add a per-iteration *salt* instead of
    relying on closure contents).
    """
    if callable(value):
        return (f"{getattr(value, '__module__', '?')}."
                f"{getattr(value, '__qualname__', repr(value))}")
    if isinstance(value, KVLayout):
        return f"KVLayout({value.key_len},{value.val_len})"
    return repr(value)


class Stage:
    """One node of a plan DAG."""

    def __init__(self, plan: "Plan", sid: int, op: str,
                 parents: tuple["Stage", ...], *,
                 name: str | None = None,
                 fn: Callable | None = None,
                 salt: str = "",
                 **params: Any):
        if op not in STAGE_OPS:
            raise ValueError(f"unknown stage op {op!r}")
        self.plan = plan
        self.sid = sid
        self.op = op
        self.parents = parents
        self.name = name or f"{op}{sid}"
        self.fn = fn
        self.salt = salt
        self.params = params
        self.cached = False
        self.checkpointed = False
        self._key: str | None = None

    @property
    def key(self) -> str:
        """Stable identity: operation + parameters + lineage (+ salt).

        Used as the cache key and the checkpoint phase name, so two
        plans (or two submissions of one plan) that build the same
        stage from the same inputs share materialized results.
        """
        if self._key is not None:
            return self._key
        digest = hashlib.sha1()
        digest.update(self.op.encode())
        digest.update(self.name.encode())
        digest.update(self.salt.encode())
        digest.update(_describe(self.fn).encode())
        for param in sorted(self.params):
            digest.update(
                f"{param}={_describe(self.params[param])}".encode())
        for parent in self.parents:
            digest.update(parent.key.encode())
        self._key = f"{self.name}-{digest.hexdigest()[:12]}"
        return self._key

    def lineage(self) -> list["Stage"]:
        """This stage and every ancestor, dependency-ordered."""
        seen: dict[int, Stage] = {}

        def visit(stage: Stage) -> None:
            if stage.sid in seen:
                return
            for parent in stage.parents:
                visit(parent)
            seen[stage.sid] = stage

        visit(self)
        return list(seen.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rents = ",".join(str(p.sid) for p in self.parents)
        return f"Stage({self.sid}:{self.op}:{self.name} <- [{rents}])"


class Dataset:
    """Handle to one stage's (future) output; the fluent plan API."""

    def __init__(self, plan: "Plan", stage: Stage):
        self.plan = plan
        self.stage = stage

    # --------------------------------------------------------- transforms

    def map(self, fn: Callable, *, combine_fn: Callable | None = None,
            partitioner: Callable | None = None,
            layout: KVLayout | None = None,
            name: str | None = None, salt: str | None = None) -> "Dataset":
        """Map this dataset's records through the shuffle."""
        return self.plan._derive(
            "map", (self.stage,), fn=fn, name=name, salt=salt,
            combine_fn=combine_fn, partitioner=partitioner, layout=layout)

    def reduce(self, fn: Callable, *, out_layout: KVLayout | None = None,
               name: str | None = None,
               salt: str | None = None) -> "Dataset":
        """Group by key (implicit convert) and reduce each group."""
        return self.plan._derive("reduce", (self.stage,), fn=fn, name=name,
                                 salt=salt, out_layout=out_layout)

    def partial_reduce(self, fn: Callable, *,
                       seed: "Dataset | None" = None,
                       out_layout: KVLayout | None = None,
                       name: str | None = None,
                       salt: str | None = None) -> "Dataset":
        """Streaming reduce for commutative/associative folds; a
        ``seed`` dataset (a second parent) folds in first, so folding
        each new batch onto the last fold is one pass over them all."""
        parents = (self.stage,) if seed is None else (self.stage, seed.stage)
        return self.plan._derive("partial_reduce", parents, fn=fn,
                                 name=name, salt=salt, out_layout=out_layout)

    def sort_local(self, *, by_value: bool = False,
                   key_fn: Callable | None = None,
                   name: str | None = None,
                   salt: str | None = None) -> "Dataset":
        """Rank-local sort (``key_fn(key, value)`` overrides the order)."""
        return self.plan._derive("sort_local", (self.stage,), name=name,
                                 salt=salt, by_value=by_value, key_fn=key_fn)

    def join(self, other: "Dataset", fn: Callable, *,
             partitioner: Callable | None = None,
             out_layout: KVLayout | None = None,
             name: str | None = None, salt: str | None = None) -> "Dataset":
        """Co-group two datasets by key.

        ``fn(ctx, key, left_values, right_values)`` is called once per
        key present on either side.
        """
        if other.plan is not self.plan:
            raise ValueError("cannot join datasets from different plans")
        return self.plan._derive(
            "join", (self.stage, other.stage), fn=fn, name=name, salt=salt,
            partitioner=partitioner, out_layout=out_layout)

    # -------------------------------------------------------- annotations

    def cache(self) -> "Dataset":
        """Keep this stage's output for reuse across runs of the plan."""
        self.stage.cached = True
        return self

    def checkpoint(self) -> "Dataset":
        """Persist this stage's output so recovery restarts after it."""
        self.stage.checkpointed = True
        return self

    @property
    def key(self) -> str:
        return self.stage.key

    @property
    def name(self) -> str:
        return self.stage.name


class Plan:
    """A named DAG of MapReduce stages awaiting a runner.

    ``salt`` (usually set per iteration by :meth:`~repro.sched.
    executor.PlanRunner.iterate`) is mixed into the identity of every
    stage *created while it is set*, so per-iteration stages of a loop
    get fresh keys while loop-invariant stages built up front keep
    theirs.
    """

    _ids = itertools.count(1)

    def __init__(self, name: str, config: MimirConfig | None = None):
        self.name = name
        self.config = config or MimirConfig()
        self.stages: list[Stage] = []
        self.salt = ""

    @contextmanager
    def salted(self, salt: str) -> Iterator[None]:
        """Stages created inside the block carry ``salt`` in their
        identity; the previous salt is restored on the way out."""
        base, self.salt = self.salt, salt
        try:
            yield
        finally:
            self.salt = base

    # ------------------------------------------------------------ sources

    def read_text(self, path: str, *, name: str | None = None) -> Dataset:
        """A PFS text file, split word-aligned across ranks at run time."""
        return self._derive("read_text", (), name=name, path=path)

    def read_binary(self, path: str, record_size: int, *,
                    name: str | None = None) -> Dataset:
        """A PFS binary file of fixed-size records."""
        return self._derive("read_binary", (), name=name, path=path,
                            record_size=record_size)

    def source(self, items: "Iterable[Any] | Callable[[], Iterable[Any]]",
               *, name: str | None = None,
               salt: str | None = None) -> Dataset:
        """An in-memory iterable (the in-situ input path).

        Pass a zero-argument callable to defer materialisation to run
        time (iterative frontiers); note the *identity* of a source is
        its name + salt, not its contents.
        """
        return self._derive("source", (), name=name, salt=salt, items=items)

    def source_stream(self, stream: Any, index: int, *,
                      name: str | None = None) -> Dataset:
        """One micro-batch of a named stream (see :mod:`repro.stream`).

        Identity is the stream's *name* plus the batch *index* - never
        the records - so the stages derived from micro-batch ``i`` keep
        the same lineage keys on every later window that includes batch
        ``i``.  That is the key discipline behind incremental
        recompute: unchanged batches hit the
        :class:`~repro.sched.cache.StageCache` and only the newest
        batch's stages execute.
        """
        return self._derive("source_stream", (),
                            name=name or f"{stream.name}.b{index}",
                            salt=f"{stream.name}@{index}",
                            stream=stream, index=index)

    # ----------------------------------------------------------- plumbing

    def _derive(self, op: str, parents: tuple[Stage, ...], *,
                fn: Callable | None = None, name: str | None = None,
                salt: str | None = None, **params: Any) -> Dataset:
        stage = Stage(self, next(self._ids), op, parents, name=name, fn=fn,
                      salt=self.salt if salt is None else salt, **params)
        self.stages.append(stage)
        return Dataset(self, stage)

    def describe(self) -> str:
        """Human-readable DAG listing (tests and the CLI demo)."""
        lines = [f"plan {self.name!r}: {len(self.stages)} stage(s)"]
        for stage in self.stages:
            rents = ", ".join(p.name for p in stage.parents) or "-"
            marks = "".join(m for flag, m in ((stage.cached, " [cached]"),
                                              (stage.checkpointed,
                                               " [ckpt]")) if flag)
            lines.append(f"  {stage.name:<20} {stage.op:<14} "
                         f"<- {rents}{marks}")
        return "\n".join(lines)
