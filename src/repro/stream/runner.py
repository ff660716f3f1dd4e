"""The streaming driver: ingest, window, checkpoint, resume.

A :class:`StreamRunner` advances a :class:`~repro.stream.source.
StreamSource` through virtual time on one rank (every rank runs its
own, in collective lockstep, exactly like any other job here):

1. **Ingest.**  Each micro-batch arrival advances the virtual clock,
   updates the event-time watermark (``max event time - lateness``)
   and counts records that arrived behind it as *late*.
2. **Close.**  Windows whose end the watermark has passed are
   finalized in order through the scenario's ``window_result``; the
   per-batch stages it builds (via :meth:`dataset`) carry
   lineage keys salted only by stream name + batch index, so every
   batch already seen is served from the
   :class:`~repro.sched.cache.StageCache` and only the newest batch's
   stages execute - the incremental-recompute contract.
3. **Repair.**  A late record re-opens the closed windows that contain
   it: they are re-finalized (fresh window salt, new revision) so the
   final output still matches a full-batch recompute of the same
   total input, bit for bit.
4. **Checkpoint.**  Every finalized window's payload goes through the
   :class:`~repro.ft.checkpoint.CheckpointManager`; a killed stream
   resumes by loading completed windows instead of recomputing them.
   Each batch arrival is the manager's fault point ``batch<i>``.

Watermark, lag, and window counts are emitted through the closed
``stream.*`` metric namespace (see ``docs/metrics-reference.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.cluster import RankEnv
from repro.ft.checkpoint import CheckpointNotFoundError
from repro.sched.executor import PlanRunner
from repro.sched.plan import Dataset, Plan
from repro.stream.source import MicroBatch, StreamSource

_NEG_INF = float("-inf")


@dataclass
class StreamResult:
    """One rank's outcome of a streaming run."""

    #: ``scenario.merge`` over every finalized window (``None`` when
    #: the run was truncated by ``stop_after_windows``).
    final: Any
    #: Per-window payloads, keyed by window id.
    windows: dict[int, Any]
    #: ``(wid, window_end, close_clock)`` per first-time close, in
    #: close order - the live view a demo prints.
    timeline: list[tuple[int, float, float]] = field(default_factory=list)
    #: Virtual seconds each close the watermark made took, in close
    #: order (the end-of-stream flush is not among them).
    close_seconds: list[float] = field(default_factory=list)
    closed: int = 0
    resumed: int = 0
    recomputed: int = 0
    late_records: int = 0
    truncated: bool = False


class StreamRunner:
    """Drives one rank's share of a streaming scenario.

    ``scenario`` is duck-typed:

    - ``name``/``config`` identify it and configure the Mimir driver;
    - ``batch_stage(plan, stream, index) -> Dataset`` builds the
      cached per-batch stage chain (called at most once per batch,
      through :meth:`dataset`);
    - ``window_result(runner, window, batches) -> payload`` finalizes
      one window from the batches holding its records (the plan is
      salted per window+revision around the call, so window-scoped
      stages get fresh keys while batch stages keep theirs);
    - ``merge(results) -> final`` folds the per-window payloads into
      the rank's final answer (pure, no collectives).
    """

    def __init__(self, env: RankEnv, scenario, stream: StreamSource,
                 windows, *, lateness: float = 0.0,
                 runner=None, checkpoint=None, pace: bool = True):
        if not (math.isfinite(lateness) and lateness >= 0):
            raise ValueError(f"lateness must be finite and >= 0, "
                             f"got {lateness!r}")
        self.env = env
        self.scenario = scenario
        self.stream = stream
        self.windows = windows
        self.lateness = lateness
        self.checkpoint = checkpoint
        self.pace = pace
        self.plan = Plan(f"stream-{scenario.name}", scenario.config)
        self.runner: PlanRunner = runner(self.plan) if runner else \
            PlanRunner(env, self.plan)
        self._datasets: dict[int, Dataset] = {}

    # ------------------------------------------------------------ batches

    def dataset(self, index: int) -> Dataset:
        """The cached per-batch dataset, built on first use.

        Built with the plan salt *cleared*: batch stages must derive
        their identity from the ``source_stream`` lineage alone, never
        from whichever window happened to touch the batch first.
        """
        ds = self._datasets.get(index)
        if ds is None:
            with self.plan.salted(""):
                ds = self.scenario.batch_stage(self.plan, self.stream,
                                               index)
            self._datasets[index] = ds
        return ds

    # ---------------------------------------------------------------- run

    def run(self, *, stop_after_windows: int | None = None) -> StreamResult:
        """Advance the stream to completion (or a simulated kill).

        ``stop_after_windows`` truncates the run after that many
        windows have been finalized - the "kill" half of a
        kill/resume test; a fresh runner over the same stream and
        checkpoint manager then resumes from the completed windows.
        """
        env = self.env
        comm = env.comm
        result = StreamResult(final=None, windows={})
        ingested: list[MicroBatch] = []
        max_time = _NEG_INF
        watermark = _NEG_INF

        for batch in self.stream.schedule():
            if stop_after_windows is not None \
                    and result.closed >= stop_after_windows:
                result.truncated = True
                break
            if self.pace:
                wait = batch.arrival - comm.clock.time
                if wait > 0:
                    comm.advance(wait)
            if self.checkpoint is not None:
                self.checkpoint.probe(f"batch{batch.index}")

            dirty: set[int] = set()
            late = 0
            for record in batch.records:
                if record.time < watermark:
                    late += 1
                    for wid in result.windows:
                        if self.windows.window(wid).contains(record.time):
                            dirty.add(wid)
            if late:
                env.metrics.inc("stream.records.late", late)
                result.late_records += late
            ingested.append(batch)
            max_time = max(max_time, batch.max_time)
            if max_time > _NEG_INF:
                watermark = max_time - self.lateness
                env.metrics.set_gauge("stream.watermark", watermark)

            self._close_due(result, ingested, max_time, watermark)
            for wid in sorted(dirty):
                self._finalize(result, ingested, wid, repair=True)

        else:
            # End of stream: everything seen is final - flush the
            # remaining windows regardless of lateness allowance.
            self._close_due(result, ingested, max_time, float("inf"))
            result.final = self.scenario.merge(result.windows)
        return result

    # ------------------------------------------------------------ closing

    def _close_due(self, result: StreamResult, ingested: list[MicroBatch],
                   max_time: float, watermark: float) -> None:
        if max_time == _NEG_INF:
            return
        clock = self.env.comm.clock
        for wid in range(self.windows.last_wid(max_time) + 1):
            if wid in result.windows:
                continue
            if self.windows.window(wid).end <= watermark:
                start = clock.time
                self._finalize(result, ingested, wid)
                if watermark != math.inf:   # not the end-of-stream flush
                    result.close_seconds.append(clock.time - start)

    def _finalize(self, result: StreamResult, ingested: list[MicroBatch],
                  wid: int, *, repair: bool = False) -> None:
        env = self.env
        window = self.windows.window(wid)
        phase = f"win{wid}"
        if not repair and self.checkpoint is not None:
            try:
                result.windows[wid] = self.checkpoint.load_state(phase)
            except CheckpointNotFoundError:
                pass
            else:
                result.closed += 1
                result.resumed += 1
                env.metrics.inc("stream.windows.resumed")
                return
        batches = [b for b in ingested
                   if any(window.contains(r.time) for r in b.records)]
        salt = f"w{wid}r{result.recomputed}" if repair else f"w{wid}"
        with self.plan.salted(salt):
            payload = self.scenario.window_result(self, window, batches)
        result.windows[wid] = payload
        if repair:
            result.recomputed += 1
            env.metrics.inc("stream.windows.recomputed")
        else:
            result.closed += 1
            result.timeline.append((wid, window.end, env.comm.clock.time))
            env.metrics.inc("stream.windows.closed")
            env.metrics.observe("stream.window.lag",
                                max(0.0, env.comm.clock.time - window.end))
        if self.checkpoint is not None:
            self.checkpoint.save_state(phase, payload)

    # ------------------------------------------------------------ queries

    @property
    def stage_counts(self) -> dict[str, int]:
        return self.runner.stage_counts

    def stages_executed(self) -> int:
        """Total stage executions (cache hits and restores excluded)."""
        return sum(self.runner.stage_counts.values())
