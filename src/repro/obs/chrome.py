"""Chrome/Perfetto ``trace_event`` export for :class:`repro.obs.trace.Trace`.

Turns a trace's events into the JSON object format understood by
``chrome://tracing`` and https://ui.perfetto.dev: one process per
event domain (job ranks, scheduler), one thread per rank, a complete
event (``X``: ``ts`` plus ``dur``) for every timed region (spans,
phases), an instant event (``i``) for everything else.

Events are written in start order within each thread, a region ahead
of what starts at its own start; a region that never closed was never
recorded, so there is nothing to repair.  Virtual seconds become
microseconds, the ``trace_event`` native unit.
"""

from __future__ import annotations

import json
from typing import Any

#: pid used for rank-stamped events and for global (rank -1) events.
JOB_PID = 0
SCHED_PID = 1

#: Region ends (microseconds) this close are one end seen through
#: rounded ``ts + dur`` sums.
END_SLACK_US = 1e-3


def to_chrome_trace(trace) -> dict[str, Any]:
    """A ``{"traceEvents": [...]}`` dict ready for ``json.dump``.

    Every emitted event carries ``ph``, ``ts`` (microseconds), ``pid``
    and ``tid``; a region's ``X`` event also carries its ``dur``.
    """
    # Stable: events sharing a start keep their emission order, except
    # that a longer region goes ahead of what it encloses.
    out: list[dict[str, Any]] = []
    for event in sorted(trace.events,
                        key=lambda e: (e.time, -(e.dur or 0.0))):
        # Scheduler (rank -1) events get their own process, so global
        # decisions do not interleave rank lanes.
        pid, tid = (SCHED_PID, 0) if event.rank < 0 else \
            (JOB_PID, event.rank)
        record: dict[str, Any] = {"name": event.label, "cat": event.kind,
                                  "ph": "X", "ts": event.time * 1e6,
                                  "pid": pid, "tid": tid}
        if event.dur is None:
            record.update(ph="i", s="t")       # a thread-scoped instant
        else:
            record["dur"] = event.dur * 1e6
        if event.data:
            record["args"] = dict(event.data)
        out.append(record)

    threads = sorted({(record["pid"], record["tid"]) for record in out})
    meta = [{"name": "process_name", "ph": "M", "ts": 0.0, "pid": pid,
             "tid": 0, "args": {"name": "scheduler" if pid == SCHED_PID
                                else "job ranks"}}
            for pid in sorted({pid for pid, _tid in threads})]
    meta += [{"name": "thread_name", "ph": "M", "ts": 0.0, "pid": pid,
              "tid": tid, "args": {"name": f"rank {tid}"}}
             for pid, tid in threads if pid == JOB_PID]
    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}


def write_chrome_trace(trace, path: str) -> dict[str, Any]:
    """Export ``trace`` to ``path`` as Perfetto-loadable JSON."""
    data = to_chrome_trace(trace)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
    return data


def validate_chrome_trace(data: dict[str, Any]) -> None:
    """Assert the exported object is schema-valid; raises ``ValueError``.

    Checks the acceptance contract: required fields on every event,
    non-decreasing timestamps per thread, a finite ``dur >= 0`` on
    every ``X`` event, and ``X`` regions that nest on their thread.
    """
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    last_ts: dict[tuple[int, int], float] = {}
    open_ends: dict[tuple[int, int], list[float]] = {}
    for i, event in enumerate(events):
        for field in ("ph", "ts", "pid", "tid"):
            if field not in event:
                raise ValueError(f"event {i} missing {field!r}: {event}")
        if event["ph"] == "M":
            continue
        key = (event["pid"], event["tid"])
        ts = event["ts"]
        if ts < last_ts.get(key, float("-inf")):
            raise ValueError(f"event {i}: ts {ts} decreases on thread {key}")
        last_ts[key] = ts
        ends = open_ends.setdefault(key, [])
        while ends and ends[-1] <= ts + END_SLACK_US:
            ends.pop()                   # regions closed before ts
        if event["ph"] != "X":
            continue
        dur = event.get("dur")
        if not (type(dur) in (int, float) and 0 <= dur < float("inf")):
            raise ValueError(f"event {i}: X needs a finite dur >= 0")
        if ends and ts + dur > ends[-1] + END_SLACK_US:
            raise ValueError(f"event {i}: [{ts}, {ts + dur}] overlaps "
                             f"its enclosing region's end {ends[-1]}")
        ends.append(ts + dur)
