"""Chrome/Perfetto ``trace_event`` export for :class:`repro.obs.trace.Trace`.

Turns a trace's events into the JSON object format understood by
``chrome://tracing`` and https://ui.perfetto.dev: one process per
event domain (job ranks, scheduler), one thread per rank, nested
duration events (``B``/``E``) for every event carrying that ``ph``
(spans, phases), instant events (``i``) for everything else.

The exporter *guarantees* a schema-valid artifact even from a trace an
abort truncated mid-span: per-thread ``B``/``E`` pairs are re-balanced
(stray ends dropped, dangling begins closed at the thread's last
timestamp) and timestamps within each thread are emitted in
non-decreasing order.  Virtual seconds become microseconds, the
``trace_event`` native unit.
"""

from __future__ import annotations

import json
from typing import Any

#: pid used for rank-stamped events and for global (rank -1) events.
JOB_PID = 0
SCHED_PID = 1


def _locate(event) -> tuple[int, int]:
    """(pid, tid) for one trace event; scheduler events get their own
    process so global decisions do not interleave rank lanes."""
    if event.rank < 0:
        return SCHED_PID, 0
    return JOB_PID, event.rank


def _duration_edge(event) -> tuple[str, str] | None:
    """(name, "B"|"E") when the event opens or closes a timed region."""
    ph = event.data.get("ph")
    return (event.label, ph) if ph in ("B", "E") else None


def _args(data: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in data.items() if k != "ph"}


def to_chrome_trace(trace) -> dict[str, Any]:
    """A ``{"traceEvents": [...]}`` dict ready for ``json.dump``.

    Every emitted event carries ``ph``, ``ts`` (microseconds), ``pid``
    and ``tid``; duration events are balanced and nested per thread.
    """
    # Stable: events sharing a timestamp keep their emission order (a
    # zero-length region's B stays ahead of its E).
    events = sorted(trace.events, key=lambda e: e.time)
    out: list[dict[str, Any]] = []
    seen: dict[tuple[int, int], float] = {}      # last ts per thread
    stacks: dict[tuple[int, int], list[str]] = {}      # open regions

    def emit(ph: str, name: str, ts: float, pid: int, tid: int,
             cat: str, args: dict[str, Any]) -> None:
        seen[(pid, tid)] = ts
        record: dict[str, Any] = {"name": name, "cat": cat, "ph": ph,
                                  "ts": ts, "pid": pid, "tid": tid}
        if ph == "i":
            record["s"] = "t"      # thread-scoped instant
        if args:
            record["args"] = args
        out.append(record)

    for event in events:
        pid, tid = _locate(event)
        ts = event.time * 1e6
        edge = _duration_edge(event)
        if edge is None:
            emit("i", event.label, ts, pid, tid, event.kind,
                 _args(event.data))
            continue
        name, ph = edge
        stack = stacks.setdefault((pid, tid), [])
        if ph == "B":
            stack.append(name)
            emit("B", name, ts, pid, tid, event.kind, _args(event.data))
        else:
            if name not in stack:
                continue  # stray end (opening half lost): drop it
            # Close inner spans a truncated trace left dangling so the
            # E we are about to emit matches its own B.
            while stack[-1] != name:
                stack.pop()
                emit("E", "", ts, pid, tid, event.kind, {})
            stack.pop()
            emit("E", name, ts, pid, tid, event.kind, _args(event.data))

    # Close anything still open at its thread's final timestamp.
    for (pid, tid), stack in stacks.items():
        while stack:
            emit("E", stack.pop(), seen[pid, tid], pid, tid, "span", {})

    meta: list[dict[str, Any]] = []
    pids = {pid for pid, _tid in seen}
    for pid in sorted(pids):
        meta.append({"name": "process_name", "ph": "M", "ts": 0.0,
                     "pid": pid, "tid": 0,
                     "args": {"name": "scheduler" if pid == SCHED_PID
                              else "job ranks"}})
    for pid, tid in sorted(seen):
        if pid == JOB_PID:
            meta.append({"name": "thread_name", "ph": "M", "ts": 0.0,
                         "pid": pid, "tid": tid,
                         "args": {"name": f"rank {tid}"}})
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
    non-decreasing timestamps per thread, and balanced, properly
    nested ``B``/``E`` pairs.
    """
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    last_ts: dict[tuple[int, int], float] = {}
    stacks: dict[tuple[int, int], list[str]] = {}
    for i, event in enumerate(events):
        for field in ("ph", "ts", "pid", "tid"):
            if field not in event:
                raise ValueError(f"event {i} missing {field!r}: {event}")
        if event["ph"] == "M":
            continue
        key = (event["pid"], event["tid"])
        if event["ts"] < last_ts.get(key, float("-inf")):
            raise ValueError(
                f"event {i}: ts {event['ts']} decreases on thread {key}")
        last_ts[key] = event["ts"]
        if event["ph"] == "B":
            stacks.setdefault(key, []).append(event.get("name", ""))
        elif event["ph"] == "E":
            stack = stacks.setdefault(key, [])
            if not stack:
                raise ValueError(f"event {i}: E without open B on {key}")
            opened = stack.pop()
            if event.get("name") not in ("", opened):
                raise ValueError(
                    f"event {i}: E {event.get('name')!r} closes B "
                    f"{opened!r} on {key}")
    for key, stack in stacks.items():
        if stack:
            raise ValueError(f"thread {key} ends with open spans: {stack}")
