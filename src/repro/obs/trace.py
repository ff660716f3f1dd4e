"""Structured event tracing: one :class:`Trace`, one clock rule.

A :class:`Trace` collects typed events (phase boundaries, exchange
rounds, stage completions, scheduler decisions, custom markers) with
virtual timestamps and rank ids.  Cheap enough to leave attached in
tests; off by default everywhere.

**The clock rule.**  Rank clocks restart at zero in every launch, so
an event happened at the cumulative time its launch started at plus
the rank's clock.  That base travels with the trace: whoever starts a
launch (:meth:`repro.cluster.Cluster.run`) hands its ranks
:meth:`Trace.at` ``(base)`` as ``env.trace``, and :meth:`Trace.emit`
and :meth:`Trace.region` are the only places the two are added.  A
recording method takes its own parameters by position, so any keyword
is event data.

**One duration encoding.**  A timed region (:meth:`Trace.span`, the job
driver's ``phase`` events) is one event that :meth:`Trace.region`
records as it closes, at its start ``time`` with its ``dur``;
:mod:`repro.obs.chrome` exports it as a Perfetto complete event.
"""

from __future__ import annotations

import copy
import json
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator

#: Fields of a saved event, in :class:`Event` order, and the JSON types
#: each accepts (``data`` may be absent).
_EVENT_FIELDS = (("time", (int, float)), ("rank", int), ("kind", str),
                 ("label", str), ("data", dict))


@dataclass(frozen=True)
class Event:
    """One traced occurrence on one rank (a region when ``dur`` is set)."""

    time: float
    rank: int
    kind: str                     # "phase", "exchange", "stage-done", ...
    label: str
    data: dict[str, Any] = field(default_factory=dict)
    dur: float | None = None      # virtual seconds; None for an instant


class Trace:
    """Thread-safe event sink shared by all ranks of a job."""

    def __init__(self):
        self._events: list[Event] = []
        self._lock = threading.Lock()
        self._base = 0.0

    def at(self, base: float) -> "Trace":
        """A view for a launch that started at cumulative virtual time
        ``base``: same events, same lock, :meth:`emit` adds ``base``."""
        view = copy.copy(self)
        view._base = base
        return view

    def emit(self, env, kind: str, label: str, /, **data: Any) -> None:
        """Record one event stamped with the rank's virtual clock."""
        # Built here, not through emit_abs: every traced run pays one
        # call per event, and the reference benchmark counts them.
        event = Event(time=self._base + env.comm.clock.time,
                      rank=env.comm.rank, kind=kind, label=label,
                      data=data)
        with self._lock:
            self._events.append(event)

    def emit_abs(self, time: float, rank: int, kind: str, label: str,
                 dur: float | None = None, /, **data: Any) -> None:
        """Record one event (a region with ``dur``) at an explicit time:
        the scheduler's global (``rank`` -1) decisions, synthetic traces."""
        event = Event(time=time, rank=rank, kind=kind, label=label,
                      data=data, dur=dur)
        with self._lock:
            self._events.append(event)

    def region(self, env, kind: str, label: str, start: float, /,
               **data: Any) -> None:
        """Record the region that began at rank clock ``start`` and
        closes now, with the ``data`` it closes with."""
        begin = self._base + start
        event = Event(time=begin, rank=env.comm.rank, kind=kind,
                      label=label, data=data,
                      dur=self._base + env.comm.clock.time - begin)
        with self._lock:
            self._events.append(event)

    @contextmanager
    def span(self, env, name: str, /, **data: Any) -> Iterator[None]:
        """Context manager recording its body as a ``span`` region.

        Spans nest: opening a span inside another yields the parent/
        child hierarchy the Perfetto flame view renders.  The region is
        recorded even when the body raises.
        """
        start = env.comm.clock.time
        try:
            yield
        finally:
            self.region(env, "span", name, start, **data)

    # ------------------------------------------------------------ queries

    @property
    def events(self) -> list[Event]:
        with self._lock:
            return list(self._events)

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def merged(self) -> list[Event]:
        """All events in virtual-time order (rank breaks ties)."""
        return sorted(self.events, key=lambda e: (e.time, e.rank))

    # ------------------------------------------------------------ exports

    def to_json(self) -> str:
        return json.dumps([{k: v for k, v in asdict(e).items()
                            if v is not None}       # an instant: no dur
                           for e in self.merged()], indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Rebuild a trace saved with :meth:`to_json` (``repro report
        --from-trace`` consumes this format); anything but a list of
        well-typed events raises ``ValueError`` naming the entry."""
        loaded = json.loads(text)
        if not isinstance(loaded, list):
            hint = (" (this looks like a Chrome/Perfetto export; "
                    "--from-trace wants Trace.to_json output)"
                    if isinstance(loaded, dict) and "traceEvents" in loaded
                    else "")
            raise ValueError(f"not a saved Trace: expected a JSON list "
                             f"of events{hint}")
        trace = cls()
        for i, entry in enumerate(loaded):
            if not isinstance(entry, dict):
                raise ValueError(f"event {i}: expected an object, got "
                                 f"{type(entry).__name__}")
            fields = {"data": {}, **entry}
            for name, types in _EVENT_FIELDS:
                value = fields.get(name)
                if not isinstance(value, types) or isinstance(value, bool):
                    raise ValueError(f"event {i}: {name!r} is missing or "
                                     f"mistyped ({value!r})")
            if not abs(fields["time"]) < float("inf"):
                raise ValueError(f"event {i}: 'time' must be finite "
                                 f"({fields['time']!r})")
            dur = fields.get("dur")
            if "dur" in fields and not (type(dur) in (int, float)
                                        and 0 <= dur < float("inf")):
                raise ValueError(f"event {i}: 'dur' must be a finite "
                                 f"number >= 0 ({dur!r})")
            if dur is None and fields["kind"] in ("phase", "span"):
                raise ValueError(f"event {i}: a {fields['kind']!r} event "
                                 f"has no 'dur' (saved as B/E pairs?)")
            trace._events.append(
                Event(*(fields[name] for name, _ in _EVENT_FIELDS), dur))
        return trace

    def render(self, limit: int = 50) -> str:
        lines = [f"{'t(virt)':>10}  {'rank':>4}  {'kind':<10} label"]
        for event in self.merged()[:limit]:
            lines.append(f"{event.time:>10.5f}  {event.rank:>4}  "
                         f"{event.kind:<10} {event.label}")
        extra = len(self.events) - limit
        if extra > 0:
            lines.append(f"... {extra} more events")
        return "\n".join(lines)

    def summary(self) -> dict[str, int]:
        """Event counts by kind."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
