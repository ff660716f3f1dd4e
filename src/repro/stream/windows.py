"""Event-time windows and the watermark that closes them.

A *windower* names a contiguous family of windows ``0, 1, 2, ...`` over
the event-time axis.  Three shapes cover the demo scenarios:

- :class:`TumblingWindows` - disjoint ``[w*size, (w+1)*size)`` panes
  (live wordcount);
- :class:`SlidingWindows` - overlapping ``[w*step, w*step + size)``
  panes, each record landing in ``size/step`` of them;
- :class:`GrowingWindows` - landmark windows ``[0, (w+1)*step)``: every
  close sees the whole prefix of the stream (incremental PageRank,
  where each "window" is the graph after one more edge delta).

Windows close on the **watermark**: ``max event time seen - allowed
lateness``.  A window whose end the watermark has passed is finalized;
a record arriving behind the watermark is *late*, and any already
closed window containing it must be re-finalized (the runner's job).
All window ends are monotone in the window id, so the runner closes
windows strictly in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _positive(what: str, value: float) -> float:
    """``value`` if it is a positive finite number, else ``ValueError``
    (a NaN or infinite size builds windows that hold no record)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"window {what} must be positive and finite, "
                         f"got {value!r}")
    return value


@dataclass(frozen=True)
class Window:
    """One pane: ``[start, end)`` in event-time seconds."""

    wid: int
    start: float
    end: float

    def contains(self, time: float) -> bool:
        return self.start <= time < self.end


class TumblingWindows:
    """Disjoint fixed-size panes partitioning the event-time axis."""

    kind = "tumbling"

    def __init__(self, size: float):
        self.size = _positive("size", size)

    def window(self, wid: int) -> Window:
        return Window(wid, wid * self.size, (wid + 1) * self.size)

    def last_wid(self, time: float) -> int:
        """Highest window id containing an event at ``time``."""
        return int(time // self.size)

    def __repr__(self) -> str:
        return f"TumblingWindows(size={self.size})"


class SlidingWindows:
    """Overlapping panes: window ``w`` spans ``[w*step, w*step+size)``."""

    kind = "sliding"

    def __init__(self, size: float, step: float):
        self.size = _positive("size", size)
        self.step = _positive("step", step)
        if step > size:
            raise ValueError("step larger than size leaves gaps; use "
                             "tumbling windows instead")

    def window(self, wid: int) -> Window:
        return Window(wid, wid * self.step, wid * self.step + self.size)

    def last_wid(self, time: float) -> int:
        return int(time // self.step)

    def __repr__(self) -> str:
        return f"SlidingWindows(size={self.size}, step={self.step})"


class GrowingWindows:
    """Landmark panes: window ``w`` spans ``[0, (w+1)*step)``.

    Every window sees the entire stream prefix - the incremental-
    recompute shape, where closing window ``w`` means "recompute the
    result over everything through step ``w``".
    """

    kind = "growing"

    def __init__(self, step: float):
        self.step = _positive("step", step)

    def window(self, wid: int) -> Window:
        return Window(wid, 0.0, (wid + 1) * self.step)

    def last_wid(self, time: float) -> int:
        return int(time // self.step)

    def __repr__(self) -> str:
        return f"GrowingWindows(step={self.step})"
