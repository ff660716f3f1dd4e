"""Timeline analysis and rendering: memory profiles and job lanes.

The memory half works on a :class:`~repro.memory.tracker.MemoryTracker`
created with ``keep_timeline=True``: :func:`composition_at_peak`
reconstructs what each tag held at the moment of the global peak (the
breakdown behind "the aggregate phase's seven pages dominate") and
:func:`render_timeline` draws the footprint as an ASCII profile.
:func:`render_job_lanes` draws the scheduler events of a
:class:`~repro.obs.trace.Trace` as one lane per job id.
"""

from __future__ import annotations

from repro.memory.tracker import MemoryTracker

_BLOCKS = " ▁▂▃▄▅▆▇█"

#: The event kinds the multi-job scheduler (:mod:`repro.sched`) emits
#: per job, each with its lane marker, in increasing precedence: a
#: later entry wins when two events share one timeline cell.
#: ``submit``/``queue``/``admit``/``cancel`` track admission control,
#: ``evict`` the intermediate cache, ``stage-done`` dataflow progress,
#: and ``oom`` a job that blew its footprint estimate.
LANE_MARKS = {"stage-done": "#", "evict": "e", "queue": "q",
              "submit": "S", "admit": "A", "cancel": "c", "oom": "X"}
SCHED_EVENT_KINDS = tuple(LANE_MARKS)


def composition_at_peak(tracker: MemoryTracker) -> dict[str, int]:
    """Per-tag bytes held at the allocation-time global peak.

    Requires the tracker to have been created with
    ``keep_timeline=True``; raises otherwise.
    """
    if not tracker.keep_timeline:
        raise ValueError("tracker was not created with keep_timeline=True")
    by_tag: dict[str, int] = {}
    best: dict[str, int] = {}
    best_level = -1
    for sample in tracker.timeline:
        level = by_tag.get(sample.tag, 0) + sample.delta
        if level:
            by_tag[sample.tag] = level
        else:
            by_tag.pop(sample.tag, None)
        if sample.current > best_level:
            best_level = sample.current
            best = dict(by_tag)
    return best


def render_job_lanes(trace, width: int = 60) -> str:
    """One character row per job id over a shared virtual-time axis.

    Consumes the scheduler events of a :class:`~repro.obs.trace.Trace`
    (those whose ``data`` carries a ``job`` entry): ``S`` the job was
    submitted, ``q`` it had to wait in the queue, ``A`` it was admitted
    onto the cluster, ``#`` a stage finished, ``e`` one of its cached
    containers was evicted, ``c`` it was cancelled while queued, ``X``
    it ran out of memory.
    """
    events = [e for e in trace.merged()
              if e.kind in LANE_MARKS and "job" in e.data]
    if not events:
        return "(no scheduler events)"
    jobs: dict[str, list] = {}
    for event in events:
        jobs.setdefault(str(event.data["job"]), []).append(event)
    t0 = min(e.time for e in events)
    t1 = max(e.time for e in events)
    span = (t1 - t0) or 1.0
    label_width = max(len(name) for name in jobs)
    precedence = {mark: i for i, mark in enumerate(LANE_MARKS.values())}
    lines = []
    for name, lane_events in jobs.items():
        cells = ["·"] * width
        for event in lane_events:
            col = min(width - 1, int((event.time - t0) / span * width))
            mark = LANE_MARKS[event.kind]
            if precedence.get(cells[col], -1) <= precedence[mark]:
                cells[col] = mark
        lines.append(f"{name:<{label_width}} |{''.join(cells)}|")
    lines.append(f"{'':<{label_width}}  t={t0:.3f}s .. {t1:.3f}s  "
                 "(S submit, q queued, A admit, # stage, e evict, "
                 "c cancel, X oom)")
    return "\n".join(lines)


def render_timeline(tracker: MemoryTracker, width: int = 60) -> str:
    """ASCII profile of a tracker's footprint over its allocations."""
    if not tracker.keep_timeline:
        raise ValueError("tracker was not created with keep_timeline=True")
    samples = tracker.timeline
    if not samples:
        return "(no allocations)"
    levels = [s.current for s in samples]
    peak = max(levels) or 1
    # Downsample to the requested width, keeping each bucket's maximum
    # (peaks must survive the compression).
    buckets = []
    per = max(1, -(-len(levels) // width))  # ceil: at most `width` buckets
    for start in range(0, len(levels), per):
        buckets.append(max(levels[start : start + per]))
    bars = "".join(
        _BLOCKS[min(len(_BLOCKS) - 1,
                    round(level / peak * (len(_BLOCKS) - 1)))]
        for level in buckets)
    return f"{bars}  peak={peak}B over {len(levels)} events"
