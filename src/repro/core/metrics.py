"""Per-phase profiling: virtual time and memory at phase boundaries.

Attach a :class:`PhaseProfile` to a framework driver to record, for
every MapReduce phase, its virtual duration and the rank's memory
level before/after - the data behind statements like "the aggregate
phase dominates the footprint" or the paper's per-phase discussions.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.cluster import RankEnv


@dataclass
class PhaseRecord:
    """One executed phase on one rank."""

    name: str
    started: float            # virtual seconds
    ended: float
    mem_before: int
    mem_after: int
    peak_so_far: int          # rank peak at phase end
    #: Exchange rounds the phase ran (map+aggregate phases only).
    rounds: int = 0
    #: Bytes the phase's output container spilled to the PFS.
    spilled_bytes: int = 0
    #: Records that moved through whole-batch kernel dispatches.
    batch_records: int = 0
    #: Whole-batch dispatches (one per page or chunk); 0 means the
    #: phase ran plain per-record kernels only.
    batch_pages: int = 0

    @property
    def duration(self) -> float:
        return self.ended - self.started

    @property
    def mem_delta(self) -> int:
        return self.mem_after - self.mem_before


@dataclass
class PhaseProfile:
    """Ordered phase records for one rank of one job."""

    env: RankEnv
    records: list[PhaseRecord] = field(default_factory=list)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        started = self.env.comm.clock.time
        mem_before = self.env.tracker.current
        try:
            yield
        finally:
            self.records.append(PhaseRecord(
                name=name,
                started=started,
                ended=self.env.comm.clock.time,
                mem_before=mem_before,
                mem_after=self.env.tracker.current,
                peak_so_far=self.env.tracker.peak,
            ))

    def annotate_last(self, *, rounds: int | None = None,
                      spilled_bytes: int | None = None,
                      batch_records: int | None = None,
                      batch_pages: int | None = None) -> None:
        """Amend the most recent record with post-phase driver stats.

        The ``phase`` context manager closes before the driver knows
        its exchange-round count or how much the output spilled; the
        driver back-fills those signals here so admission-control
        estimators (see :mod:`repro.sched`) see real numbers.
        """
        if not self.records:
            return
        record = self.records[-1]
        if rounds is not None:
            record.rounds = rounds
        if spilled_bytes is not None:
            record.spilled_bytes = spilled_bytes
        if batch_records is not None:
            record.batch_records = batch_records
        if batch_pages is not None:
            record.batch_pages = batch_pages

    def total_rounds(self) -> int:
        return sum(r.rounds for r in self.records)

    def total_spilled(self) -> int:
        return sum(r.spilled_bytes for r in self.records)

    def total_time(self) -> float:
        return sum(r.duration for r in self.records)

    def by_name(self) -> dict[str, float]:
        """Aggregate duration per phase name (iterative jobs repeat)."""
        totals: dict[str, float] = {}
        for r in self.records:
            totals[r.name] = totals.get(r.name, 0.0) + r.duration
        return totals

    def dominant_phase(self) -> str | None:
        totals = self.by_name()
        if not totals:
            return None
        return max(totals, key=totals.get)

    def render(self) -> str:
        """Human-readable per-phase table."""
        lines = [f"{'phase':<16} {'time(s)':>10} {'mem delta':>12} "
                 f"{'peak':>12} {'rounds':>7} {'spilled':>10} "
                 f"{'batched':>9}"]
        for r in self.records:
            lines.append(f"{r.name:<16} {r.duration:>10.4f} "
                         f"{r.mem_delta:>+12d} {r.peak_so_far:>12d} "
                         f"{r.rounds:>7d} {r.spilled_bytes:>10d} "
                         f"{r.batch_records:>9d}")
        return "\n".join(lines)
