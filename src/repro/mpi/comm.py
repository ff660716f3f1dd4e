"""Per-rank communicator handle over the shared collective engine.

The API mirrors the subset of MPI both MapReduce frameworks need.
Payload conventions follow mpi4py's split: ``alltoallv`` moves raw
byte buffers (the data plane, costed exactly), while ``allreduce`` /
``allgather`` / ``bcast`` move small Python objects (the control
plane, costed at a nominal message size).

A communicator of size 1 works without any engine or threads, which
keeps serial unit tests trivial.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

from repro.mpi.engine import CollectiveEngine


class Clock:
    """Virtual per-rank clock, in seconds."""

    __slots__ = ("time",)

    def __init__(self, time: float = 0.0):
        self.time = time

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self.time += seconds


class SimComm:
    """Communicator bound to one rank of a simulated world."""

    def __init__(self, rank: int, size: int,
                 engine: CollectiveEngine | None = None):
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        if size > 1 and engine is None:
            raise ValueError("multi-rank communicators need an engine")
        self.rank = rank
        self.size = size
        self._engine = engine
        self.clock = Clock()
        #: Straggler multiplier: local (compute/I/O) time charged via
        #: :meth:`advance` is scaled by this factor.  Collectives are
        #: unaffected - a straggler slows its own work, and the job
        #: feels it at the next synchronisation, as on real hardware.
        self.slowdown = 1.0
        #: Optional per-rank metrics shard (see :mod:`repro.obs.
        #: registry`), installed by the cluster harness at launch.
        self.metrics = None

    # ------------------------------------------------------------ plumbing

    def _run(self, op: str, payload: Any, *,
             reduce_fn: Callable[[Any, Any], Any] | None = None,
             root: int = 0) -> Any:
        assert self._engine is not None
        if self.metrics is not None:
            self.metrics.inc("mpi.collectives")
        result, new_clock = self._engine.collective(
            op, self.rank, payload, self.clock.time,
            reduce_fn=reduce_fn, root=root)
        self.clock.time = new_clock
        return result

    # ---------------------------------------------------------- collectives

    def barrier(self) -> None:
        """Block until every rank reaches the barrier."""
        if self.size == 1:
            return
        self._run("barrier", None)

    def allreduce(self, value: Any,
                  op: Callable[[Any, Any], Any] = operator.add) -> Any:
        """Reduce ``value`` across ranks with ``op``; all ranks get the result."""
        if self.size == 1:
            return value
        return self._run("allreduce", value, reduce_fn=op)

    def allsum(self, value: Any) -> Any:
        return self.allreduce(value, operator.add)

    def allmax(self, value: Any) -> Any:
        return self.allreduce(value, max)

    def all_true(self, flag: bool) -> bool:
        """Logical AND across ranks (termination detection)."""
        return bool(self.allreduce(bool(flag), lambda a, b: a and b))

    def any_true(self, flag: bool) -> bool:
        """Logical OR across ranks."""
        return bool(self.allreduce(bool(flag), lambda a, b: a or b))

    def scan(self, value: Any,
             op: Callable[[Any, Any], Any] = operator.add) -> Any:
        """Inclusive prefix reduction: rank r gets op over ranks 0..r."""
        if self.size == 1:
            return value
        return self._run("scan", value, reduce_fn=op)

    def exscan(self, value: Any, zero: Any = 0,
               op: Callable[[Any, Any], Any] = operator.add) -> Any:
        """Exclusive prefix reduction: rank r gets op over ranks 0..r-1.

        Rank 0 receives ``zero``.  Implemented on top of the inclusive
        scan by shifting through an allgather-free trick: the inclusive
        result minus this rank's own contribution works only for
        invertible ops, so the generic path gathers instead.
        """
        if self.size == 1:
            return zero
        gathered = self.allgather(value)
        acc = zero
        for peer_value in gathered[: self.rank]:
            acc = op(acc, peer_value)
        return acc

    def allgather(self, value: Any) -> list[Any]:
        """Gather one object from every rank, everywhere."""
        if self.size == 1:
            return [value]
        return self._run("allgather", value)

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast ``value`` from ``root`` to all ranks."""
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range for size {self.size}")
        if self.size == 1:
            return value
        return self._run("bcast", value, root=root)

    def alltoallv(self, sends: Sequence[bytes | bytearray | memoryview],
                  ) -> list[bytes]:
        """Exchange byte buffers: ``sends[d]`` goes to rank ``d``;
        returns the buffer received from every source rank."""
        if len(sends) != self.size:
            raise ValueError(
                f"alltoallv needs {self.size} send parts, got {len(sends)}")
        if self.metrics is not None:
            self.metrics.inc("mpi.alltoallv.rounds")
            self.metrics.inc("mpi.alltoallv.bytes",
                             sum(len(part) for part in sends))
        if self.size == 1:
            return [bytes(sends[0])]
        # Zero-copy: send parts may be memoryviews over live send
        # buffers.  The collective engine materialises them with
        # ``bytes()`` in the last rank to arrive - while every other
        # rank is parked - so exactly one copy happens, race-free,
        # and the caller may reuse its buffers as soon as this returns.
        return self._run("alltoallv", list(sends))

    # -------------------------------------------------------------- timing

    def advance(self, seconds: float) -> None:
        """Charge local (compute or I/O) virtual time to this rank."""
        self.clock.advance(seconds * self.slowdown)

    def sync_time(self, time: float) -> None:
        """Set this rank's clock to an externally scheduled time.

        The elastic layer (:mod:`repro.ft.elastic`) replays task pools
        through a deterministic discrete-event schedule and then
        *replaces* the physically accumulated clock with the scheduled
        completion time - e.g. a straggler whose attempt was killed
        stops being charged at the kill point.  Collectives still take
        the max afterwards, so time can be re-scheduled but never
        un-synchronized.
        """
        if time < 0:
            raise ValueError(f"cannot sync clock to negative time {time}")
        self.clock.time = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimComm(rank={self.rank}, size={self.size}, t={self.clock.time:.6f})"
