"""Errors raised by the simulated MPI runtime."""

from __future__ import annotations


class MPIError(RuntimeError):
    """Base class for simulated-MPI failures."""


class CollectiveMismatchError(MPIError):
    """Raised when ranks disagree on which collective they are entering.

    A real MPI job would deadlock or corrupt data; the simulator detects
    the mismatch deterministically and reports every rank's call.
    """

    def __init__(self, calls: dict[int, str]):
        self.calls = dict(calls)
        ops = ", ".join(f"rank {r}: {op}" for r, op in sorted(calls.items()))
        super().__init__(f"ranks entered different collectives ({ops})")


class DeadlockError(MPIError):
    """Raised when a collective can provably never complete.

    Happens when some rank's function has already returned while other
    ranks are still entering collectives - the simulated equivalent of
    an MPI job hanging in ``MPI_Barrier`` forever.
    """


class WorldAbortedError(MPIError):
    """Raised inside surviving ranks when another rank has failed.

    The originating exception is re-raised by :meth:`World.run`; this
    error only unwinds the bystander threads.
    """


class RankFailedError(MPIError):
    """Raised by :meth:`World.run` when a rank function raised.

    Wraps the original exception (``__cause__``) and records the rank
    and every rank's clock at the abort (the time the attempt consumed).
    """

    def __init__(self, rank: int, original: BaseException,
                 clocks: "list[float] | None" = None):
        self.rank = rank
        self.original = original
        self.clocks = clocks or []
        super().__init__(f"rank {rank} failed: {original!r}")
