"""Launch a simulated MPI world: one thread per rank.

:class:`World` owns the collective engine and the rank threads, of
which the engine lets exactly one run at a time.  A rank function has
the signature ``fn(comm, *args) -> value``; per-rank return values,
final clocks, and the elapsed virtual time (the maximum clock, i.e.
job completion) are collected in :class:`WorldResult`.

Failure semantics match an MPI job killed by its launcher: the first
rank exception aborts the world, bystander ranks unwind with
:class:`WorldAbortedError` (one that never ran does not start), and
:meth:`World.run` re-raises the original failure wrapped in
:class:`RankFailedError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.mpi.comm import SimComm
from repro.mpi.costmodel import NetworkModel
from repro.mpi.engine import CollectiveEngine
from repro.mpi.errors import RankFailedError, WorldAbortedError

#: Conservative default network when a world is created bare (tests).
DEFAULT_NETWORK = NetworkModel(latency=1e-6, bandwidth=1e9)


@dataclass
class WorldResult:
    """Outcome of one simulated job."""

    returns: list[Any]
    clocks: list[float]

    @property
    def elapsed(self) -> float:
        """Virtual job completion time (slowest rank)."""
        return max(self.clocks) if self.clocks else 0.0


class World:
    """A fixed-size group of simulated ranks."""

    def __init__(self, size: int, network: NetworkModel | None = None, *,
                 nnodes: int | None = None):
        if size <= 0:
            raise ValueError(f"world size must be positive, got {size}")
        self.size = size
        self.network = network or DEFAULT_NETWORK
        self.nnodes = nnodes

    def run(self, fn: Callable[..., Any], *common_args: Any,
            rank_args: Sequence[Sequence[Any]] | None = None) -> WorldResult:
        """Execute ``fn(comm, *common_args, *rank_args[rank])`` on every rank."""
        if rank_args is not None and len(rank_args) != self.size:
            raise ValueError(
                f"rank_args has {len(rank_args)} entries for {self.size} ranks")

        if self.size == 1:
            comm = SimComm(0, 1)
            extra = tuple(rank_args[0]) if rank_args is not None else ()
            try:
                value = fn(comm, *common_args, *extra)
            except Exception as exc:
                # Same failure surface as the threaded path.
                raise RankFailedError(0, exc) from exc
            return WorldResult([value], [comm.clock.time])

        engine = CollectiveEngine(self.size, self.network, self.nnodes)
        returns: list[Any] = [None] * self.size
        clocks: list[float] = [0.0] * self.size
        errors: dict[int, BaseException] = {}

        def runner(rank: int) -> None:
            comm = SimComm(rank, self.size, engine)
            extra = tuple(rank_args[rank]) if rank_args is not None else ()
            try:
                engine.start(rank)
                returns[rank] = fn(comm, *common_args, *extra)
            except WorldAbortedError:
                pass  # bystander of another rank's failure
            except BaseException as exc:  # noqa: BLE001 - report any rank failure
                errors[rank] = exc
                engine.abort()
            finally:
                clocks[rank] = comm.clock.time
                engine.rank_done(rank)

        threads = [
            threading.Thread(target=runner, args=(rank,),
                             name=f"simrank-{rank}", daemon=True)
            for rank in range(self.size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        if errors:
            rank = min(errors)
            failure = RankFailedError(rank, errors[rank])
            # Expose the virtual time the failed attempt consumed, so
            # fault-tolerance harnesses can charge lost work.
            failure.clocks = list(clocks)
            raise failure from errors[rank]
        return WorldResult(returns, clocks)
