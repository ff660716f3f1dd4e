"""The collective engine shared by all rank threads of one world.

Exactly one rank runs at a time: the one holding the *baton*.  Every
other rank is parked on its own gate (a closed lock).  A rank entering
a collective through :meth:`CollectiveEngine.collective` deposits its
operation name, payload and virtual clock, opens the gate of the lowest
rank that can still run, and parks; the last rank to arrive computes
the exchange result and the synchronised clock while every other rank
is parked, and keeps running.  A rank that returns passes the baton on.
The interleaving is therefore a function of the program alone.
Mismatched collectives, and collectives that can never complete, are
detected at once (rather than deadlocking), and a failing rank aborts
the world: the others are woken one at a time to unwind.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.mpi.costmodel import NetworkModel
from repro.mpi.errors import (
    CollectiveMismatchError,
    DeadlockError,
    WorldAbortedError,
)

#: Nominal payload size charged for object-valued control-plane
#: collectives (allreduce/bcast/allgather of flags and counters).
_CONTROL_BYTES = 64


class CollectiveEngine:
    """Sequences collective operations for ``nprocs`` rank threads."""

    def __init__(self, nprocs: int, network: NetworkModel,
                 nnodes: int | None = None):
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        if nnodes is not None and nnodes <= 0:
            raise ValueError(f"nnodes must be positive, got {nnodes}")
        self.nprocs = nprocs
        self.nnodes = nnodes or nprocs
        self.network = network
        self._ops: list[str | None] = [None] * nprocs
        self._payloads: list[Any] = [None] * nprocs
        self._clocks: list[float] = [0.0] * nprocs
        self._results: list[Any] = [None] * nprocs
        self._reduce_fn: Callable[[Any, Any], Any] | None = None
        self._root = 0
        self._new_clock = 0.0
        self._error: BaseException | None = None
        self._returned: set[int] = set()
        self._aborted = False
        self._abort_reason: BaseException | None = None
        # A closed gate is a parked rank; rank 0 holds the baton first.
        self._gates = [threading.Lock() for _ in range(nprocs)]
        for gate in self._gates[1:]:
            gate.acquire()

    # ------------------------------------------------------------------ API

    def start(self, rank: int) -> None:
        """Park until this rank is first handed the baton."""
        self._gates[rank].acquire()
        if self._aborted:
            raise WorldAbortedError("world aborted before this rank ran")

    def collective(self, op: str, rank: int, payload: Any, clock: float, *,
                   reduce_fn: Callable[[Any, Any], Any] | None = None,
                   root: int = 0) -> tuple[Any, float]:
        """Run one collective; returns ``(result, synchronised_clock)``."""
        if self._aborted:
            raise WorldAbortedError("world already aborted")
        if self._returned:
            reason = DeadlockError(
                f"rank {rank} entered {op!r} after rank(s) "
                f"{sorted(self._returned)} already returned")
            self.abort(reason)
            raise reason
        self._ops[rank] = op
        self._payloads[rank] = payload
        self._clocks[rank] = clock
        if reduce_fn is not None:
            self._reduce_fn = reduce_fn
        if root:
            self._root = root
        if None in self._ops:
            self._pass_baton()
            self._gates[rank].acquire()
        else:
            self._compute()  # last to arrive: every other rank is parked
        if self._error is not None:
            raise self._error
        if self._aborted:
            # A deadlock is itself the root cause, not a side effect
            # of another rank's failure.
            raise self._abort_reason or WorldAbortedError(
                "world aborted during a collective")
        return self._results[rank], self._new_clock

    def rank_done(self, rank: int) -> None:
        """A rank function returned or unwound: pass the baton on."""
        self._returned.add(rank)
        blocked = ", ".join(f"rank {r} in {op!r}"
                            for r, op in enumerate(self._ops) if op is not None)
        if blocked and not self._aborted:
            # The waiting collective can never complete.
            self.abort(DeadlockError(
                f"rank {rank} returned while other ranks wait in a "
                f"collective ({blocked})"))
        self._pass_baton()

    def abort(self, reason: BaseException | None = None) -> None:
        """Mark the world dead: every rank woken from now on unwinds."""
        if not self._aborted:
            self._aborted = True
            self._abort_reason = reason

    # ------------------------------------------------------------ internals

    def _pass_baton(self) -> None:
        """Wake the lowest rank that can run; once aborted, that is any
        rank still alive, so blocked ranks unwind too."""
        for rank, op in enumerate(self._ops):
            if rank not in self._returned and (op is None or self._aborted):
                self._gates[rank].release()
                return

    def _compute(self) -> None:
        """Runs in the last rank to arrive, exactly once per operation."""
        ops, self._ops = self._ops, [None] * self.nprocs
        self._error = None
        self._new_clock = max(self._clocks)
        try:
            if len(set(ops)) != 1:
                raise CollectiveMismatchError(dict(enumerate(ops)))
            self._new_clock += self._dispatch(ops[0])
        except Exception as exc:  # every rank of the operation raises it
            self._error = exc
            self._results = [None] * self.nprocs

    def _dispatch(self, op: str) -> float:
        p = self.nprocs
        net = self.network
        if op == "barrier":
            self._results = [None] * p
            return net.barrier_cost(p, self.nnodes)
        if op == "allreduce":
            fn = self._reduce_fn
            if fn is None:
                raise ValueError("allreduce requires a reduce function")
            acc = self._payloads[0]
            for value in self._payloads[1:]:
                acc = fn(acc, value)
            self._results = [acc] * p
            self._reduce_fn = None
            return net.allreduce_cost(p, _CONTROL_BYTES, self.nnodes)
        if op == "allgather":
            gathered = list(self._payloads)
            self._results = [gathered] * p
            return net.allgather_cost(p, _CONTROL_BYTES, self.nnodes)
        if op == "bcast":
            value = self._payloads[self._root]
            self._results = [value] * p
            self._root = 0
            return net.bcast_cost(p, _CONTROL_BYTES, self.nnodes)
        if op == "scan":
            fn = self._reduce_fn
            if fn is None:
                raise ValueError("scan requires a reduce function")
            results = []
            acc = None
            for value in self._payloads:
                acc = value if acc is None else fn(acc, value)
                results.append(acc)
            self._results = results
            self._reduce_fn = None
            return net.allreduce_cost(p, _CONTROL_BYTES, self.nnodes)
        if op == "alltoallv":
            sends: Sequence[Sequence[bytes]] = self._payloads
            for r, parts in enumerate(sends):
                if len(parts) != p:
                    raise ValueError(
                        f"rank {r} passed {len(parts)} alltoallv parts, "
                        f"expected {p}")
            self._results = [
                [bytes(sends[src][dst]) for src in range(p)]
                for dst in range(p)
            ]
            max_send = max(sum(len(part) for part in parts) for parts in sends)
            return net.alltoallv_cost(p, max_send, self.nnodes)
        raise ValueError(f"unknown collective {op!r}")
