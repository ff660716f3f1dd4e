"""Deterministic simulated MPI runtime.

Each rank runs as a thread against a shared :class:`CollectiveEngine`
that implements the collective operations both MapReduce frameworks
need (``alltoallv``, ``allreduce``, ``allgather``, ``bcast``,
``barrier``) with real blocking semantics: a collective completes only
once every rank has entered it, exactly like MPI.  Collectives are the
only blocking primitive, and exactly one rank is runnable at a time: a
rank runs until it enters a collective, then the next rank in rank
order takes its turn, so the interleaving - and with it every counter,
fault trace and failure-path clock - is a function of the program, not
of the thread scheduler.  A virtual clock is synchronised at every
collective using an alpha-beta network cost model parameterised per
platform, which is what gives the benchmarks their shape-preserving
"execution time" series.
"""

from repro.mpi.comm import SimComm
from repro.mpi.costmodel import NetworkModel, PFSModel
from repro.mpi.errors import (
    CollectiveMismatchError,
    DeadlockError,
    RankFailedError,
    WorldAbortedError,
)
from repro.mpi.platforms import COMET, MIRA, Platform
from repro.mpi.world import World, WorldResult

__all__ = [
    "COMET",
    "CollectiveMismatchError",
    "DeadlockError",
    "MIRA",
    "NetworkModel",
    "PFSModel",
    "Platform",
    "RankFailedError",
    "SimComm",
    "World",
    "WorldAbortedError",
    "WorldResult",
]
