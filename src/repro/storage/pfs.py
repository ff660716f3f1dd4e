"""Simulated globally shared parallel file system.

Files are named byte blobs visible to every rank.  Accesses made
through a communicator charge virtual time using the platform's
:class:`~repro.mpi.costmodel.PFSModel`; ``store``/``fetch`` are
zero-cost staging hooks for test and benchmark setup (the equivalent
of data already resident before the timed job starts is *not* free -
input reads go through :meth:`read` - but generating the dataset is).

The PFS is the *reference* implementation of the
:class:`~repro.storage.base.StorageBackend` protocol and the default
substrate.  Checkpoints, spill streams, the stage cache, and the serve
journal all program against the protocol, so they run unchanged on the
alternate backends in :mod:`repro.storage`.
"""

from __future__ import annotations

import threading

from repro.mpi.costmodel import PFSModel
from repro.storage.base import StorageBackend


class ParallelFileSystem(StorageBackend):
    """Thread-safe shared blob store with an I/O cost model.

    ``sharers`` models bandwidth contention: the ranks of one node
    share the node's PFS pipe, so each rank sees ``bandwidth /
    sharers``.  This contention is what makes I/O spillover from a
    fully populated node as catastrophic as the paper's Figure 1.
    """

    name = "pfs"

    def __init__(self, model: PFSModel | None = None, sharers: int = 1):
        if sharers <= 0:
            raise ValueError(f"sharers must be positive, got {sharers}")
        super().__init__(model)
        self.sharers = sharers
        self._files: dict[str, bytearray] = {}
        self._lock = threading.Lock()

    # --------------------------------------------------- blob primitives

    def _bucket(self, path: str) -> tuple[threading.Lock, dict]:
        return self._lock, self._files

    def _snapshot_keys(self) -> list[str]:
        with self._lock:
            return list(self._files)

    def _cost(self, path: str, nbytes: int, write: bool = False) -> float:
        return self.model.access_cost(nbytes * self.sharers, write)
