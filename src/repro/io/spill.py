"""Out-of-core spill streams on a storage backend.

When a framework's in-memory page fills, the page contents are written
to a per-rank spill stream and later read back one chunk at a time.
A spill stream carries bytes: each chunk is stored and returned as it
was written, and its boundaries are kept, so a record encoding (which
never straddles a page) or a container's codec frame comes back whole.
What a chunk holds is its writer's business: a container that frames
its pages (:mod:`~repro.core.kvcontainer`) reads its frames back itself.

Spill streams use the :class:`~repro.storage.base.StorageBackend`
surface (``append``/``read``/``delete``), so they run unchanged on
every storage spec - priced as the shared PFS, the in-memory KV tier,
or ``extsort``'s node-local ``spill/`` namespace.
"""

from __future__ import annotations

from repro.mpi.comm import SimComm
from repro.storage.base import StorageBackend


class SpillWriter:
    """Appends page-sized chunks to ``spill/<name>.<rank>``;
    ``total_bytes`` is what the spill costs to write and read back."""

    def __init__(self, pfs: StorageBackend, comm: SimComm, name: str):
        self.pfs = pfs
        self.comm = comm
        self.path = f"spill/{name}.{comm.rank}"
        self.chunks: list[tuple[int, int]] = []  # (offset, length)
        self.total_bytes = 0

    def write_chunk(self, data: bytes | bytearray | memoryview) -> None:
        """Spill one chunk (typically a full page) to the PFS, as it is."""
        payload = bytes(data)
        if payload:
            self._append(payload)

    def write_encoded(self, frame: bytes) -> None:
        """Spill a chunk already held as ``bytes`` (a container's frozen
        page), without copying it."""
        if frame:
            self._append(frame)

    def _append(self, payload: bytes) -> None:
        offset = self.pfs.append(self.comm, self.path, payload)
        self.chunks.append((offset, len(payload)))
        self.total_bytes += len(payload)

    @property
    def nchunks(self) -> int:
        return len(self.chunks)

    def reader(self) -> "SpillReader":
        return SpillReader(self.pfs, self.comm, self.path, list(self.chunks))

    def discard(self) -> None:
        """Remove the spill file (job teardown)."""
        self.pfs.delete(self.path)
        self.chunks.clear()


class SpillReader:
    """Reads chunks back in write order, as they were written, charging
    PFS read costs."""

    def __init__(self, pfs: StorageBackend, comm: SimComm, path: str,
                 chunks: list[tuple[int, int]]):
        self.pfs = pfs
        self.comm = comm
        self.path = path
        self.chunks = chunks
        self._next = 0

    def __iter__(self) -> "SpillReader":
        return self

    def __next__(self) -> bytes:
        if self._next >= len(self.chunks):
            raise StopIteration
        offset, length = self.chunks[self._next]
        data = self.pfs.read(self.comm, self.path, offset, length)
        # Advance only after the read succeeds: a transient fault
        # surfaced to a retry wrapper must re-read this chunk, not
        # silently skip it.
        self._next += 1
        return data

    @property
    def remaining(self) -> int:
        return len(self.chunks) - self._next
