"""Out-of-core spill streams on a storage backend.

When a framework's in-memory page fills, the page contents are written
to a per-rank spill stream and later read back one chunk at a time.
Chunk boundaries are preserved so that record encodings (which never
straddle a page) can be decoded chunk-by-chunk on the way back in.

Spill streams use the :class:`~repro.storage.base.StorageBackend`
surface (``append``/``read``/``delete``), so they run unchanged on
every storage spec - priced as the shared PFS, the in-memory KV tier,
or ``extsort``'s node-local ``spill/`` namespace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mpi.comm import SimComm
from repro.storage.base import StorageBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.codec import Codec


class SpillWriter:
    """Appends page-sized chunks to ``spill/<name>.<rank>``.

    With the :mod:`~repro.core.codec` attached, the chunks arrive
    already framed (:meth:`write_encoded`, a container's frozen pages)
    and the reader decodes them, so on-PFS bytes (``total_bytes``,
    what the spill costs to write and read back) shrink by the
    compression ratio while callers keep seeing the original page
    payloads.
    """

    def __init__(self, pfs: StorageBackend, comm: SimComm, name: str,
                 *, codec: "Codec | None" = None):
        self.pfs = pfs
        self.comm = comm
        self.path = f"spill/{name}.{comm.rank}"
        self.chunks: list[tuple[int, int]] = []  # (offset, length)
        self.total_bytes = 0
        self.codec = codec

    def write_chunk(self, data: bytes | bytearray | memoryview) -> None:
        """Spill one chunk (typically a full page) to the PFS, as it is."""
        payload = bytes(data)
        if payload:
            self._append(payload)

    def write_encoded(self, frame: bytes) -> None:
        """Spill a chunk that is already codec-framed (a frozen page)."""
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
        return SpillReader(self.pfs, self.comm, self.path, list(self.chunks),
                           codec=self.codec)

    def discard(self) -> None:
        """Remove the spill file (job teardown)."""
        self.pfs.delete(self.path)
        self.chunks.clear()


class SpillReader:
    """Reads chunks back in write order, charging PFS read costs."""

    def __init__(self, pfs: StorageBackend, comm: SimComm, path: str,
                 chunks: list[tuple[int, int]], *,
                 codec: "Codec | None" = None):
        self.pfs = pfs
        self.comm = comm
        self.path = path
        self.chunks = chunks
        self.codec = codec
        self._next = 0

    def __iter__(self) -> "SpillReader":
        return self

    def __next__(self) -> bytes:
        if self._next >= len(self.chunks):
            raise StopIteration
        offset, length = self.chunks[self._next]
        data = self.pfs.read(self.comm, self.path, offset, length)
        if self.codec is not None:
            data = self.codec.decode_frame(data)
        # Advance only after the read succeeds: a transient fault
        # surfaced to a retry wrapper must re-read this chunk, not
        # silently skip it.
        self._next += 1
        return data

    @property
    def remaining(self) -> int:
        return len(self.chunks) - self._next
