"""Columnar batch views over packed KV runs.

The per-record iterators (`KVContainer.records()` and friends)
materialise two ``bytes`` objects per record and cross several Python
frames per record - the dominant cost of every core benchmark.  A
:class:`KVBatch` is the columnar alternative: one arena (the packed
page or chunk, untouched) plus ``array('Q')`` offset columns produced
by :meth:`~repro.core.records.KVLayout.scan`.  Fields are read as
``memoryview`` slices of the arena, so iterating a whole page
allocates no per-record objects until the caller explicitly asks for
``bytes``.

Kernels opt into whole-batch processing with the
:func:`batch_kernel` decorator; the drivers always walk their input
batch by batch and call a plain (per-record) kernel from an inline
loop over the batch, so user code never has to change.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.records import KVLayout


def batch_kernel(fn):
    """Mark a callable as accepting whole batches instead of records.

    A batch map kernel is called as ``fn(ctx, batch)`` per input chunk
    or :class:`KVBatch`; a batch reduce kernel as ``fn(ctx, groups)``
    per page of ``(key, values)`` groups; a batch partial-reduce
    kernel as ``fn(bucket, batch)``.
    """
    fn.is_batch_kernel = True
    return fn


def is_batch_kernel(fn) -> bool:
    return bool(getattr(fn, "is_batch_kernel", False))


class KVBatch:
    """One packed run of KV records plus its offset columns.

    A batch is a *view*: it borrows the underlying buffer (typically a
    live container page), so it is only valid until the producing
    iterator advances.  ``arena`` covers exactly the scanned records.
    """

    __slots__ = ("arena", "roff", "koff", "kend", "voff", "vend")

    def __init__(self, buf, layout: KVLayout, end: int | None = None):
        roff, koff, kend, voff, vend = layout.scan(buf, end)
        self.arena = memoryview(buf)[: roff[-1]]
        self.roff = roff
        self.koff = koff
        self.kend = kend
        self.voff = voff
        self.vend = vend

    def __len__(self) -> int:
        return len(self.koff)

    @property
    def nbytes(self) -> int:
        """Encoded bytes covered by this batch (headers included)."""
        return self.roff[-1] if len(self.roff) else 0

    @property
    def payload_bytes(self) -> int:
        """Key plus value bytes, headers excluded - what the drivers
        charge compute for, without touching any record."""
        return (sum(self.kend) - sum(self.koff) +
                sum(self.vend) - sum(self.voff))

    # ------------------------------------------------------- zero-copy

    def keys(self) -> Iterator[memoryview]:
        """Key fields as arena slices (no per-record allocation)."""
        arena = self.arena
        for start, stop in zip(self.koff, self.kend):
            yield arena[start:stop]

    def values(self) -> Iterator[memoryview]:
        arena = self.arena
        for start, stop in zip(self.voff, self.vend):
            yield arena[start:stop]

    def pairs(self) -> Iterator[tuple[memoryview, memoryview]]:
        """``(key, value)`` as arena slices, in record order."""
        arena = self.arena
        for ks, ke, vs, ve in zip(self.koff, self.kend,
                                  self.voff, self.vend):
            yield arena[ks:ke], arena[vs:ve]

    def record(self, i: int) -> memoryview:
        """The complete encoded record ``i`` (headers included)."""
        return self.arena[self.roff[i] : self.roff[i + 1]]

    # ----------------------------------------------- materialised views

    def key_bytes(self, i: int) -> bytes:
        return bytes(self.arena[self.koff[i] : self.kend[i]])

    def value_bytes(self, i: int) -> bytes:
        return bytes(self.arena[self.voff[i] : self.vend[i]])

    def keys_bytes(self) -> Iterator[bytes]:
        """Keys as ``bytes`` (hashable/orderable), one tight frame."""
        arena = self.arena
        for start, stop in zip(self.koff, self.kend):
            yield bytes(arena[start:stop])

    def pairs_bytes(self) -> Iterator[tuple[bytes, bytes]]:
        """``(key, value)`` as ``bytes``: the compatibility iterator.

        Yields exactly what :meth:`KVLayout.iter_records` would for the
        same buffer, but from precomputed offsets in a single frame.
        """
        arena = self.arena
        for ks, ke, vs, ve in zip(self.koff, self.kend,
                                  self.voff, self.vend):
            yield bytes(arena[ks:ke]), bytes(arena[vs:ve])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KVBatch(nrecords={len(self)}, nbytes={self.nbytes})"
