"""Columnar batch views over packed KV runs and grouped data.

A :class:`KVBatch` is one packed run of records - a container page, a
spilled chunk, an input chunk - held as ``bytes`` plus the int64 numpy
offset columns produced by
:meth:`~repro.core.records.KVLayout.scan`.  Fields are handed out a
block of :data:`~repro.core.records.BLOCK` records at a time, as
slices of that one ``bytes`` object: no Python frame and no
``bytes()`` call per record, and never more than one block of offsets
turned into Python ints.

Kernels opt into whole-batch processing with the
:func:`batch_kernel` decorator; the drivers always walk their input
batch by batch and call a plain (per-record) kernel from an inline
loop over the batch, so user code never has to change.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.records import BLOCK, KVLayout


def iter_slices(data: bytes | memoryview, start, stop) -> Iterator:
    """``data[start[i]:stop[i]]`` for every ``i`` of two offset columns,
    lazily, one :data:`BLOCK` of offsets at a time."""
    return chain.from_iterable(
        [data[a:b] for a, b in zip(start[lo : lo + BLOCK].tolist(),
                                   stop[lo : lo + BLOCK].tolist())]
        for lo in range(0, len(start), BLOCK))


def batch_kernel(fn):
    """Mark a callable as accepting whole batches instead of records.

    A batch map kernel is called as ``fn(ctx, batch)`` per input chunk
    or :class:`KVBatch`; a batch reduce kernel as ``fn(ctx, kmv)`` per
    :class:`KMVBatch`; a batch fold (combiner or partial reduction,
    fixed-width values) as ``fn(acc, ids, rows)`` per block
    (:class:`~repro.core.bucket.Bucket`); a batch render as
    ``fn(batch)`` per page, returning the page's output bytes.
    """
    fn.is_batch_kernel = True
    return fn


def is_batch_kernel(fn) -> bool:
    return bool(getattr(fn, "is_batch_kernel", False))


class KVBatch:
    """One packed run of KV records plus its offset columns.

    ``data`` is the run as ``bytes`` (copied once when the source is a
    live page) and covers exactly the scanned records.  The columns are
    the int64 numpy arrays of
    :meth:`KVLayout.scan <repro.core.records.KVLayout.scan>`; some are
    views of others, so treat them as read-only.

    With both lengths fixed the run is also a matrix: :attr:`rows` and
    its sort fields, :meth:`column`, are read-only views of ``data``.
    """

    __slots__ = ("data", "layout", "roff", "koff", "kend", "voff", "vend")

    #: A :class:`FrameBatch`'s columns; ``None`` for a packed run.  An
    #: attribute, not ``isinstance``, so telling the two apart costs a
    #: reader no call.
    frame = None

    def __init__(self, buf, layout: KVLayout, end: int | None = None):
        if not isinstance(buf, bytes) or end not in (None, len(buf)):
            buf = bytes(memoryview(buf)[:end])
        self.data = buf
        self.layout = layout
        self.roff, self.koff, self.kend, self.voff, self.vend = \
            layout.scan(buf)

    def __len__(self) -> int:
        return len(self.koff)

    @property
    def arena(self) -> memoryview:
        """``data`` as a ``memoryview``, for zero-copy field slices."""
        return memoryview(self.data)

    @property
    def nbytes(self) -> int:
        """Encoded bytes covered by this batch (headers included)."""
        return len(self.data)

    @property
    def payload_bytes(self) -> int:
        """Key plus value bytes, headers excluded - what the drivers
        charge compute for, without touching any record."""
        return int((self.kend - self.koff).sum() +
                   (self.vend - self.voff).sum())

    # ---------------------------------------------- fixed/fixed layouts

    @property
    def rows(self) -> np.ndarray:
        """:meth:`KVLayout.rows` of ``data``: one record per row."""
        return self.layout.rows(self.data)

    def column(self, by_value: bool = False) -> np.ndarray:
        """:meth:`KVLayout.column` of :attr:`rows`: all keys (values)."""
        return self.layout.column(self.rows, by_value)

    # ------------------------------------------------------- zero-copy

    def keys(self) -> Iterator[memoryview]:
        """Key fields as arena slices."""
        return iter_slices(self.arena, self.koff, self.kend)

    def values(self) -> Iterator[memoryview]:
        return iter_slices(self.arena, self.voff, self.vend)

    def pairs(self) -> Iterator[tuple[memoryview, memoryview]]:
        """``(key, value)`` as arena slices, in record order."""
        return zip(self.keys(), self.values())

    def record(self, i: int) -> memoryview:
        """The complete encoded record ``i`` (headers included)."""
        return self.arena[self.roff[i] : self.roff[i + 1]]

    # ----------------------------------------------- materialised views

    def keys_bytes(self) -> Iterator[bytes]:
        """Keys as ``bytes`` (hashable/orderable)."""
        return iter_slices(self.data, self.koff, self.kend)

    def values_bytes(self) -> Iterator[bytes]:
        return iter_slices(self.data, self.voff, self.vend)

    def records_bytes(self) -> Iterator[bytes]:
        """Complete encoded records (headers included) as ``bytes``."""
        return iter_slices(self.data, self.roff[:-1], self.roff[1:])

    def pairs_bytes(self) -> Iterator[tuple[bytes, bytes]]:
        """``(key, value)`` as ``bytes``, in record order."""
        return zip(self.keys_bytes(), self.values_bytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KVBatch(nrecords={len(self)}, nbytes={self.nbytes})"


class FrameBatch(KVBatch):
    """An encoded codec frame held unpacked, as its dedup columns
    (:meth:`Codec.read <repro.core.codec.Codec.read>`):
    ``frame`` is ``(body, koff, klen, ids, voff, vlen)``, where key
    ``k`` of the first-seen dictionary is ``body[koff[k]:][:klen[k]]``
    and record ``i`` is key ``ids[i]`` with value
    ``body[voff[i]:][:vlen[i]]``; every column is int32 and ``body`` is
    the frame's inflated bytes.

    A reader that knows the frame (convert) takes its columns and never
    has the records built.  To any other reader it is the
    :class:`KVBatch` of the run the frame encodes: the first read of
    ``data`` packs the records with :meth:`KVLayout.pack
    <repro.core.records.KVLayout.pack>` a block at a time, and the
    first read of an offset column scans them.  :attr:`nbytes`, the
    packed run's length, comes from the columns and packs nothing.
    """

    __slots__ = ("frame",)

    def __init__(self, frame: tuple, layout: KVLayout):
        self.frame, self.layout = frame, layout

    def __getattr__(self, name: str):
        # Only reached while the slot ``name`` is unset.
        if name == "data":
            body, koff, klen, ids, voff, vlen = self.frame
            self.data = b"".join([
                self.layout.pack(body, koff[ids[lo : lo + BLOCK]],
                                 klen[ids[lo : lo + BLOCK]],
                                 voff[lo : lo + BLOCK], vlen[lo : lo + BLOCK])
                for lo in range(0, len(ids), BLOCK)])
        elif name in ("roff", "koff", "kend", "voff", "vend"):
            self.roff, self.koff, self.kend, self.voff, self.vend = \
                self.layout.scan(self.data)
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.frame[3])

    @property
    def nbytes(self) -> int:
        """The payload plus each record's header or terminator bytes."""
        layout = self.layout
        return self.payload_bytes + \
            len(self.frame[3]) * (layout._kpad + layout._vpad)

    @property
    def payload_bytes(self) -> int:
        _, _, klen, ids, _, vlen = self.frame
        return int(klen[ids].sum(dtype=np.int64) + vlen.sum(dtype=np.int64))


class KMVBatch:
    """Groups as columns: ``keys`` (``bytes``), ``counts`` (int64) and
    the values, in group order, as ``data[voff[i]:vend[i]]`` of one
    ``bytes``; iterating yields ``(key, [values])`` one group at a time."""

    __slots__ = ("layout", "keys", "counts", "voff", "vend", "data")

    def __init__(self, layout, keys, counts, voff, vend, data):
        self.layout, self.keys, self.counts = layout, keys, counts
        self.voff, self.vend, self.data = voff, vend, data

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def payload_bytes(self) -> int:
        return sum(map(len, self.keys)) + int((self.vend - self.voff).sum())

    def values_bytes(self) -> Iterator[bytes]:
        return iter_slices(self.data, self.voff, self.vend)

    def value_rows(self, width: int) -> np.ndarray:
        """All values, in group order, as an ``(n, width)`` uint8 matrix."""
        if ((self.vend - self.voff) != width).any():
            raise ValueError(f"value rows need every value {width} bytes "
                             f"wide; the stream's layout is {self.layout}")
        if not len(self.voff):
            return np.zeros((0, width), np.uint8)
        return sliding_window_view(
            np.frombuffer(self.data, np.uint8), width)[self.voff]

    def __iter__(self) -> Iterator[tuple[bytes, list[bytes]]]:
        values = self.values_bytes()
        for key, count in zip(self.keys, self.counts.tolist()):
            yield key, list(islice(values, count))
