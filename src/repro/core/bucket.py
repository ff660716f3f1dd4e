"""The memory-accounted hash bucket of unique keys.

One bucket serves the places the paper keeps per-unique-key state - the
two-pass convert, KV compression (map-side combine), partial reduction -
and the skew sampler: a key -> slot dict in first-seen order, plus, under
a fold, a column of one value per slot.  Records arrive a block of
:data:`~repro.core.records.BLOCK` at a time and the rank's memory
tracker is charged once per block: the paper is explicit that these
buckets cost memory and only pay off when duplicate keys are frequent.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Iterator

import numpy as np

from repro.core.batch import is_batch_kernel
from repro.core.errors import ConfigError
from repro.core.records import BLOCK, CSTRING, VARIABLE, KVLayout
from repro.memory.tracker import MemoryTracker


def group_run(index: dict[bytes, int], keys) -> tuple[list, np.ndarray]:
    """Group ids of ``keys``, numbering unique keys in first-seen order.

    ``index`` (key -> id) is extended in place; returns the keys new to
    it and one id per key.  The one grouping primitive behind every
    bucket and the out-of-core partition grouping.
    """
    base = len(index)
    # One probe per key: ``setdefault`` is handed the size the index has
    # at that moment, which is the next free id.
    ids = np.fromiter(map(index.setdefault, keys, map(len, repeat(index))),
                      np.intp, len(keys))
    new = list(islice(reversed(index), len(index) - base))
    new.reverse()
    return new, ids


class Bucket:
    """Unique keys in first-seen order, charged to a tracker at
    ``len(key) + entry_overhead`` bytes per entry plus, under a fold,
    the bytes of its value (adjusted when a fold changes their number).

    A paper-API ``fold(key, a, b) -> value`` keeps a list of ``bytes``,
    one per slot; a :func:`~repro.core.batch.batch_kernel`
    ``fold(acc, ids, rows)`` keeps the rows of one ``(slots, val_len)``
    uint8 matrix, so the stream's ``layout`` must fix the value width.
    """

    def __init__(self, tracker: MemoryTracker, entry_overhead: int = 48,
                 tag: str = "bucket", fold=None,
                 layout: KVLayout | None = None):
        self.tracker = tracker
        self.entry_overhead = entry_overhead
        self.tag = tag
        self.fold = fold
        self.index: dict[bytes, int] = {}
        self.accounted_bytes = 0
        #: The folded value of every slot: a list, or the matrix (its
        #: capacity doubles; the first ``len(self)`` rows are live).
        self.values: list | np.ndarray = []
        if fold is not None and is_batch_kernel(fold):
            if layout is None or layout.val_len in (VARIABLE, CSTRING):
                raise ConfigError(
                    f"batch fold {getattr(fold, '__name__', fold)!r} needs "
                    f"fixed-width values, but the stream's layout is "
                    f"{layout}; use the per-record fold(key, a, b) form")
            self.values = np.zeros((0, layout.val_len), np.uint8)

    def __len__(self) -> int:
        return len(self.index)

    def _charge(self, delta: int) -> None:
        if delta > 0:
            self.tracker.allocate(delta, self.tag)
        elif delta:
            self.tracker.free(-delta, self.tag)
        self.accounted_bytes += delta

    def enter_run(self, keys) -> np.ndarray:
        """The slot of every key of one block; keys new to the bucket
        are charged in one allocation."""
        new, ids = group_run(self.index, keys)
        if new:
            self._charge(sum(map(len, new)) + len(new) * self.entry_overhead)
        return ids

    # ----------------------------------------------------- value column

    def fold_columns(self, keys, values) -> int:
        """Fold two lazy, equally long columns of records in; returns
        their length.  Every record of a key after its first is folded
        into the slot's value, in record order, a block per pass."""
        count = 0
        while block := list(islice(keys, BLOCK)):
            self._fold_block(block, list(islice(values, len(block))))
            count += len(block)
        return count

    def _fold_block(self, keys: list, values: list) -> None:
        new, ids = group_run(self.index, keys)
        nnew, slots, nslots = len(new), self.values, len(self.index)
        delta = sum(map(len, new)) + nnew * self.entry_overhead
        if isinstance(slots, list):
            # Value bytes the block touches, before and after: the
            # size delta without a ``len`` per record.
            touched = np.unique(ids)
            held = touched[: np.searchsorted(touched, nslots - nnew)]
            delta -= sum(map(len, map(slots.__getitem__, held.tolist())))
            slots.extend(repeat(None, nnew))
            fold = self.fold
            for key, slot, value in zip(keys, ids.tolist(), values):
                old = slots[slot]
                slots[slot] = value if old is None else fold(key, old, value)
            delta += sum(map(len, map(slots.__getitem__, touched.tolist())))
        else:
            width = slots.shape[1]
            data = b"".join(values)
            if len(data) != len(keys) * width:
                raise ValueError(
                    f"batch folds need every value {width} bytes wide; "
                    f"{len(keys)} values came to {len(data)} bytes")
            rows = np.frombuffer(data, np.uint8).reshape(-1, width)
            if nnew:
                # A key's first value is stored here; slots are numbered
                # in first-seen order, so that is where the running
                # maximum of the ids passes the old slot count.
                top = np.maximum.accumulate(
                    np.maximum(ids, nslots - nnew - 1))
                first = np.empty(len(ids), bool)
                first[0] = top[0] >= nslots - nnew
                np.not_equal(top[1:], top[:-1], out=first[1:])
                if nslots > len(slots):  # capacity at least doubles
                    pad = np.zeros((max(nslots, 2 * len(slots)) - len(slots),
                                    width), np.uint8)
                    self.values = slots = np.concatenate((slots, pad))
                slots[nslots - nnew : nslots] = rows[first]
                ids, rows = ids[~first], rows[~first]
                delta += nnew * width
            if len(ids):
                self.fold(slots[:nslots], ids, rows)
        self._charge(delta)

    def fold_one(self, key: bytes, value: bytes) -> None:
        """Scalar form of :meth:`fold_columns`, for the per-record
        ``emit``: one dict probe, charged on the spot."""
        slots = self.values
        if not isinstance(slots, list):
            return self._fold_block([key], [value])
        slot = self.index.get(key)
        if slot is None:
            self.index[key] = len(slots)
            slots.append(value)
            self._charge(len(key) + len(value) + self.entry_overhead)
        else:
            old = slots[slot]
            slots[slot] = new = self.fold(key, old, value)
            if len(new) != len(old):
                self._charge(len(new) - len(old))

    def drain(self) -> Iterator[tuple[list[bytes], list[bytes]]]:
        """Destructive iteration: the entries as ``(keys, values)``
        blocks in slot order, each released from the accounting (one
        ``free``) and from this bucket before it is yielded - how Mimir
        reclaims bucket memory while flushing into the send buffer."""
        keys, values = list(self.index), self.values
        self.index.clear()
        for lo in range(0, len(keys), BLOCK):
            block = keys[lo : lo + BLOCK]
            # Handed out is no longer held: the columns keep holes.
            keys[lo : lo + BLOCK] = hole = [None] * len(block)
            if isinstance(values, list):
                fields = values[lo : lo + BLOCK]
                values[lo : lo + BLOCK] = hole
            else:
                data, width = values[lo : lo + BLOCK].tobytes(), values.shape[1]
                fields = [data[i : i + width]
                          for i in range(0, len(block) * width, width)]
            self._charge(-(sum(map(len, block)) + sum(map(len, fields))
                           + len(block) * self.entry_overhead))
            yield block, fields
        self.free()

    def free(self) -> None:
        """Drop all entries and release the accounting."""
        self._charge(-self.accounted_bytes)
        self.index.clear()
        self.values = self.values[:0].copy() \
            if isinstance(self.values, np.ndarray) else []
