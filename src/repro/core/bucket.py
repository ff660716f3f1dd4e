"""Memory-accounted hash bucket of unique keys.

Used by the three places the paper keeps per-unique-key state: the
two-pass convert (size gathering), KV compression (map-side combine),
and partial reduction.  Every entry is charged to the rank's memory
tracker - the paper is explicit that these buckets cost memory and only
pay off when duplicate keys are frequent, and that trade-off must show
up in the peak-memory measurements.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.memory.tracker import MemoryTracker


class AccountedBucket:
    """A ``dict[bytes, bytes]``-like map charged to a tracker.

    The accounting model is ``len(key) + len(value) + entry_overhead``
    bytes per entry, adjusted when a value is replaced by one of a
    different size.
    """

    def __init__(self, tracker: MemoryTracker, entry_overhead: int = 48,
                 tag: str = "bucket"):
        self.tracker = tracker
        self.entry_overhead = entry_overhead
        self.tag = tag
        self._data: dict[bytes, bytes] = {}
        self.accounted_bytes = 0

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: bytes) -> bytes | None:
        return self._data.get(key)

    def set(self, key: bytes, value: bytes) -> None:
        """Insert or replace, keeping the accounting in sync."""
        old = self._data.get(key)
        if old is None:
            delta = len(key) + len(value) + self.entry_overhead
            self.tracker.allocate(delta, self.tag)
            self.accounted_bytes += delta
        elif len(value) != len(old):
            delta = len(value) - len(old)
            if delta > 0:
                self.tracker.allocate(delta, self.tag)
            else:
                self.tracker.free(-delta, self.tag)
            self.accounted_bytes += delta
        self._data[key] = value

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Non-destructive iteration in insertion order."""
        return iter(self._data.items())

    def drain(self) -> Iterator[tuple[bytes, bytes]]:
        """Destructive iteration, releasing accounting entry-by-entry.

        Mirrors how Mimir reclaims bucket memory while flushing
        compressed KVs into the send buffer.
        """
        while self._data:
            key, value = next(iter(self._data.items()))
            del self._data[key]
            delta = len(key) + len(value) + self.entry_overhead
            self.tracker.free(delta, self.tag)
            self.accounted_bytes -= delta
            yield key, value

    def free(self) -> None:
        """Drop all entries and release the accounting."""
        if self.accounted_bytes:
            self.tracker.free(self.accounted_bytes, self.tag)
        self.accounted_bytes = 0
        self._data.clear()


def first_seen_ids(index: dict[bytes, int], keys) -> tuple[list[bytes],
                                                           np.ndarray]:
    """Group ids of ``keys``, numbering unique keys in first-seen order.

    ``index`` (key -> id) is extended in place; returns the keys new to
    it and one id per key.  The one grouping primitive behind convert's
    pass one and the out-of-core partition grouping.
    """
    new = [key for key in dict.fromkeys(keys) if key not in index]
    index.update(zip(new, range(len(index), len(index) + len(new))))
    return new, np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))


class CountingBucket:
    """Per-unique-key counters for convert pass one.

    Stores ``key -> (count, total_value_bytes)`` as a key -> group id
    dict plus two int64 columns in first-seen order, and charges the
    tracker for the key bytes plus fixed per-entry bookkeeping.
    """

    def __init__(self, tracker: MemoryTracker, entry_overhead: int = 48,
                 tag: str = "convert_bucket"):
        self.tracker = tracker
        self.entry_overhead = entry_overhead + 16  # two u64 counters
        self.tag = tag
        self._ids: dict[bytes, int] = {}
        # Capacity doubles; the first ``len(self)`` entries are live.
        self._counts = self._totals = np.zeros(0, np.int64)
        self.accounted_bytes = 0

    def add_run(self, keys, value_bytes) -> np.ndarray:
        """Count one block of records (keys plus a column of value
        lengths); returns each record's group id.  New keys are charged
        in one allocation per block."""
        new, ids = first_seen_ids(self._ids, keys)
        if new:
            delta = sum(map(len, new)) + len(new) * self.entry_overhead
            self.tracker.allocate(delta, self.tag)
            self.accounted_bytes += delta
            room = len(self._counts)
            if len(self._ids) > room:
                pad = np.zeros(max(len(self._ids), 2 * room) - room, np.int64)
                self._counts = np.concatenate((self._counts, pad))
                self._totals = np.concatenate((self._totals, pad))
        np.add.at(self._counts, ids, 1)
        np.add.at(self._totals, ids, value_bytes)
        return ids

    def add(self, key: bytes, value_bytes: int) -> None:
        self.add_run((key,), value_bytes)

    def keys(self) -> list[bytes]:
        """Unique keys in first-seen (group id) order."""
        return list(self._ids)

    @property
    def counts(self) -> np.ndarray:
        """Values seen per group."""
        return self._counts[: len(self._ids)]

    @property
    def totals(self) -> np.ndarray:
        """Value bytes seen per group."""
        return self._totals[: len(self._ids)]

    def items(self) -> Iterator[tuple[bytes, list[int]]]:
        return zip(self._ids, map(list, zip(self.counts.tolist(),
                                            self.totals.tolist())))

    def __len__(self) -> int:
        return len(self._ids)

    def free(self) -> None:
        if self.accounted_bytes:
            self.tracker.free(self.accounted_bytes, self.tag)
        self.accounted_bytes = 0
        self._ids.clear()
        self._counts = self._totals = np.zeros(0, np.int64)
