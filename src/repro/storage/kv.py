"""Sharded in-memory KV storage backend.

The first non-PFS implementation of the :class:`~repro.storage.base.
StorageBackend` protocol: paths hash deterministically onto ``nshards``
independent shards, each a ``path -> bytearray`` dict guarded by its
own lock.  The layering follows AppScale's datastore shape (one
datastore API over pluggable storage environments): the protocol is
the datastore API, the shards are the environment.

Semantics vs. the PFS sim:

- **Sharded concurrency.**  Operations on paths in different shards
  never contend on a lock; the PFS serializes everything through one
  lock.  Shard assignment is a pure function of the path
  (``crc32(path) % nshards``), so it is stable across runs, ranks, and
  processes - a rank can compute another rank's shard without
  communicating.
- **Memory-speed cost model.**  The default model has no per-node
  ``sharers`` contention and no write penalty: an aggregate RAM-backed
  store is symmetric and contention is already captured by the shard
  locks.  The factory derives a model from the platform (a fraction of
  the PFS latency, a multiple of its bandwidth) so virtual time stays
  meaningful on every platform.
- **Durability.**  None across process restarts - the store *is* the
  process.  Within the simulation it plays the durable role (it
  survives simulated rank deaths and daemon kills, which are
  thread-level), so checkpoints, recovery, and journal replay all
  behave identically; the operator's guide (docs/storage.md) spells
  out when that distinction matters.

Chaos hooks, retry taxonomy, stats, and ``storage.*`` metrics are all
inherited from the base class.
"""

from __future__ import annotations

import threading
import zlib

from repro.mpi.costmodel import PFSModel
from repro.storage.base import StorageBackend

#: Default shard count: enough to spread a few dozen concurrent ranks
#: with a short, deterministic assignment function.
DEFAULT_NSHARDS = 16


class ShardedKVBackend(StorageBackend):
    """In-memory KV store sharded by path hash, one lock per shard."""

    name = "kv"

    def __init__(self, model: PFSModel | None = None,
                 nshards: int = DEFAULT_NSHARDS):
        if nshards <= 0:
            raise ValueError(f"nshards must be positive, got {nshards}")
        super().__init__(model)
        self.nshards = nshards
        self._shards: list[dict[str, bytearray]] = [
            {} for _ in range(nshards)]
        self._locks: list[threading.Lock] = [
            threading.Lock() for _ in range(nshards)]

    def shard_of(self, path: str) -> int:
        """Deterministic shard assignment: ``crc32(path) % nshards``."""
        return zlib.crc32(path.encode()) % self.nshards

    # --------------------------------------------------- blob primitives

    def _bucket(self, path: str) -> tuple[threading.Lock, dict]:
        index = self.shard_of(path)
        return self._locks[index], self._shards[index]

    def _snapshot_keys(self) -> list[str]:
        keys: list[str] = []
        for lock, shard in zip(self._locks, self._shards):
            with lock:
                keys.extend(shard)
        return keys

    # -------------------------------------------------------- inspection

    def shard_sizes(self) -> list[int]:
        """Files per shard - the balance view operators monitor."""
        sizes = []
        for lock, shard in zip(self._locks, self._shards):
            with lock:
                sizes.append(len(shard))
        return sizes
