"""Rank-local cache of materialized stage outputs.

One :class:`StageCache` lives on each rank of the scheduler's
allocation and outlives individual jobs (its containers are charged to
the rank's persistent tracker, see ``Cluster.run(trackers=...)``).
Entries are keyed by :attr:`~repro.sched.plan.Stage.key`, so a second
job - or a second iteration - that builds the same stage from the same
lineage gets the container back instead of recomputing it.

Under memory pressure (:meth:`ensure_room`) the least-recently-used
unpinned entries are *spilled* through the normal costed I/O path of
the cluster's storage backend and transparently reloaded on the next
hit - spilling and reloading are rank-local, so one rank may serve an
entry from memory while another reads it back from storage without any
collective coordination.  A *hard* :meth:`drop` discards an entry
entirely; the runner then recomputes it from lineage, which involves
collectives, so drops must be performed on every rank together.

Eviction reads the container through :meth:`~repro.core.kvcontainer.
KVContainer.chunks` (every tier it holds) into a :class:`~repro.io.
spill.SpillWriter` stream and reload refills the entry's *own* emptied
container from that stream, so the cache knows neither where a
container keeps its records nor how to build one.  Transient faults are
absorbed per chunk by :func:`~repro.storage.errors.retrying` (an
eviction under chaos retries instead of killing the launch), and a
stale file at the deterministic spill path is discarded before eviction
writes to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cluster import RankEnv
from repro.core.kvcontainer import KVContainer
from repro.io.spill import SpillWriter
from repro.storage.errors import retrying


@dataclass
class CacheEntry:
    """One cached stage output on one rank."""

    key: str
    name: str
    job: str
    #: The stage's own container; emptied, never replaced, by eviction.
    kvc: KVContainer
    tick: int = 0
    nbytes: int = 0
    #: The spill stream holding the records while evicted from memory.
    spill: SpillWriter | None = None

    @property
    def resident(self) -> bool:
        return self.spill is None


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    reloads: int = 0
    drops: int = 0


class StageCache:
    """LRU cache of stage-output KV containers for one rank."""

    def __init__(self, rank: int):
        self.rank = rank
        self.entries: dict[str, CacheEntry] = {}
        self.env: RankEnv | None = None
        self.stats = CacheStats()
        self._tick = 0

    # ------------------------------------------------------------ wiring

    def attach(self, env: RankEnv) -> None:
        """Bind to the rank environment of the current launch."""
        if env.comm.rank != self.rank:
            raise ValueError(
                f"cache for rank {self.rank} attached to rank "
                f"{env.comm.rank}")
        self.env = env

    def _emit(self, kind: str, label: str, **data: Any) -> None:
        env = self.env
        if env is not None and env.trace is not None:
            env.trace.emit(env, kind, label, **data)

    def _metric(self, name: str) -> None:
        # Only countable once attached; standalone unit-test caches
        # (no env) fall back to ``stats`` alone.
        if self.env is not None:
            self.env.metrics.inc(name)

    def _touch(self, entry: CacheEntry) -> None:
        self._tick += 1
        entry.tick = self._tick

    # ----------------------------------------------------------- queries

    def has(self, key: str) -> bool:
        """Whether this rank holds ``key`` (resident or spilled).

        Rank-local; runners must agree collectively (``all_true``)
        before acting on the answer, because a recompute on miss runs
        collectives that a hit would skip.
        """
        return key in self.entries

    @property
    def resident_bytes(self) -> int:
        return sum(e.kvc.memory_bytes for e in self.entries.values())

    # ------------------------------------------------------------ access

    def put(self, key: str, kvc: KVContainer, *, name: str,
            job: str) -> None:
        """Adopt a materialized container (cache takes ownership)."""
        entry = CacheEntry(key=key, name=name, job=job, kvc=kvc,
                           nbytes=kvc.nbytes)
        self._touch(entry)
        self.entries[key] = entry

    def get(self, key: str) -> KVContainer:
        """The cached container, reloading a spilled entry from storage."""
        entry = self.entries.get(key)
        if entry is None:
            self.stats.misses += 1
            raise KeyError(key)
        self._touch(entry)
        if entry.spill is not None:
            self._reload(entry)
        self.stats.hits += 1
        self._metric("sched.cache.hits")
        return entry.kvc

    # ---------------------------------------------------------- eviction

    def _evict(self, entry: CacheEntry) -> int:
        """Stream one resident entry's records to storage and empty it.

        The spill path is deterministic (stage key + rank), so a stale
        file from an earlier incarnation of the same key - abandoned by
        a killed launch, say - may still exist.  It is discarded first:
        appending behind stale bytes would leak them forever.
        """
        env = self.env
        assert env is not None and entry.spill is None
        spill = SpillWriter(env.pfs, env.comm, f"cache_{entry.key}")
        spill.discard()
        for chunk in entry.kvc.chunks():
            retrying(env.comm, lambda: spill.write_chunk(chunk))
        freed = entry.kvc.memory_bytes
        entry.kvc.free()
        entry.spill = spill
        self.stats.evictions += 1
        self._metric("sched.cache.evictions")
        self._emit("evict", f"{entry.name}:spilled", job=entry.job,
                   key=entry.key, nbytes=entry.nbytes)
        return freed

    def _reload(self, entry: CacheEntry) -> None:
        """Stream a spilled entry back into its own emptied container."""
        env = self.env
        assert env is not None and entry.spill is not None
        reader = entry.spill.reader()
        while reader.remaining:
            entry.kvc.extend_encoded(retrying(env.comm, reader.__next__))
        entry.spill.discard()
        entry.spill = None
        self.stats.reloads += 1
        self._metric("sched.cache.reloads")

    def ensure_room(self, nbytes: int) -> int:
        """Spill LRU entries until ``nbytes`` more would fit the budget.

        Pinned entries (a stage is reading them right now) and entries
        whose container already spills internally are skipped.  Returns
        the bytes freed; rank-local, so no collective coordination.
        """
        env = self.env
        if env is None or env.tracker.limit is None:
            return 0
        freed = 0
        victims = sorted((e for e in self.entries.values()
                          if e.spill is None and not e.kvc.pins
                          and not e.kvc.spilled),
                         key=lambda e: e.tick)
        for entry in victims:
            if env.tracker.would_fit(nbytes):
                break
            freed += self._evict(entry)
        return freed

    def drop(self, key: str) -> None:
        """Discard an entry entirely (lineage recompute on next use).

        Collective by convention: every rank must drop together, since
        the recompute the next access triggers runs collectives.
        """
        entry = self.entries.pop(key, None)
        if entry is None:
            return
        # An abandoned launch (OOM abort) can leave stale pins; a hard
        # drop discards the entry regardless.
        entry.kvc.pins = 0
        entry.kvc.free()
        if entry.spill is not None:
            entry.spill.discard()
        self.stats.drops += 1
        self._emit("evict", f"{entry.name}:dropped", job=entry.job,
                   key=entry.key, nbytes=entry.nbytes)

    def clear(self) -> None:
        """Drop everything (scheduler OOM recovery / teardown)."""
        for key in list(self.entries):
            self.drop(key)
