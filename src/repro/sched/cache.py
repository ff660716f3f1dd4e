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

Eviction and reload speak the :class:`~repro.storage.base.
StorageBackend` protocol only: transient faults are absorbed by
:func:`~repro.storage.errors.retrying` (an eviction under chaos retries
instead of killing the launch), and the spill path is deleted before
eviction writes to it - a recompute after a :meth:`drop` that left a
stale spill file behind (e.g. a drop issued before the cache was
attached to an environment) must not append behind the stale bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster import RankEnv
from repro.core.kvcontainer import KVContainer
from repro.core.records import KVLayout
from repro.storage.errors import retrying


@dataclass
class CacheEntry:
    """One cached stage output on one rank."""

    key: str
    name: str
    job: str
    kvc: KVContainer | None
    layout: KVLayout
    page_size: int
    tag: str
    tick: int = 0
    nbytes: int = 0
    #: Storage location + chunk table when evicted from memory.
    spill_path: str | None = None
    spill_chunks: list[tuple[int, int]] = field(default_factory=list)

    @property
    def resident(self) -> bool:
        return self.kvc is not None


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
        #: The current launch's trace (``evict`` events), or ``None``.
        self.trace = None
        self.stats = CacheStats()
        self._tick = 0

    # ------------------------------------------------------------ wiring

    def attach(self, env: RankEnv, trace=None) -> None:
        """Bind to the rank environment (and trace) of the current launch."""
        if env.comm.rank != self.rank:
            raise ValueError(
                f"cache for rank {self.rank} attached to rank "
                f"{env.comm.rank}")
        self.env = env
        self.trace = trace

    def _emit(self, kind: str, label: str, **data: Any) -> None:
        if self.trace is not None:
            self.trace.emit(self.env, kind, label, **data)

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
        return sum(e.kvc.memory_bytes for e in self.entries.values()
                   if e.kvc is not None)

    # ------------------------------------------------------------ access

    def put(self, key: str, kvc: KVContainer, *, name: str,
            job: str) -> None:
        """Adopt a materialized container (cache takes ownership)."""
        entry = CacheEntry(key=key, name=name, job=job, kvc=kvc,
                           layout=kvc.layout,
                           page_size=kvc.pool.page_size, tag=kvc.tag,
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
        if entry.kvc is None:
            self._reload(entry)
        self.stats.hits += 1
        self._metric("sched.cache.hits")
        return entry.kvc

    # ---------------------------------------------------------- eviction

    def _spill_path(self, entry: CacheEntry) -> str:
        return f"spill/cache_{entry.key}.{self.rank}"

    def _evict(self, entry: CacheEntry) -> int:
        """Write one resident entry's pages to storage and free them.

        The spill path is deterministic (stage key + rank), so a stale
        file from an earlier incarnation of the same key - dropped
        while spilled with no environment attached, or abandoned by a
        killed launch - may still exist.  It is deleted first; the
        chunk table must describe exactly the bytes written *now*, and
        appending behind stale bytes would leak them forever.
        """
        env = self.env
        assert env is not None and entry.kvc is not None
        path = self._spill_path(entry)
        env.pfs.delete(path)
        chunks: list[tuple[int, int]] = []
        for page in entry.kvc.pages:
            payload = bytes(page.view)
            if not payload:
                continue
            offset = retrying(
                env.comm, lambda: env.pfs.append(env.comm, path, payload))
            chunks.append((offset, len(payload)))
        freed = entry.kvc.memory_bytes
        entry.kvc.free()
        entry.kvc = None
        entry.spill_path = path
        entry.spill_chunks = chunks
        self.stats.evictions += 1
        self._metric("sched.cache.evictions")
        self._emit("evict", f"{entry.name}:spilled", job=entry.job,
                   key=entry.key, nbytes=entry.nbytes)
        return freed

    def _reload(self, entry: CacheEntry) -> None:
        """Stream a spilled entry back into a fresh container."""
        env = self.env
        assert env is not None and entry.spill_path is not None
        kvc = KVContainer(env.tracker, entry.layout, entry.page_size,
                          tag=entry.tag)
        for offset, length in entry.spill_chunks:
            chunk = retrying(
                env.comm,
                lambda: env.pfs.read(env.comm, entry.spill_path,
                                     offset, length))
            kvc.extend_encoded(chunk)
        env.pfs.delete(entry.spill_path)
        entry.kvc = kvc
        entry.spill_path = None
        entry.spill_chunks = []
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
                          if e.kvc is not None and not e.kvc.pins
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
        if entry.kvc is not None:
            # An abandoned launch (OOM abort) can leave stale pins; a
            # hard drop discards the entry regardless.
            entry.kvc.pins = 0
            entry.kvc.free()
        elif entry.spill_path is not None and self.env is not None:
            self.env.pfs.delete(entry.spill_path)
        self.stats.drops += 1
        self._emit("evict", f"{entry.name}:dropped", job=entry.job,
                   key=entry.key, nbytes=entry.nbytes)

    def clear(self) -> None:
        """Drop everything (scheduler OOM recovery / teardown)."""
        for key in list(self.entries):
            self.drop(key)
