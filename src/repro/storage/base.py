"""The :class:`StorageBackend` protocol: one persistence substrate API.

Every durable byte in the system - checkpoints (:mod:`repro.ft.
checkpoint`), stage-cache spill (:mod:`repro.sched.cache`), container
spill streams (:mod:`repro.io.spill`), job input/output files, and the
serve journal (:mod:`repro.serve.journal`) - flows through the narrow
surface defined here.  Call sites never know which backend they are
on: the same checkpoint manager that survives chaos on the simulated
parallel file system survives it on the sharded KV store, because the
retry taxonomy (:mod:`repro.storage.errors`), the chaos hooks
(:mod:`repro.ft.injection`), and the metric emission all live in this
base class rather than in any one implementation.

The surface has two halves:

**Staging (cost-free, chaos-free).**  ``store``/``fetch``/``exists``/
``size``/``listdir``/``delete`` move bytes without charging virtual
time or consulting the chaos plan.  They model control-plane access
from outside the timed job - dataset staging before the clock starts,
result inspection after it stops, and driver-process (not rank)
traffic like the serve journal.

**Costed I/O (charged, chaos-injectable).**  ``read``/``write``/
``write_at``/``append`` take a communicator, charge the calling rank's
virtual clock through the backend's cost model, emit to the calling
rank's metric shard, and consult the attached chaos plan first - so
any backend composes with fault injection and recovery for free.

Implementations provide the raw *blob primitives* (a locked
``path -> bytearray`` bucket per path plus a key snapshot) and a cost
model; everything else - accounting, chaos, metrics, the atomicity
contracts below - is inherited.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.mpi.costmodel import PFSModel
from repro.storage.errors import PFSFileNotFoundError


@dataclass
class FileStats:
    """Aggregate traffic counters for one storage backend."""

    bytes_read: int = 0
    bytes_written: int = 0
    reads: int = 0
    writes: int = 0
    #: Bytes moved (either way) per top-level path component.
    by_prefix: dict[str, int] = field(default_factory=dict)


class StorageBackend(abc.ABC):
    """Shared blob store with a cost model, chaos hooks, and metrics.

    **Atomicity/visibility contract** (every implementation, every
    method): an operation that raises :class:`~repro.storage.errors.
    TransientIOError` has *not* taken effect - transient faults are
    injected before the mutation, so a retry loop (:func:`~repro.
    storage.errors.retrying`) never double-applies.  A completed ``write``/
    ``write_at``/``append`` is immediately visible to every rank (the
    store is globally shared, like a POSIX-consistent PFS).  Torn
    writes - a *prefix* of the payload landing before the writer dies
    - are possible only through :meth:`write` under chaos injection,
    which is why integrity framing (checksums, length frames) guards
    everything recovery might replay.

    Attributes ``chaos`` (a :class:`~repro.ft.injection.ChaosPlan`,
    duck-typed) and ``metrics`` (a :class:`~repro.obs.registry.
    MetricsRegistry`) are installed by :meth:`wire`; both default to
    ``None`` so backends stand alone in tests.
    """

    #: Spec string naming this backend in configs and CLIs.
    name: str = "abstract"

    def __init__(self, model: PFSModel | None = None):
        #: Cost model for the costed half of the API.
        self.model = model or PFSModel(latency=0.0, bandwidth=float("inf"))
        self.stats = FileStats()
        self._stats_lock = threading.Lock()
        self._companions: dict[str, "StorageBackend"] = {}
        self._companion_lock = threading.Lock()
        self.wire(None, None)

    def wire(self, chaos: Any, metrics: Any) -> None:
        """Install a fault injector and a metrics registry (duck-typed,
        either may be ``None``) on this backend and on every companion
        it has; :meth:`companion` passes a new one through here at
        birth, so the family injects and counts as one substrate.
        Costed accesses consult ``chaos`` first and are charged to the
        calling rank's shard of ``metrics``.
        """
        self.chaos = chaos
        self.metrics = metrics
        with self._companion_lock:
            for backend in self._companions.values():
                backend.wire(chaos, metrics)

    # ------------------------------------------------- blob primitives

    @abc.abstractmethod
    def _bucket(self, path: str) -> tuple[threading.Lock, dict]:
        """The lock and ``path -> bytearray`` mapping holding ``path``.

        Implementations decide the locking granularity (one global
        lock, per-shard locks, ...); the base class always mutates a
        bucket while holding its lock and never holds two bucket locks
        at once, so per-shard implementations cannot deadlock.
        """

    @abc.abstractmethod
    def _snapshot_keys(self) -> list[str]:
        """Every stored path (unordered); must not require any bucket
        lock held by the caller."""

    def _cost(self, path: str, nbytes: int, write: bool = False) -> float:
        """Virtual seconds one costed access of ``nbytes`` takes: the
        model's uncontended price unless a backend knows better."""
        return self.model.access_cost(nbytes, write)

    # ----------------------------------------------------- shared glue

    def _not_found(self, path: str) -> PFSFileNotFoundError:
        """A descriptive not-found error with a sibling-count hint."""
        near = [p for p in self._snapshot_keys()
                if p.rsplit("/", 1)[0] == path.rsplit("/", 1)[0]]
        hint = f"{len(near)} sibling file(s) under the same directory" \
            if near else "no files under that directory"
        return PFSFileNotFoundError(path, hint)

    def _account(self, comm, path: str, nbytes: int,
                 write: bool = False) -> None:
        """Book one completed costed access: the backend's stats, the
        calling rank's ``storage.*`` counters, then its virtual clock."""
        stats = self.stats
        prefix = path.split("/", 1)[0]
        with self._stats_lock:
            if write:
                stats.bytes_written += nbytes
                stats.writes += 1
            else:
                stats.bytes_read += nbytes
                stats.reads += 1
            stats.by_prefix[prefix] = stats.by_prefix.get(prefix, 0) + nbytes
        if self.metrics is not None:
            shard = self.metrics.shard(comm.rank)
            if write:
                shard.inc("storage.writes")
                shard.inc("storage.bytes_written", nbytes)
            else:
                shard.inc("storage.reads")
                shard.inc("storage.bytes_read", nbytes)
        comm.advance(self._cost(path, nbytes, write))

    # -------------------------------------------------------- staging

    def store(self, path: str, data: bytes | bytearray) -> None:
        """Place a file without charging time (dataset staging).

        Atomic full replace; never chaos-injected - staging happens
        outside the fault domain of the timed job.
        """
        lock, files = self._bucket(path)
        with lock:
            files[path] = bytearray(data)

    def fetch(self, path: str, offset: int = 0,
              size: int | None = None) -> bytes:
        """Read a file, or ``size`` bytes of it at ``offset``, without
        charging time (result inspection, split-boundary probes).

        Raises :class:`~repro.storage.errors.PFSFileNotFoundError` when
        the path does not exist; never chaos-injected.
        """
        lock, files = self._bucket(path)
        with lock:
            blob = files.get(path)
            if blob is not None:
                end = None if size is None else offset + size
                return bytes(memoryview(blob)[offset:end])
        raise self._not_found(path)

    def exists(self, path: str) -> bool:
        lock, files = self._bucket(path)
        with lock:
            return path in files

    def size(self, path: str) -> int:
        lock, files = self._bucket(path)
        with lock:
            blob = files.get(path)
            if blob is not None:
                return len(blob)
        raise self._not_found(path)

    def listdir(self, prefix: str = "") -> list[str]:
        """Every stored path under ``prefix``, sorted.

        The sort makes listing deterministic across backends - the
        property cross-backend bit-identity tests rely on.
        """
        return sorted(p for p in self._snapshot_keys()
                      if p.startswith(prefix))

    def delete(self, path: str) -> None:
        """Remove ``path``; idempotent (a missing path is a no-op)."""
        lock, files = self._bucket(path)
        with lock:
            files.pop(path, None)

    # ------------------------------------------------------ costed I/O

    def read(self, comm, path: str, offset: int = 0,
             size: int | None = None) -> bytes:
        """Read ``size`` bytes at ``offset``, charging the caller's clock.

        Chaos hook: ``on_access`` fires *before* the read; a transient
        fault leaves the store untouched and the clock uncharged, so
        :func:`~repro.storage.errors.retrying` wrappers are safe.
        """
        if self.chaos is not None:
            self.chaos.on_access(comm, "read", path)
        data = self.fetch(path, offset, size)
        self._account(comm, path, len(data))
        return data

    def write(self, comm, path: str, data: bytes | bytearray) -> None:
        """Replace ``path`` with ``data``, charging the caller's clock.

        The one operation that can land *torn* under chaos injection:
        ``on_write`` may truncate or bit-flip the payload and hand back
        an exception to raise *after* the bytes are stored - a rank
        dying mid-write leaves a prefix behind, exactly the failure
        mode checksummed checkpoint frames exist to catch.  A
        *transient* fault still fires before any mutation.
        """
        raise_after: BaseException | None = None
        if self.chaos is not None:
            data, raise_after = self.chaos.on_write(comm, path, bytes(data))
        lock, files = self._bucket(path)
        with lock:
            files[path] = bytearray(data)
        self._account(comm, path, len(data), write=True)
        if raise_after is not None:
            raise raise_after

    def write_at(self, comm, path: str, offset: int,
                 data: bytes | bytearray) -> None:
        """Positional write (MPI-IO style): ranks fill disjoint regions.

        The file grows as needed; unwritten gaps read as zero bytes.
        Concurrent ``write_at`` calls to *disjoint* regions of one path
        are linearized by the bucket lock and never corrupt each other;
        overlapping regions are caller error.  Chaos hook: ``on_access``
        fires before the mutation (transient-only; positional writes
        are never torn - the region either lands whole or not at all).
        """
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        if self.chaos is not None:
            self.chaos.on_access(comm, "write_at", path)
        lock, files = self._bucket(path)
        with lock:
            blob = files.setdefault(path, bytearray())
            end = offset + len(data)
            if len(blob) < end:
                blob.extend(b"\0" * (end - len(blob)))
            blob[offset:end] = data
        self._account(comm, path, len(data), write=True)

    def append(self, comm, path: str, data: bytes | bytearray) -> int:
        """Append ``data``; returns the offset it was written at.

        Appends to one path are atomic and totally ordered by the
        bucket lock, so two ranks appending concurrently never
        interleave bytes - each gets a disjoint ``(offset, length)``
        region, the invariant spill chunk tables depend on.  Chaos
        hook: ``on_access`` (transient-only, pre-mutation).
        """
        if self.chaos is not None:
            self.chaos.on_access(comm, "append", path)
        lock, files = self._bucket(path)
        with lock:
            blob = files.setdefault(path, bytearray())
            offset = len(blob)
            blob.extend(data)
        self._account(comm, path, len(data), write=True)
        return offset

    # ------------------------------------------------------ companions

    def companion(self, spec: str | None) -> "StorageBackend":
        """A named backend sharing this substrate's :meth:`wire`-ing.

        Resolves ``MimirConfig.storage``: ``None`` (or this backend's
        own name) returns ``self``; any other spec returns a
        per-substrate singleton built by :func:`repro.storage.
        make_backend`, so every rank of every job sees the *same*
        companion object - the property that keeps a redirected spill
        readable across ranks and launches.
        """
        if spec is None or spec == self.name:
            return self
        with self._companion_lock:
            backend = self._companions.get(spec)
            if backend is None:
                from repro.storage import make_backend

                backend = make_backend(spec, model=self.model)
                backend.wire(self.chaos, self.metrics)
                self._companions[spec] = backend
        return backend

    # ------------------------------------------------------- reporting

    @property
    def spilled_bytes(self) -> int:
        """Bytes written under the ``spill`` prefix (out-of-core traffic)."""
        return self.stats.by_prefix.get("spill", 0)
