"""Pluggable storage backends behind the :class:`StorageBackend` protocol.

Three implementations ship (see docs/storage.md for the operator's
guide):

- ``pfs`` - the simulated shared parallel file system, the default and
  the reference implementation (:mod:`repro.storage.pfs`).
- ``kv`` - a sharded in-memory KV store with per-shard locks and
  deterministic ``crc32(path) % nshards`` placement
  (:mod:`repro.storage.kv`).
- ``extsort`` - the KV store plus a cheap node-local ``spill/``
  namespace, the price of the engine's out-of-core sort runs
  (:mod:`repro.storage.extsort`).

Selection points, in precedence order: an explicit backend object
passed to :class:`~repro.cluster.Cluster`; a spec string
(``Cluster(storage="kv")`` / ``repro serve --storage kv``); the
``REPRO_STORAGE_BACKEND`` environment variable (how the CI storage
matrix sweeps the tier-1 subset); and finally ``pfs``.  A job's spill
lands on its cluster's backend.

The retry taxonomy every backend shares (``TransientIOError``,
``retrying``, ...) lives in :mod:`repro.storage.errors`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.mpi.costmodel import PFSModel
from repro.storage.base import FileStats, StorageBackend
from repro.storage.extsort import ExternalSortBackend
from repro.storage.kv import ShardedKVBackend
from repro.storage.pfs import ParallelFileSystem

if TYPE_CHECKING:
    from repro.mpi.platforms import Platform

__all__ = [
    "BACKENDS",
    "ExternalSortBackend",
    "FileStats",
    "ParallelFileSystem",
    "ShardedKVBackend",
    "StorageBackend",
    "default_backend_name",
    "make_backend",
]

#: Every spec string ``make_backend`` accepts, in documentation order.
BACKENDS = ("pfs", "kv", "extsort")

#: Environment variable consulted when no spec is given anywhere else.
ENV_VAR = "REPRO_STORAGE_BACKEND"

#: How much faster the RAM-backed KV store is than the platform's PFS:
#: latency divides by this, bandwidth multiplies.  Fan-in (``io_ratio``)
#: and the small-writer ``write_penalty`` do not apply to a symmetric
#: in-memory store, so the derived model drops both.
KV_SPEEDUP = 8.0


def default_backend_name() -> str:
    """The spec used when neither code nor CLI chose one."""
    spec = os.environ.get(ENV_VAR, "pfs") or "pfs"
    if spec not in BACKENDS:
        raise ValueError(
            f"{ENV_VAR}={spec!r} is not a storage backend; "
            f"choose from {', '.join(BACKENDS)}")
    return spec


def _kv_model(model: PFSModel | None) -> PFSModel | None:
    if model is None:
        return None
    return PFSModel(latency=model.latency / KV_SPEEDUP,
                    bandwidth=model.bandwidth * KV_SPEEDUP)


def make_backend(spec: str | None = None, *,
                 platform: "Platform | None" = None,
                 sharers: int = 1) -> StorageBackend:
    """Build the backend named by ``spec``.

    ``spec=None`` falls back to :func:`default_backend_name` (which
    honours ``REPRO_STORAGE_BACKEND``).  The cost model comes from
    ``platform.pfs``, else each backend's zero-cost default; ``kv`` and
    ``extsort`` derive their memory-speed / node-local variants from it
    so virtual time stays meaningful on every platform.  ``sharers``
    only applies to ``pfs`` (per-node bandwidth contention has no
    analogue on the sharded stores).
    """
    spec = spec or default_backend_name()
    model = platform.pfs if platform is not None else None
    if spec == "pfs":
        return ParallelFileSystem(model, sharers=sharers)
    if spec == "kv":
        return ShardedKVBackend(_kv_model(model))
    if spec == "extsort":
        return ExternalSortBackend(model)
    raise ValueError(
        f"unknown storage backend {spec!r}; "
        f"choose from {', '.join(BACKENDS)}")
