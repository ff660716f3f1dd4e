"""Storage: one blob store, three price lists.

:class:`StorageBackend` is the one store (see docs/storage.md for the
operator's guide).  Each spec in :data:`BACKENDS` is a row of
:func:`make_backend`'s price table over it:

- ``pfs`` - the simulated shared parallel file system, the default:
  the platform's PFS model, contended by the node's ``sharers``.
- ``kv`` - an in-memory KV tier: the PFS model sped up by
  :data:`KV_SPEEDUP`, no contention, no write penalty.
- ``extsort`` - the platform's PFS model without contention, plus a
  cheap node-local model (:data:`LOCAL_SPEEDUP`) for ``spill/``, the
  price of the engine's out-of-core sort runs.

Selection points, in precedence order: an explicit store object
passed to :class:`~repro.cluster.Cluster`; a spec string
(``Cluster(storage="kv")`` / ``repro serve --storage kv``); the
``REPRO_STORAGE_BACKEND`` environment variable (how the CI storage
matrix sweeps the tier-1 subset); and finally ``pfs``.  A job's spill
lands on its cluster's store.

The retry taxonomy (``TransientIOError``, ``retrying``, ...) lives in
:mod:`repro.storage.errors`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.mpi.costmodel import PFSModel
from repro.storage.base import FREE, LOCAL_PREFIXES, FileStats, \
    StorageBackend

if TYPE_CHECKING:
    from repro.mpi.platforms import Platform

__all__ = [
    "BACKENDS",
    "FileStats",
    "LOCAL_PREFIXES",
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

#: How much cheaper node-local scratch is than the shared store for
#: ``extsort``'s ``spill/`` paths: latency divides by this, bandwidth
#: multiplies, fan-in stays and the write penalty goes (a local
#: NVMe/SSD vs. a contended PFS pipe).
LOCAL_SPEEDUP = 4.0


def default_backend_name() -> str:
    """The spec used when neither code nor CLI chose one."""
    spec = os.environ.get(ENV_VAR, "pfs") or "pfs"
    if spec not in BACKENDS:
        raise ValueError(
            f"{ENV_VAR}={spec!r} is not a storage backend; "
            f"choose from {', '.join(BACKENDS)}")
    return spec


def _sped_up(model: PFSModel, speedup: float,
             io_ratio: float = 1.0) -> PFSModel:
    return PFSModel(latency=model.latency / speedup,
                    bandwidth=model.bandwidth * speedup, io_ratio=io_ratio)


def make_backend(spec: str | None = None, *,
                 platform: "Platform | None" = None,
                 sharers: int = 1) -> StorageBackend:
    """Build the store named by ``spec``.

    ``spec=None`` falls back to :func:`default_backend_name` (which
    honours ``REPRO_STORAGE_BACKEND``).  Each spec is one row of
    prices derived from ``platform.pfs`` (with no platform, from
    :data:`~repro.storage.base.FREE`: every access costs nothing).
    ``sharers`` only applies to ``pfs`` (per-node bandwidth contention
    has no analogue on the other two).
    """
    spec = spec or default_backend_name()
    model = platform.pfs if platform is not None else FREE
    if spec == "pfs":
        return StorageBackend(model, sharers=sharers, name=spec)
    if spec == "kv":
        return StorageBackend(_sped_up(model, KV_SPEEDUP), name=spec)
    if spec == "extsort":
        return StorageBackend(
            model, name=spec,
            local_model=_sped_up(model, LOCAL_SPEEDUP, model.io_ratio))
    raise ValueError(
        f"unknown storage backend {spec!r}; "
        f"choose from {', '.join(BACKENDS)}")
