"""External-sort storage backend: a cheap node-local ``spill/`` namespace.

Grounded in Sanders, "Connecting MapReduce Computations to Realistic
Machine Models" (arXiv:2002.07553): once the working set exceeds
aggregate memory, the optimal plan is the external-sort plan - form
memory-sized sorted runs on node-local storage, then stream a k-way
merge whose footprint is one frame per open run.  The engine runs that
plan itself: out of core, :meth:`~repro.core.job.Mimir.global_sort`
and :meth:`~repro.core.job.Mimir.sort_local` sort spilled records in
runs and merge them (:mod:`repro.core.sort`).  This module prices it:

:class:`ExternalSortBackend` is a :class:`~repro.storage.base.
StorageBackend` whose ``spill/`` namespace is costed with a
*node-local* disk model (no cross-node sharing, lower latency) while
every other path pays the shared-store model.  Run traffic is
therefore cheap, exactly the asymmetry that makes the external plan
win.  A job that wants node-local spill runs on
``Cluster(storage="extsort")``.
"""

from __future__ import annotations

from repro.mpi.costmodel import PFSModel
from repro.storage.kv import DEFAULT_NSHARDS, ShardedKVBackend

#: Prefixes priced with the node-local model (run/spill traffic).
LOCAL_PREFIXES = ("spill/",)

#: How much cheaper node-local scratch is than the shared store:
#: latency divides by this, bandwidth multiplies (a local NVMe/SSD vs.
#: a contended PFS pipe; the precise factor only shapes virtual time).
LOCAL_SPEEDUP = 4.0


class ExternalSortBackend(ShardedKVBackend):
    """Sharded store with a cheap node-local ``spill/`` namespace.

    ``model`` prices the globally shared namespace (inputs, outputs,
    checkpoints, journal); ``local_model`` prices paths under
    :data:`LOCAL_PREFIXES` and defaults to the shared model sped up by
    :data:`LOCAL_SPEEDUP` with no write penalty.  Everything else -
    chaos hooks, retry taxonomy, metrics, atomicity contracts - is the
    inherited protocol behaviour, so recovery code cannot tell this
    backend apart from the others.
    """

    name = "extsort"

    def __init__(self, model: PFSModel | None = None,
                 local_model: PFSModel | None = None,
                 nshards: int = DEFAULT_NSHARDS):
        super().__init__(model, nshards=nshards)
        if local_model is None:
            shared = self.model
            local_model = PFSModel(
                latency=shared.latency / LOCAL_SPEEDUP,
                bandwidth=shared.bandwidth * LOCAL_SPEEDUP,
                io_ratio=shared.io_ratio)
        self.local_model = local_model

    def _cost(self, path: str, nbytes: int, write: bool = False) -> float:
        model = self.local_model if path.startswith(LOCAL_PREFIXES) \
            else self.model
        return model.access_cost(nbytes, write)
