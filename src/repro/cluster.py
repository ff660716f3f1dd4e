"""One-stop simulated cluster: ranks + memory budgets + shared PFS.

:class:`Cluster` is what benchmarks and examples run jobs on.  It
launches a :class:`~repro.mpi.world.World`, gives every rank a
:class:`~repro.memory.tracker.MemoryTracker` bounded by the platform's
per-process memory, and shares one :class:`~repro.storage.base.
StorageBackend` priced from the platform's I/O cost model - by default
the simulated parallel file system (``pfs``), or the spec selected via
``storage`` / ``REPRO_STORAGE_BACKEND`` (see :mod:`repro.storage` and
docs/storage.md).  Job functions receive a :class:`RankEnv`.

``run(..., allow_oom=True)`` converts a rank's
:class:`~repro.memory.tracker.MemoryLimitExceeded` into a result with
``oom`` set instead of raising, which is how the benchmarks record the
paper's "ran out of memory, data point missing" outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.memory.limits import parse_size
from repro.memory.tracker import MemoryLimitExceeded, MemoryTracker
from repro.mpi.comm import SimComm
from repro.mpi.errors import RankFailedError
from repro.mpi.platforms import Platform
from repro.mpi.world import World
from repro.obs.registry import MetricShard, MetricsRegistry
from repro.storage import StorageBackend, make_backend


@dataclass
class RankEnv:
    """Everything one rank of a job can touch."""

    comm: SimComm
    tracker: MemoryTracker
    #: The cluster's store.  Named ``pfs`` for history; it is priced as
    #: the cluster's storage spec says (see :mod:`repro.storage`).
    pfs: StorageBackend
    platform: Platform
    #: This rank's metrics shard (see :mod:`repro.obs.registry`).  A
    #: cluster launch substitutes a registry-backed shard; the default
    #: standalone shard keeps directly constructed envs (tests) working.
    metrics: MetricShard = field(default_factory=MetricShard)
    #: The cluster's :class:`~repro.obs.trace.Trace` as this launch
    #: sees it (stamped at the launch's base), or ``None``: untraced.
    trace: Any = None

    def probe(self, tag: str) -> None:
        """Fault point ``tag``: the cluster's plan fires a death or leave."""
        chaos = self.pfs.chaos
        if chaos is not None:
            chaos.check(tag, self.comm.rank)
            chaos.membership_check(self.comm, tag)

    def charge_compute(self, nbytes: int) -> None:
        """Advance this rank's clock for processing ``nbytes`` of records."""
        self.comm.advance(nbytes / self.platform.compute_rate)


@dataclass
class ClusterResult:
    """Outcome of one job on a simulated cluster."""

    returns: list[Any]
    elapsed: float
    peak_bytes: list[int]
    spilled_bytes: int
    oom: MemoryLimitExceeded | None = None
    oom_rank: int | None = None

    @property
    def ran_out_of_memory(self) -> bool:
        return self.oom is not None

    @property
    def node_peak_bytes(self) -> int:
        """Sum of per-rank peaks: the paper's per-node peak memory metric."""
        return sum(self.peak_bytes)

    @property
    def max_rank_peak_bytes(self) -> int:
        return max(self.peak_bytes) if self.peak_bytes else 0


class Cluster:
    """A simulated allocation of ``nprocs`` ranks on ``platform``."""

    def __init__(self, platform: Platform, nprocs: int | None = None, *,
                 nodes: int = 1,
                 memory_limit: int | str | None = "auto",
                 pfs: StorageBackend | None = None,
                 storage: str | None = None,
                 keep_timeline: bool = False,
                 chaos: Any = None,
                 trace: Any = None):
        self.platform = platform
        self.nprocs = nprocs if nprocs is not None else platform.procs_per_node
        if self.nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {self.nprocs}")
        if nodes <= 0:
            raise ValueError(f"nodes must be positive, got {nodes}")
        self.nodes = nodes
        self._memory_limit_spec = memory_limit
        self._limit = self._resolve_limit()
        # Ranks of one node contend for the node's PFS bandwidth.
        sharers = -(-self.nprocs // nodes)
        if pfs is not None:
            # An explicit backend object always wins (tests share one
            # substrate across clusters this way).
            self.pfs = pfs
        else:
            # ``storage`` spec, else REPRO_STORAGE_BACKEND, else "pfs".
            self.pfs = make_backend(storage, platform=platform,
                                    sharers=sharers)
        self.keep_timeline = keep_timeline
        #: Metrics registry shared by every launch on this cluster; the
        #: scheduler's multi-round drains accumulate into one registry,
        #: so ``metrics.totals()`` is the whole workload's story.
        self.metrics = MetricsRegistry()
        self.chaos = chaos
        #: Optional :class:`~repro.obs.trace.Trace` every launch records
        #: into (``env.trace``); ``None`` records nothing.
        self.trace = trace
        self._trackers: list[MemoryTracker] = []

    @property
    def chaos(self) -> Any:
        """The one fault plan; setting it wires it into the store."""
        return self._chaos

    @chaos.setter
    def chaos(self, plan: Any) -> None:
        self._chaos = plan
        self.pfs.wire(plan, self.metrics)

    def _resolve_limit(self) -> int | None:
        spec = self._memory_limit_spec
        if spec == "auto":
            # Ranks on one node split the node's memory evenly.
            ranks_per_node = -(-self.nprocs // self.nodes)
            return self.platform.node_memory // ranks_per_node
        if spec is None:
            return None
        return parse_size(spec)

    def resize(self, nprocs: int) -> None:
        """Change the gang size for subsequent launches.

        This is the membership actuator of the elastic layer
        (:mod:`repro.ft.elastic`): a rank leave shrinks the gang, a
        join or a scale-up grows it.  An ``"auto"`` memory limit is
        re-derived from the new rank-per-node packing.  The shared PFS
        (and anything on it - checkpoints, spills, staged input) is
        deliberately untouched: storage outlives any one gang
        incarnation, which is exactly what membership-change recovery
        rebalances from.
        """
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        self.nprocs = nprocs
        self._limit = self._resolve_limit()

    def signature(self) -> str:
        """Configuration fingerprint used to stamp checkpoints."""
        return (f"{self.platform.name}:{self.nprocs}p{self.nodes}n:"
                f"mem={self._limit}")

    @property
    def memory_limit_per_rank(self) -> int | None:
        return self._limit

    def run(self, fn: Callable[..., Any], *args: Any,
            allow_oom: bool = False,
            trackers: list[MemoryTracker] | None = None,
            base: float = 0.0) -> ClusterResult:
        """Run ``fn(env, *args)`` on every rank; gather the outcome.

        ``trackers`` (one per rank) lets a caller carry memory state
        across launches: the multi-job scheduler reuses one tracker set
        for every scheduling round so cached intermediate containers
        stay charged between rounds instead of leaking accounting.
        ``env.trace`` stamps events at ``base`` plus the rank's clock.
        """
        if trackers is not None and len(trackers) != self.nprocs:
            raise ValueError(
                f"got {len(trackers)} trackers for {self.nprocs} ranks")
        trackers = trackers if trackers is not None else [
            MemoryTracker(self._limit, keep_timeline=self.keep_timeline)
            for _ in range(self.nprocs)
        ]
        self._trackers = trackers
        world = World(self.nprocs, self.platform.network)
        chaos = self._chaos
        self.pfs.wire(chaos, self.metrics)
        trace = self.trace.at(base) if self.trace is not None else None

        def rank_fn(comm: SimComm) -> Any:
            if chaos is not None:
                comm.slowdown = chaos.slowdown_for(comm.rank)
            shard = self.metrics.shard(comm.rank)
            comm.metrics = shard
            env = RankEnv(comm, trackers[comm.rank], self.pfs, self.platform,
                          metrics=shard, trace=trace)
            return fn(env, *args)

        try:
            world_result = world.run(rank_fn)
        except RankFailedError as failure:
            original = failure.original
            if allow_oom and isinstance(original, MemoryLimitExceeded):
                # The aborted launch's time still passed.
                return ClusterResult(
                    returns=[None] * self.nprocs,
                    elapsed=max(failure.clocks, default=0.0),
                    peak_bytes=[t.peak for t in trackers],
                    spilled_bytes=self.pfs.spilled_bytes,
                    oom=original,
                    oom_rank=failure.rank,
                )
            raise

        return ClusterResult(
            returns=world_result.returns,
            elapsed=world_result.elapsed,
            peak_bytes=[t.peak for t in trackers],
            spilled_bytes=self.pfs.spilled_bytes,
        )

    @property
    def trackers(self) -> list[MemoryTracker]:
        """Trackers from the most recent :meth:`run` (post-mortem analysis)."""
        return self._trackers
