"""Virtual-time cost models for the network and the parallel file system.

The simulator charges time, never wall-clock: every collective advances
all participating ranks' clocks by an alpha-beta (latency + inverse
bandwidth) estimate, and every PFS access is charged against a shared
bandwidth model.  The absolute numbers are arbitrary; what matters for
reproducing the paper is the *ratio* between in-memory processing,
network shuffling, and I/O spill (the last being orders of magnitude
slower, which is where Fig. 1's 1000x degradation comes from).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkModel:
    """Alpha-beta interconnect model, optionally topology-aware.

    ``latency`` is the per-message software+wire latency in seconds;
    ``bandwidth`` is per-link bytes/second.  Collective estimates follow
    the standard log-tree formulations.

    ``intra_speedup`` > 1 makes communication between ranks of one node
    cheaper (shared memory vs the wire): cost helpers accept the number
    of *nodes* the ranks span and blend the intra/inter rates by the
    fraction of traffic that stays on-node.  The default of 1.0 keeps
    the flat (topology-blind) model.
    """

    latency: float
    bandwidth: float
    intra_speedup: float = 1.0

    def _effective(self, nprocs: int, nnodes: int) -> tuple[float, float]:
        """Blended (latency, bandwidth) for an nprocs/nnodes layout."""
        if self.intra_speedup <= 1.0 or nprocs <= 1:
            return self.latency, self.bandwidth
        nnodes = max(1, min(nnodes, nprocs))
        # Fraction of peer pairs that live on the same node.
        per_node = nprocs / nnodes
        intra_frac = max(0.0, min(1.0, (per_node - 1) / max(1, nprocs - 1)))
        blend = intra_frac / self.intra_speedup + (1.0 - intra_frac)
        return self.latency * blend, self.bandwidth / blend

    def barrier_cost(self, nprocs: int, nnodes: int | None = None) -> float:
        """Dissemination barrier: ceil(log2(p)) rounds of latency."""
        if nprocs <= 1:
            return 0.0
        lat, _bw = self._effective(nprocs, nnodes or nprocs)
        return lat * math.ceil(math.log2(nprocs))

    def allreduce_cost(self, nprocs: int, nbytes: int,
                       nnodes: int | None = None) -> float:
        """Recursive-doubling allreduce on a small payload."""
        if nprocs <= 1:
            return 0.0
        lat, bw = self._effective(nprocs, nnodes or nprocs)
        rounds = math.ceil(math.log2(nprocs))
        return rounds * (lat + nbytes / bw)

    def bcast_cost(self, nprocs: int, nbytes: int,
                   nnodes: int | None = None) -> float:
        """Binomial-tree broadcast."""
        if nprocs <= 1:
            return 0.0
        lat, bw = self._effective(nprocs, nnodes or nprocs)
        rounds = math.ceil(math.log2(nprocs))
        return rounds * (lat + nbytes / bw)

    def allgather_cost(self, nprocs: int, max_nbytes: int,
                       nnodes: int | None = None) -> float:
        """Ring allgather: p-1 steps of the largest contribution."""
        if nprocs <= 1:
            return 0.0
        lat, bw = self._effective(nprocs, nnodes or nprocs)
        return (nprocs - 1) * (lat + max_nbytes / bw)

    def alltoallv_cost(self, nprocs: int, max_send_bytes: int,
                       nnodes: int | None = None) -> float:
        """Pairwise-exchange alltoallv.

        ``max_send_bytes`` is the largest total payload any single rank
        contributes; the busiest rank bounds completion.  p-1 exchange
        steps each move roughly ``max_send_bytes / p`` through one link.
        """
        if nprocs <= 1:
            return 0.0
        lat, bw = self._effective(nprocs, nnodes or nprocs)
        per_step = max_send_bytes / nprocs
        return (nprocs - 1) * (lat + per_step / bw)


@dataclass(frozen=True)
class PFSModel:
    """Shared parallel-file-system model.

    ``bandwidth`` is the aggregate bytes/second the PFS delivers to one
    compute node for streaming reads; ``latency`` is the per-operation
    overhead (metadata, RPC).  ``io_ratio`` models I/O-forwarding
    fan-in (Mira forwards many compute nodes through each I/O node):
    effective bandwidth is divided by it.  ``write_penalty`` models the
    well-known collapse of shared-file-system throughput under many
    concurrent small writers (exactly the spill pattern): write
    bandwidth is read bandwidth divided by this factor.  The PFS being
    slow relative to memory is the whole story of the paper's Figure 1.
    """

    latency: float
    bandwidth: float
    io_ratio: float = 1.0
    write_penalty: float = 1.0

    @property
    def effective_bandwidth(self) -> float:
        return self.bandwidth / self.io_ratio

    @property
    def effective_write_bandwidth(self) -> float:
        return self.effective_bandwidth / self.write_penalty

    def access_cost(self, nbytes: int, write: bool = False) -> float:
        """Time for one rank to move ``nbytes`` (uncontended)."""
        bw = self.effective_write_bandwidth if write else \
            self.effective_bandwidth
        return self.latency + nbytes / bw
