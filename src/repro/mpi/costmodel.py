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
    """Alpha-beta interconnect model.

    ``latency`` is the per-message software+wire latency in seconds;
    ``bandwidth`` is per-link bytes/second.  Collective estimates follow
    the standard log-tree formulations.
    """

    latency: float
    bandwidth: float

    def barrier_cost(self, nprocs: int) -> float:
        """Dissemination barrier: ceil(log2(p)) rounds of latency."""
        if nprocs <= 1:
            return 0.0
        return self.latency * math.ceil(math.log2(nprocs))

    def allreduce_cost(self, nprocs: int, nbytes: int) -> float:
        """Recursive-doubling allreduce on a small payload."""
        if nprocs <= 1:
            return 0.0
        rounds = math.ceil(math.log2(nprocs))
        return rounds * (self.latency + nbytes / self.bandwidth)

    def bcast_cost(self, nprocs: int, nbytes: int) -> float:
        """Binomial-tree broadcast."""
        if nprocs <= 1:
            return 0.0
        rounds = math.ceil(math.log2(nprocs))
        return rounds * (self.latency + nbytes / self.bandwidth)

    def allgather_cost(self, nprocs: int, max_nbytes: int) -> float:
        """Ring allgather: p-1 steps of the largest contribution."""
        if nprocs <= 1:
            return 0.0
        return (nprocs - 1) * (self.latency + max_nbytes / self.bandwidth)

    def alltoallv_cost(self, nprocs: int, max_send_bytes: int) -> float:
        """Pairwise-exchange alltoallv.

        ``max_send_bytes`` is the largest total payload any single rank
        contributes; the busiest rank bounds completion.  p-1 exchange
        steps each move roughly ``max_send_bytes / p`` through one link.
        """
        if nprocs <= 1:
            return 0.0
        per_step = max_send_bytes / nprocs
        return (nprocs - 1) * (self.latency + per_step / self.bandwidth)


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
