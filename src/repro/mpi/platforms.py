"""Descriptors of the paper's two evaluation platforms, linearly rescaled.

The paper evaluates on Comet (SDSC: 2x12-core Xeon E5-2680v3, 128 GB
RAM, FDR InfiniBand, Lustre) and Mira (ALCF BG/Q: 16-core A2, 16 GB
RAM, 5-D torus, GPFS behind 1:128 I/O forwarding).  A pure-Python
reproduction cannot shuffle hundreds of gigabytes in reasonable time,
so every *size* and every *rate* is divided by the same factor
(``SCALE_SHIFT = 10``, i.e. 1024): 64 MB pages become 64 KB pages,
128 GB nodes become 128 MB nodes, and bandwidths shrink equally, so
virtual-time and memory *ratios* are invariant under the rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.limits import parse_size
from repro.mpi.costmodel import NetworkModel, PFSModel

#: Every byte count and byte rate in the reproduction is the paper's
#: value divided by ``2**SCALE_SHIFT``.
SCALE_SHIFT = 10
SCALE = 1 << SCALE_SHIFT


def scaled(size: int | str) -> int:
    """Rescale a paper-quoted size (e.g. ``"64M"``) to reproduction units."""
    value = parse_size(size)
    return max(1, value >> SCALE_SHIFT)


@dataclass(frozen=True)
class Platform:
    """A simulated compute platform (already rescaled)."""

    name: str
    procs_per_node: int
    node_memory: int              # bytes per node (scaled)
    network: NetworkModel         # rates scaled
    pfs: PFSModel                 # rates scaled
    compute_rate: float           # bytes/sec of record processing per proc (scaled)
    default_page_size: int        # MR-MPI default page (scaled: 64K)
    max_page_size: int            # largest MR-MPI page the node supports

    @property
    def memory_per_proc(self) -> int:
        """Per-rank memory budget when one node is fully populated."""
        return self.node_memory // self.procs_per_node

    def rescaled(self, extra_shift: int) -> "Platform":
        """A copy shrunk by a further ``2**extra_shift``.

        Sizes *and* rates shrink together, so memory ratios and
        virtual-time ratios are invariant; only absolute work drops.
        Used by the benchmark harness to keep full figure sweeps fast.
        """
        if extra_shift < 0:
            raise ValueError(f"extra_shift must be >= 0, got {extra_shift}")
        if extra_shift == 0:
            return self
        f = 1 << extra_shift
        # Latencies shrink with the sizes as well: exchange rounds get
        # proportionally smaller under rescaling, so keeping latency
        # fixed would overweight per-round costs (no dynamical
        # similarity).  With everything divided by f, virtual times of
        # a rescaled run match the full-scale run exactly.
        return Platform(
            name=f"{self.name}/{f}",
            procs_per_node=self.procs_per_node,
            node_memory=max(1, self.node_memory // f),
            network=NetworkModel(self.network.latency / f,
                                 self.network.bandwidth / f),
            pfs=PFSModel(self.pfs.latency / f, self.pfs.bandwidth / f,
                         self.pfs.io_ratio, self.pfs.write_penalty),
            compute_rate=self.compute_rate / f,
            default_page_size=max(1, self.default_page_size // f),
            max_page_size=max(1, self.max_page_size // f),
        )

    def describe(self) -> str:
        from repro.memory.limits import format_size

        return (f"{self.name}: {self.procs_per_node} procs/node, "
                f"{format_size(self.node_memory)} memory/node (scaled 1/{SCALE})")


#: Comet: 24 procs/node, 128 GB/node, FDR InfiniBand (~6 GB/s), Lustre.
COMET = Platform(
    name="comet",
    procs_per_node=24,
    node_memory=scaled("128G"),
    network=NetworkModel(latency=2e-6, bandwidth=6e9 / SCALE),
    # Lustre: streaming reads are respectable, but 24 concurrent
    # spill writers collapse the shared OSTs' throughput.
    pfs=PFSModel(latency=1e-3, bandwidth=1.2e9 / SCALE, io_ratio=1.0,
                 write_penalty=12.0),
    compute_rate=300e6 / SCALE,
    default_page_size=scaled("64M"),
    max_page_size=scaled("512M"),
)

#: Mira: 16 procs/node, 16 GB/node, 5-D torus (~1.8 GB/s/link), GPFS
#: behind 1:128 I/O forwarding; slower cores than Comet.
MIRA = Platform(
    name="mira",
    procs_per_node=16,
    node_memory=scaled("16G"),
    network=NetworkModel(latency=2.5e-6, bandwidth=1.8e9 / SCALE),
    pfs=PFSModel(latency=1e-3, bandwidth=2.4e9 / SCALE, io_ratio=16.0,
                 write_penalty=4.0),
    compute_rate=40e6 / SCALE,
    default_page_size=scaled("64M"),
    max_page_size=scaled("128M"),
)

#: Comet variant that spills to the node-local flash SSD (each Comet
#: node has 320 GB of flash) instead of Lustre: modest streaming
#: bandwidth but no shared-OST write collapse and no metadata RTT.
#: Most supercomputers (e.g. Mira) have no such device - which is the
#: paper's point about why I/O spillover is so much worse on them.
COMET_LOCAL_SSD = Platform(
    name="comet-ssd",
    procs_per_node=24,
    node_memory=scaled("128G"),
    network=NetworkModel(latency=2e-6, bandwidth=6e9 / SCALE),
    pfs=PFSModel(latency=5e-5, bandwidth=500e6 / SCALE, io_ratio=1.0,
                 write_penalty=1.5),
    compute_rate=300e6 / SCALE,
    default_page_size=scaled("64M"),
    max_page_size=scaled("512M"),
)

PLATFORMS: dict[str, Platform] = {
    "comet": COMET,
    "mira": MIRA,
    "comet-ssd": COMET_LOCAL_SSD,
}
