"""Mimir job configuration.

Mirrors the knobs the paper exposes: the data-buffer page size (64 MB
by default, to match MR-MPI's default), the statically allocated
communication buffer size (send and receive buffers are equal by
design), and the three optional optimizations - KV-hint (a
:class:`~repro.core.records.KVLayout` on the intermediate stream),
partial reduction, and KV compression (both enabled by supplying the
corresponding callback to the job driver).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.errors import ConfigError
from repro.core.records import KVLayout
from repro.memory.limits import parse_size


@dataclass(frozen=True)
class MimirConfig:
    """Configuration for one :class:`~repro.core.job.Mimir` instance.

    ``page_size`` is the unit of data-buffer growth (KVCs and KMVCs
    allocate and free in whole pages); ``comm_buffer_size`` is the size
    of each of the two statically allocated communication buffers.  The
    intermediate-stream layout carries the KV-hint; output layouts may
    be overridden per call.
    """

    page_size: int = 64 * 1024
    comm_buffer_size: int = 64 * 1024
    layout: KVLayout = field(default_factory=KVLayout)
    #: Read granularity for file inputs.
    input_chunk_size: int = 64 * 1024
    #: KV-compression bucket budget in bytes.  ``None`` reproduces the
    #: paper's published behaviour (the aggregate is delayed until the
    #: whole map input is compressed, so the bucket is unbounded).  A
    #: byte budget enables the improvement the paper flags as future
    #: work: when the bucket reaches the budget it is drained through
    #: the shuffle and compression restarts, bounding its footprint.
    combiner_bucket_budget: int | str | None = None
    #: Out-of-core KV containers (the capability the authors added to
    #: Mimir after publication): when a shuffled KVC cannot grow within
    #: the rank's memory budget, its oldest pages spill to the PFS and
    #: the job degrades gracefully instead of failing with OOM.
    out_of_core: bool = False
    #: Shuffle/spill codec spec (``None``, ``"zlib"``, ``"dedup"``, or
    #: ``"dedup+zlib"``): the paper's KV-compression optimization.
    #: Filled container pages freeze into compressed segments, spill
    #: chunks are framed on the PFS, and exchange parts are framed on
    #: the wire - outputs stay byte-identical either way.
    codec: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "page_size", parse_size(self.page_size))
        object.__setattr__(self, "comm_buffer_size",
                           parse_size(self.comm_buffer_size))
        object.__setattr__(self, "input_chunk_size",
                           parse_size(self.input_chunk_size))
        if self.page_size <= 0:
            raise ConfigError(f"page_size must be positive, got {self.page_size}")
        if self.comm_buffer_size <= 0:
            raise ConfigError(
                f"comm_buffer_size must be positive, got {self.comm_buffer_size}")
        if self.input_chunk_size <= 0:
            raise ConfigError("input_chunk_size must be positive")
        if not isinstance(self.layout, KVLayout):
            raise ConfigError(f"layout must be a KVLayout, got {self.layout!r}")
        if self.combiner_bucket_budget is not None:
            budget = parse_size(self.combiner_bucket_budget)
            if budget <= 0:
                raise ConfigError(
                    "combiner_bucket_budget must be positive or None, "
                    f"got {self.combiner_bucket_budget!r}")
            object.__setattr__(self, "combiner_bucket_budget", budget)
        if self.codec is not None:
            from repro.core.codec import CODEC_SPECS

            if self.codec not in CODEC_SPECS:
                raise ConfigError(
                    f"unknown codec {self.codec!r}; expected one of "
                    f"{CODEC_SPECS} or None")

    def with_layout(self, layout: KVLayout) -> "MimirConfig":
        """A copy of this config with a different intermediate layout."""
        return replace(self, layout=layout)

    def partition_size(self, nprocs: int) -> int:
        """Bytes of send buffer dedicated to each destination rank."""
        if nprocs <= 0:
            raise ConfigError(f"nprocs must be positive, got {nprocs}")
        size = self.comm_buffer_size // nprocs
        if size <= 0:
            raise ConfigError(
                f"comm_buffer_size {self.comm_buffer_size} is too small to "
                f"partition across {nprocs} ranks")
        return size
