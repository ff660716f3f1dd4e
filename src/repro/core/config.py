"""Mimir job configuration.

Mirrors the knobs the paper exposes: the data-buffer page size (64 MB
by default, to match MR-MPI's default), the statically allocated
communication buffer size (send and receive buffers are equal by
design), and the three optional optimizations - KV-hint (a
:class:`~repro.core.records.KVLayout` on the intermediate stream),
partial reduction, and KV compression (both enabled by supplying the
corresponding callback to the job driver).  KV compression's bucket is
unbounded, as in the paper: it drains once, when the map input is
exhausted.  The shuffle/spill codec is this repository's own extension,
and it is on or off: ``codec`` is ``None`` or ``"dedup+zlib"``.
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
    #: Out-of-core KV containers (the capability the authors added to
    #: Mimir after publication): when a shuffled KVC cannot grow within
    #: the rank's memory budget, its oldest pages spill to the PFS and
    #: the job degrades gracefully instead of failing with OOM.
    out_of_core: bool = False
    #: Shuffle/spill codec: ``None``, or ``"dedup+zlib"``
    #: (:data:`~repro.core.codec.CODEC_SPEC`, the key-dedup frame
    #: DEFLATEd).  Filled container pages freeze into compressed
    #: segments, spill chunks are framed on the PFS, and exchange
    #: parts are framed on the wire - outputs stay byte-identical
    #: either way.
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
        if self.codec is not None:
            from repro.core.codec import get_codec

            get_codec(self.codec, self.layout)

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
