"""Mimir: the paper's memory-efficient MapReduce-over-MPI core.

Public API:

- :class:`MimirConfig` - page/buffer sizes and the optional
  optimizations (KV-hint, partial reduction, KV compression, codec).
- :class:`KVLayout` - record encoding, including the KV-hint fixed and
  NUL-terminated layouts (``CSTRING``).
- :class:`KVContainer` / :class:`KMVContainer` - the KVC/KMVC opaque
  objects that grow and shrink page-by-page.
- :class:`KVBatch` / :func:`batch_kernel` - the columnar batch view
  over container pages and the marker that opts a kernel into
  whole-batch dispatch.
- :class:`Mimir` - the job driver: ``map_file`` / ``map_kvs`` /
  ``map_items`` (with the implicit interleaved aggregate), ``reduce``
  (implicit convert), and ``partial_reduce``.
"""

from repro.core.batch import KVBatch, batch_kernel, is_batch_kernel
from repro.core.codec import CODEC_SPEC, Codec, get_codec
from repro.core.config import MimirConfig
from repro.core.errors import ConfigError, RecordTooLargeError
from repro.core.job import MapContext, Mimir, ReduceContext
from repro.core.kmvcontainer import KMVContainer
from repro.core.kvcontainer import KVContainer
from repro.core.records import (
    CSTRING,
    VARIABLE,
    KVLayout,
    pack_u64,
    unpack_u64,
)

__all__ = [
    "CODEC_SPEC",
    "CSTRING",
    "Codec",
    "ConfigError",
    "KMVContainer",
    "KVBatch",
    "KVContainer",
    "KVLayout",
    "MapContext",
    "Mimir",
    "MimirConfig",
    "RecordTooLargeError",
    "ReduceContext",
    "VARIABLE",
    "batch_kernel",
    "get_codec",
    "is_batch_kernel",
    "pack_u64",
    "unpack_u64",
]
