"""Partitioning input data across ranks.

Mirrors what MapReduce-over-MPI libraries do at job start: each rank
claims a contiguous byte range of the input file, adjusted so records
(whitespace-separated words, fixed-size binary blocks, or index ranges)
never straddle a split boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.storage.base import StorageBackend

WHITESPACE = b" \t\n\r\x0b\x0c"

#: Bytes one boundary probe looks at; a word longer than this costs
#: one more probe per window, never a wrong boundary.
PROBE_WINDOW = 256


def split_range(total: int, rank: int, size: int) -> tuple[int, int]:
    """Contiguous ``[start, end)`` share of ``total`` items for ``rank``.

    Remainder items go to the lowest ranks, so shares differ by at most
    one and every item is covered exactly once.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} out of range for size {size}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    base, extra = divmod(total, size)
    start = rank * base + min(rank, extra)
    end = start + base + (1 if rank < extra else 0)
    return start, end


def _split_words(total: int, rank: int, size: int,
                 probe: Callable[[int], bytes]) -> tuple[int, int]:
    """``rank``'s word-aligned range of a ``total``-byte text, read
    only through ``probe(pos)``, a non-empty window starting at ``pos``.

    Each rank starts just after the first whitespace at-or-after its
    nominal offset (rank 0 starts at 0) and ends where the next rank
    starts, so every word belongs to exactly one rank.
    """

    def snap(pos: int) -> int:
        if pos == 0:
            return 0
        while pos < total:
            window = probe(pos)
            for i, byte in enumerate(window):
                if byte in WHITESPACE:
                    return pos + i + 1
            pos += len(window)
        return total

    start, end = split_range(total, rank, size)
    return snap(start), snap(end)


def split_text(data: bytes, rank: int, size: int) -> tuple[int, int]:
    """Byte range of ``data`` for ``rank``, snapped to word boundaries."""
    return _split_words(len(data), rank, size,
                        lambda pos: data[pos:pos + PROBE_WINDOW])


def split_text_file(store: "StorageBackend", path: str, rank: int,
                    size: int) -> tuple[int, int]:
    """:func:`split_text` of a stored file, without holding the file:
    its length plus a few uncharged :data:`PROBE_WINDOW`-byte probes
    forward of the two nominal offsets."""
    return _split_words(store.size(path), rank, size,
                        lambda pos: store.fetch(path, pos, PROBE_WINDOW))


def split_blocks(total_bytes: int, block_size: int, rank: int,
                 size: int) -> tuple[int, int]:
    """Byte range covering whole fixed-size records.

    ``total_bytes`` must be a multiple of ``block_size``; the returned
    range is block-aligned on both ends.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    if total_bytes % block_size:
        raise ValueError(
            f"total_bytes {total_bytes} is not a multiple of block size "
            f"{block_size}")
    nblocks = total_bytes // block_size
    first, last = split_range(nblocks, rank, size)
    return first * block_size, last * block_size
