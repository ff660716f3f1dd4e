"""Chunked input readers shared by both MapReduce frameworks.

Each generator yields this rank's share of a PFS file in bounded
chunks, charging PFS read costs as it goes.  Text chunks never split a
word; binary chunks are always whole records.  Multi-file variants
accept a directory prefix or an explicit path list and assign *whole
files* round-robin to ranks - the standard layout for jobs whose input
is a directory of part files.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.cluster import RankEnv
from repro.io.splits import WHITESPACE, split_blocks, split_text_file


def resolve_paths(env: RankEnv, paths: str | Sequence[str]) -> list[str]:
    """Expand a directory prefix (trailing ``/``) or pass a list through."""
    if isinstance(paths, str):
        if paths.endswith("/"):
            resolved = env.pfs.listdir(paths)
            if not resolved:
                raise FileNotFoundError(f"no files under {paths!r}")
            return resolved
        return [paths]
    resolved = list(paths)
    if not resolved:
        raise ValueError("empty input path list")
    return resolved


def rank_files(env: RankEnv, paths: str | Sequence[str]) -> list[str]:
    """This rank's whole-file share of a multi-file input (round-robin)."""
    resolved = resolve_paths(env, paths)
    comm = env.comm
    return resolved[comm.rank :: comm.size]


def iter_text_chunks_multi(env: RankEnv, paths: str | Sequence[str],
                           chunk_size: int) -> Iterator[bytes]:
    """Word-safe chunks of this rank's whole-file share.

    With fewer files than ranks, each remaining file is instead
    byte-split across all ranks (degenerating to
    :func:`iter_text_chunks` semantics for the single-file case).
    """
    resolved = resolve_paths(env, paths)
    whole = len(resolved) >= env.comm.size
    for path in rank_files(env, resolved) if whole else resolved:
        yield from iter_text_chunks(env, path, chunk_size, whole=whole)


def iter_binary_chunks_multi(env: RankEnv, paths: str | Sequence[str],
                             record_size: int,
                             chunk_size: int) -> Iterator[bytes]:
    """Whole-record chunks of this rank's multi-file share."""
    resolved = resolve_paths(env, paths)
    whole = len(resolved) >= env.comm.size
    for path in rank_files(env, resolved) if whole else resolved:
        yield from iter_binary_chunks(env, path, record_size, chunk_size,
                                      whole=whole)


def iter_text_chunks(env: RankEnv, path: str, chunk_size: int, *,
                     whole: bool = False) -> Iterator[bytes]:
    """This rank's word-aligned span of a text file, in word-safe chunks.

    ``whole`` reads the file as a one-rank split: the multi-file
    readers deal whole files to ranks.
    """
    comm = env.comm
    rank, size = (0, 1) if whole else (comm.rank, comm.size)
    start, end = split_text_file(env.pfs, path, rank, size)
    pos = start
    carry = b""
    while pos < end:
        want = min(chunk_size, end - pos)
        block = env.pfs.read(comm, path, pos, want)
        pos += len(block)
        chunk = carry + block
        if pos < end:
            cut = len(chunk)
            while cut > 0 and chunk[cut - 1] not in WHITESPACE:
                cut -= 1
            carry = chunk[cut:]
            chunk = chunk[:cut]
        else:
            carry = b""
        if chunk:
            yield chunk
    if carry:
        yield carry


def iter_binary_chunks(env: RankEnv, path: str, record_size: int,
                       chunk_size: int, *,
                       whole: bool = False) -> Iterator[bytes]:
    """This rank's block-aligned span of a binary file, whole records
    (``whole``: the file as a one-rank split, see
    :func:`iter_text_chunks`)."""
    comm = env.comm
    rank, size = (0, 1) if whole else (comm.rank, comm.size)
    total = env.pfs.size(path)
    start, end = split_blocks(total, record_size, rank, size)
    step = max(record_size, (chunk_size // record_size) * record_size)
    pos = start
    while pos < end:
        want = min(step, end - pos)
        yield env.pfs.read(comm, path, pos, want)
        pos += want
