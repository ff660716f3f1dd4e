"""Inverted index: the original MapReduce motivating application.

Builds, from a directory of documents on the PFS, a mapping from each
word to the sorted list of documents containing it.  Map emits
``(word, doc_id)`` for every word occurrence (whole documents are
assigned round-robin to ranks); reduce deduplicates and sorts each
word's posting list.  Exercises multi-file input, variable-length
values, and an optional combine step that merges posting lists
map-side.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.cluster import RankEnv
from repro.core import MimirConfig
from repro.io.readers import rank_files
from repro.sched.executor import PlanRunner
from repro.sched.plan import Plan

_U32 = struct.Struct("<I")


def pack_postings(doc_ids: list[int]) -> bytes:
    """Serialise a sorted, deduplicated posting list."""
    return b"".join(_U32.pack(d) for d in doc_ids)


def unpack_postings(data: bytes) -> list[int]:
    return [_U32.unpack_from(data, off)[0]
            for off in range(0, len(data), 4)]


def merge_postings(key: bytes, a: bytes, b: bytes) -> bytes:
    """Combine callback: merge two posting lists (sorted union)."""
    merged = sorted(set(unpack_postings(a)) | set(unpack_postings(b)))
    return pack_postings(merged)


@dataclass
class InvertedIndexResult:
    """Per-rank slice of the index."""

    #: word -> sorted list of document ids (this rank's words only).
    index: dict[bytes, list[int]]
    documents: dict[int, str]  # doc id -> path (same on every rank)


def _emit_words(ctx, document: tuple[bytes, bytes]) -> None:
    """Emit ``(word, doc id)`` for every word of one document."""
    doc, data = document
    for word in data.split():
        ctx.emit(word, doc)


def _merge_reduce(ctx, key: bytes, values: list[bytes]) -> None:
    docs: set[int] = set()
    for value in values:
        docs.update(unpack_postings(value))
    ctx.emit(key, pack_postings(sorted(docs)))


def inverted_index_plan(env: RankEnv, prefix: str,
                        config: MimirConfig | None = None, *,
                        compress: bool = False,
                        runner=None) -> InvertedIndexResult:
    """Build an inverted index over every document under ``prefix``;
    ``runner`` as in :func:`repro.apps.wordcount.wordcount_plan`."""
    plan = Plan("inverted_index", config)
    runner = runner(plan) if runner else PlanRunner(env, plan)

    paths = env.pfs.listdir(prefix)
    if not paths:
        raise FileNotFoundError(f"no documents under {prefix!r}")
    documents = dict(enumerate(paths))
    doc_of = {path: i for i, path in documents.items()}

    def read_documents():
        # Read by the driver, between two kernel calls.
        for path in rank_files(env, paths):
            yield _U32.pack(doc_of[path]), env.pfs.read(env.comm, path)

    postings = (plan.source(read_documents, name="documents")
                .map(_emit_words,
                     combine_fn=merge_postings if compress else None,
                     name="occurrences")
                .reduce(_merge_reduce, name="postings"))
    index = {word: unpack_postings(value)
             for word, value in runner.stream(postings)}
    return InvertedIndexResult(index, documents)
