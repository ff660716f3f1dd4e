"""WordCount (WC): the paper's single-pass benchmark.

Counts occurrences of each unique word.  Key = the word (variable
length), value = a 64-bit count.  The KV-hint declares the key
NUL-terminated and the value fixed at 8 bytes (exactly the paper's
WordCount example); KV compression and partial reduction both use
count summation, which is commutative and associative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import RankEnv
from repro.core import (
    CSTRING,
    KVLayout,
    MimirConfig,
    batch_kernel,
    pack_u64,
    unpack_u64,
)
from repro.mrmpi import MRMPI, MRMPIConfig
from repro.sched.executor import PlanRunner
from repro.sched.plan import Plan

#: The paper's WordCount KV-hint: NUL-terminated key, 8-byte value.
WC_HINT_LAYOUT = KVLayout(key_len=CSTRING, val_len=8)

_ONE = pack_u64(1)


def wc_map(ctx, chunk: bytes) -> None:
    """Emit ``(word, 1)`` for every word of the chunk."""
    for word in chunk.split():
        ctx.emit(word, _ONE)


@batch_kernel
def wc_map_batch(ctx, chunk: bytes) -> None:
    """Batch form of :func:`wc_map`: one dispatch per input chunk.

    Emits the same ``(word, 1)`` records in the same order as the
    per-record form, so the shuffle traffic is byte-identical.
    """
    ctx.emit_run(chunk.split(), _ONE)


def wc_reduce(ctx, key: bytes, values: list[bytes]) -> None:
    ctx.emit(key, pack_u64(sum(unpack_u64(v) for v in values)))


@batch_kernel
def wc_reduce_batch(ctx, groups) -> None:
    """Batch form of :func:`wc_reduce`: one dispatch per KMV page."""
    for key, values in groups:
        ctx.emit(key, pack_u64(sum(unpack_u64(v) for v in values)))


def wc_combine(key: bytes, a: bytes, b: bytes) -> bytes:
    """Sum two partial counts (combine / partial-reduce callback)."""
    return pack_u64(unpack_u64(a) + unpack_u64(b))


@batch_kernel
def wc_fold_batch(acc, ids, rows) -> None:
    """Batch form of :func:`wc_combine`, as combine and partial-reduce
    fold alike: add each incoming count to its slot's."""
    np.add.at(acc.view("<u8")[:, 0], ids, rows.view("<u8")[:, 0])


@dataclass
class WordCountResult:
    """Per-rank WordCount outcome."""

    unique_words: int
    total_words: int
    counts: dict[bytes, int] | None = None
    #: Encoded KV bytes this rank shipped through the shuffle (the
    #: paper's Figure 7 metric; 0 for the MR-MPI driver).
    kv_bytes: int = 0


def wordcount_plan(env: RankEnv, path: str,
                   config: MimirConfig | None = None, *,
                   hint: bool = False, compress: bool = False,
                   partial: bool = False, batch: bool = False,
                   collect: bool = False, runner=None) -> WordCountResult:
    """WordCount as a dataflow Plan: the app's one pipeline.

    ``batch=True`` swaps every kernel for its whole-page form (the
    fold only when the layout fixes the count at 8 bytes, as the hint
    does: a batch fold needs fixed-width values); counts and
    intermediate byte streams are identical either way.
    ``runner(plan)`` builds the :class:`PlanRunner` that carries the
    services (stage cache, trace, checkpoint, scheduler context), e.g.
    ``ctx.runner`` or ``functools.partial(PlanRunner, env, cache=c)``;
    without it the plan runs bare.
    """
    config = config or MimirConfig()
    if hint:
        config = config.with_layout(WC_HINT_LAYOUT)
    plan = Plan("wordcount", config)
    fold = wc_fold_batch if batch and config.layout.val_len == 8 \
        else wc_combine
    words = plan.read_text(path, name="input").map(
        wc_map_batch if batch else wc_map,
        combine_fn=fold if compress else None, name="count-map")
    if partial:
        out = words.partial_reduce(fold, out_layout=config.layout,
                                   name="counts")
    else:
        out = words.reduce(wc_reduce_batch if batch else wc_reduce,
                           out_layout=config.layout, name="counts")
    runner = runner(plan) if runner else PlanRunner(env, plan)
    pairs = runner.collect(out)
    unique = len(pairs)
    total = sum(unpack_u64(v) for _, v in pairs)
    counts = {k: unpack_u64(v) for k, v in pairs} if collect else None
    return WordCountResult(unique, total, counts,
                           kv_bytes=runner.mimir.last_map_stats.get(
                               "kv_bytes", 0))


def wordcount_mimir(env: RankEnv, path: str,
                    config: MimirConfig | None = None, *,
                    hint: bool = False, compress: bool = False,
                    partial: bool = False, batch: bool = False,
                    collect: bool = False) -> WordCountResult:
    """WordCount through Mimir: :func:`wordcount_plan`, no services.

    Kept by name only for the reference benchmark under ``perf/``;
    everything else calls :func:`wordcount_plan`.
    """
    return wordcount_plan(env, path, config, hint=hint, compress=compress,
                          partial=partial, batch=batch, collect=collect)


def wordcount_mrmpi(env: RankEnv, path: str,
                    config: MRMPIConfig | None = None, *,
                    compress: bool = False,
                    collect: bool = False) -> WordCountResult:
    """Run WordCount through the MR-MPI baseline."""
    mr = MRMPI(env, config)
    mr.map_text_file(path, wc_map)
    if compress:
        mr.compress(wc_combine)
    mr.aggregate()
    mr.convert()
    mr.reduce(wc_reduce)
    pairs = mr.collect()
    unique = len(pairs)
    total = sum(unpack_u64(v) for _, v in pairs)
    counts = {k: unpack_u64(v) for k, v in pairs} if collect else None
    mr.free()
    return WordCountResult(unique, total, counts)
