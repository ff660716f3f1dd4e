"""Skew-tolerant folding: split hot keys across ranks.

The paper's weak-scaling failures (Figures 10 and 14) all trace to one
mechanism: a hash partitioner sends *every* occurrence of a key to one
rank, so a few dominant keys concentrate memory and work no matter how
many nodes are added.  The Mimir authors' follow-up work attacks this
with key splitting; this module implements that idea for
commutative/associative folds:

1. a sampling pass over the map output identifies globally hot keys
   (an allreduce of local top candidates);
2. hot keys are *salted* - each occurrence is routed to one of
   ``nsplits`` ranks by appending a salt byte derived from the source
   rank - so their volume spreads evenly;
3. each rank folds its salted share (partial results);
4. a second, tiny shuffle merges the per-salt partials on the true
   owner rank and strips the salt.

Cold keys take the normal single-stage path unchanged.  The result is
identical to a plain fold (requires fold invariance, like partial
reduction); only the distribution of memory and work changes.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.cluster import RankEnv
from repro.core.bucket import Bucket
from repro.core.config import MimirConfig
from repro.core.kvcontainer import KVContainer
from repro.core.partial_reduction import PartialReduceFn
from repro.core.shuffle import default_partitioner

#: Salt marker prepended to split keys during stage one.  Record
#: layouts are length-aware, so the marker cannot collide with user
#: keys once stripped symmetrically.
_SALT = b"\x01"
_PLAIN = b"\x00"


def find_hot_keys(env: RankEnv, sample: Iterable[tuple[bytes, int]], *,
                  max_hot: int = 8,
                  hot_fraction: float = 0.05) -> set[bytes]:
    """Agree on globally hot keys from per-rank ``(key, count)`` samples.

    A key is hot when it accounts for at least ``hot_fraction`` of all
    sampled records.  Every rank receives the same set.
    """
    local = dict(sample)
    total_local = sum(local.values())
    # Only a rank's heaviest candidates travel (control-plane traffic).
    candidates = sorted(local.items(), key=lambda kv: -kv[1])[: 4 * max_hot]
    gathered = env.comm.allgather(candidates)
    totals: dict[bytes, int] = {}
    for part in gathered:
        for key, count in part:
            totals[key] = totals.get(key, 0) + count
    grand_total = env.comm.allsum(total_local)
    if grand_total == 0:
        return set()
    hot = [key for key, count in totals.items()
           if count / grand_total >= hot_fraction]
    hot.sort(key=lambda key: -totals[key])
    return set(hot[:max_hot])


def fold_by_key(env: RankEnv, config: MimirConfig,
                feed: Callable[[Callable[[bytes, bytes], None]], None],
                fold_fn: PartialReduceFn, *,
                hot_keys: set[bytes] | None = None,
                sample_records: int = 4096,
                max_hot: int = 8,
                hot_fraction: float = 0.05,
                out_tag: str = "kv_folded") -> KVContainer:
    """Skew-tolerant fold of ``feed``'s emissions; returns owner-local KVs.

    ``feed(emit)`` must be callable twice (the sampling pass re-reads a
    prefix of the input); ``fold_fn`` must be commutative/associative.
    When ``hot_keys`` is None they are discovered by sampling.
    """
    from repro.core.job import Mimir

    comm = env.comm
    mimir = Mimir(env, config)

    # ---------------------------------------------------- sampling pass
    if hot_keys is None:
        sampled: list[bytes] = []

        class _Stop(Exception):
            pass

        def sample_emit(key: bytes, value: bytes) -> None:
            sampled.append(key)
            if len(sampled) >= sample_records:
                raise _Stop

        try:
            feed(sample_emit)
        except _Stop:
            pass
        counts = Bucket(env.tracker, config.bucket_entry_overhead + 16,
                        "skew_sample")
        seen = np.bincount(counts.enter_run(sampled)).tolist()
        hot_keys = find_hot_keys(env, zip(counts.index, seen),
                                 max_hot=max_hot, hot_fraction=hot_fraction)
        counts.free()

    # ------------------------------------------- stage 1: salted shuffle
    nsplits = comm.size
    my_salt = bytes([comm.rank % 251])

    def stage1_partitioner(key: bytes, nprocs: int) -> int:
        if key[:1] == _SALT:
            # Salted hot key: spread by the salt byte.
            return key[1] % nprocs
        return default_partitioner(key[1:], nprocs)

    def stage1_map(ctx, _item) -> None:
        def emit(key: bytes, value: bytes) -> None:
            if key in hot_keys:
                ctx.emit(_SALT + my_salt + key, value)
            else:
                ctx.emit(_PLAIN + key, value)

        feed(emit)

    kvs = mimir.map_items([None], stage1_map,
                          partitioner=stage1_partitioner)
    partials = mimir.partial_reduce(kvs, fold_fn, out_tag="kv_partials")

    # --------------------------------------- stage 2: merge the partials
    def stage2_map(ctx, key: bytes, value: bytes) -> None:
        if key[:1] == _SALT:
            ctx.emit(key[2:], value)  # strip marker + salt byte
        else:
            ctx.emit(key[1:], value)

    merged = mimir.map_kvs(partials, stage2_map)
    return mimir.partial_reduce(merged, fold_fn, out_tag=out_tag)
