#!/usr/bin/env python3
"""Fault-tolerant WordCount: checkpoint/restart surviving rank crashes.

Injects a rank failure after the shuffle phase; the restarted job loads
the shuffle checkpoint from the parallel file system instead of redoing
the map and exchange, so the lost work is bounded by one phase.  (This
reproduces the checkpoint/restart design of the authors' companion
fault-tolerance work the paper cites.)

Run:  python examples/fault_tolerant_wordcount.py
"""

from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.datasets import uniform_text
from repro.ft import ChaosPlan, run_with_recovery
from repro.mpi import COMET

CFG = MimirConfig(page_size="8K", comm_buffer_size="8K")


def wc_map(ctx, chunk):
    for word in chunk.split():
        ctx.emit(word, pack_u64(1))


def wc_combine(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


def job(env, ckpt, faults):
    mimir = Mimir(env, CFG)

    if ckpt.has("shuffle"):
        if env.comm.rank == 0:
            print("  [restart] shuffle checkpoint found - skipping map")
        # Refill a container this job made: it keeps the job's page
        # size, spill store and out-of-core setting.
        kvs = ckpt.load_kvc(
            "shuffle", mimir.container(CFG.layout, "kv_restored"))
    else:
        kvs = mimir.map_text_file("input/words.txt", wc_map)
        ckpt.save_kvc("shuffle", kvs)

    env.probe("after_shuffle")

    out = mimir.partial_reduce(kvs, wc_combine)
    result = {k: unpack_u64(v) for k, v in out.records()}
    out.free()
    return result


def main():
    cluster = Cluster(COMET, nprocs=8, memory_limit=None)
    cluster.pfs.store("input/words.txt",
                      uniform_text(200_000, vocab_size=500, seed=5))

    plan = ChaosPlan().fail_at("after_shuffle", 3)
    print("running WordCount with an injected crash of rank 3 ...")
    ft = run_with_recovery(cluster, job, faults=plan)

    total_words = sum(count for part in ft.result.returns
                      for count in part.values())
    print(f"\nattempts        : {ft.attempts} "
          f"({ft.restarts} restart(s), failures: {ft.failures})")
    print(f"words counted   : {total_words}")
    print(f"virtual time    : {ft.total_elapsed:.3f} s total "
          f"({ft.result.elapsed:.3f} s successful attempt)")
    for record in ft.failure_log:
        print(f"failure log     : attempt {record.attempt} rank "
              f"{record.rank} [{record.kind}] {record.message}")


if __name__ == "__main__":
    main()
