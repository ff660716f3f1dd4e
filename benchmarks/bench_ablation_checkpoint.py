"""Ablation: checkpoint/restart cost and payoff.

Measures (a) the overhead a shuffle checkpoint adds to a failure-free
WordCount, and (b) the recovery saving when a rank crashes after the
shuffle: with a checkpoint the restart skips the map+aggregate, without
one it redoes everything.
"""

from figutils import BCOMET, SCALE
from repro.bench.runner import stage_dataset
from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.ft import ChaosPlan, run_with_recovery

CFG = MimirConfig(page_size=BCOMET.default_page_size,
                  comm_buffer_size=BCOMET.default_page_size,
                  input_chunk_size=BCOMET.default_page_size)
DATASET = "2G"


def wc_map(ctx, chunk):
    for word in chunk.split():
        ctx.emit(word, pack_u64(1))


def wc_combine(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


def make_job(checkpoint: bool):
    def job(env, ckpt, faults):
        mimir = Mimir(env, CFG)
        if checkpoint and ckpt.has("shuffle"):
            kvs = ckpt.load_kvc(
                "shuffle", mimir.container(CFG.layout, "kv_restored"))
        else:
            kvs = mimir.map_text_file("input/wc_uniform.txt", wc_map)
            if checkpoint:
                ckpt.save_kvc("shuffle", kvs)
        env.probe("after_shuffle")
        out = mimir.partial_reduce(kvs, wc_combine)
        n = len(out)
        out.free()
        return n

    return job


def run_case(checkpoint: bool, fail: bool):
    path, data = stage_dataset(SCALE.spec(BCOMET, "wc_uniform", DATASET))
    cluster = Cluster(BCOMET, nprocs=BCOMET.procs_per_node,
                      memory_limit=None)
    cluster.pfs.store(path, data)
    plan = ChaosPlan()
    if fail:
        plan.fail_at("after_shuffle", 5)
    return run_with_recovery(cluster, make_job(checkpoint), faults=plan)


def test_ablation_checkpoint_overhead_and_recovery(benchmark):
    def sweep():
        return {
            "plain": run_case(checkpoint=False, fail=False),
            "ckpt": run_case(checkpoint=True, fail=False),
            "plain+fail": run_case(checkpoint=False, fail=True),
            "ckpt+fail": run_case(checkpoint=True, fail=True),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\n== Ablation: checkpoint/restart, WC(Uniform) 2G, Comet ==")
    print(f"{'case':<12} {'attempts':>8} {'total time':>12} "
          f"{'final attempt':>14}")
    for case, ft in results.items():
        print(f"{case:<12} {ft.attempts:>8} {ft.total_elapsed:>11.2f}s "
              f"{ft.result.elapsed:>13.2f}s")

    plain, ckpt = results["plain"], results["ckpt"]
    plain_fail, ckpt_fail = results["plain+fail"], results["ckpt+fail"]
    assert plain.attempts == ckpt.attempts == 1
    assert plain_fail.attempts == ckpt_fail.attempts == 2

    # Checkpointing is not free: writing the shuffled KVs through the
    # contended PFS costs real time (comparable to a spill - for a
    # phase this cheap, recomputation can beat checkpointing, exactly
    # the classic checkpoint-interval trade-off).
    assert ckpt.total_elapsed > plain.total_elapsed

    # The payoff: a restarted attempt that loads the checkpoint is
    # cheaper than a from-scratch checkpointed run (reads instead of
    # map + aggregate + checkpoint write).
    assert ckpt_fail.result.elapsed < ckpt.result.elapsed
    # Without a checkpoint the restart pays the full job again.
    assert plain_fail.result.elapsed > 0.9 * plain.result.elapsed
