"""Kitchen-sink integration: a multi-stage analytics pipeline.

Chains most of the public surface in one job - multi-file input,
compression, checkpointing, a second MapReduce stage over the first's
output, global sort, and a single shared output file - and checks the
final artefact byte-for-byte against an independently computed one.
"""

from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.ft import ChaosPlan, CheckpointManager, run_with_recovery
from repro.mpi import COMET

CFG = MimirConfig(page_size=4096, comm_buffer_size=4096,
                  input_chunk_size=512)

PARTS = {
    f"corpus/doc{i}": (b"alpha beta gamma delta epsilon zeta "
                       b"alpha beta alpha ") * (4 + i)
    for i in range(5)
}


def wc_map(ctx, chunk):
    for word in chunk.split():
        ctx.emit(word, pack_u64(1))


def fold(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


def pipeline(env, ckpt: CheckpointManager, faults: ChaosPlan):
    mimir = Mimir(env, CFG)

    # Stage 1: word counts over the document directory (compressed),
    # checkpointed so a failure does not redo the shuffle.
    if ckpt.has("counts"):
        counts = ckpt.load_kvc(
            "counts", mimir.container(CFG.layout, "kv_counts"))
    else:
        kvs = mimir.map_text_files("corpus/", wc_map, combine_fn=fold)
        counts = mimir.partial_reduce(kvs, fold)
        ckpt.save_kvc("counts", counts)
    env.probe("after_stage1")

    # Stage 2: histogram of count values (count -> number of words).
    stage2 = mimir.map_kvs(counts,
                           lambda ctx, k, v: ctx.emit(v, pack_u64(1)))
    histogram = mimir.partial_reduce(stage2, fold)

    # Stage 3: globally sorted single-file report.
    ordered = mimir.global_sort(histogram)
    mimir.write_output_global(
        ordered, "out/histogram.txt",
        render=lambda k, v: b"%d %d\n" % (unpack_u64(k), unpack_u64(v)))
    ordered.free()
    return True


def expected_report() -> bytes:
    words = Counter()
    for data in PARTS.values():
        words.update(data.split())
    histogram = Counter(words.values())
    return b"".join(b"%d %d\n" % (count, nwords)
                    for count, nwords in sorted(histogram.items()))


@pytest.mark.parametrize("nprocs", [1, 4, 7])
def test_pipeline_end_to_end(nprocs):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    for path, data in PARTS.items():
        cluster.pfs.store(path, data)
    ft = run_with_recovery(cluster, pipeline)
    assert ft.attempts == 1
    assert cluster.pfs.fetch("out/histogram.txt") == expected_report()


def test_pipeline_survives_mid_job_failure():
    cluster = Cluster(COMET, nprocs=4, memory_limit=None)
    for path, data in PARTS.items():
        cluster.pfs.store(path, data)
    plan = ChaosPlan().fail_at("after_stage1", 2)
    ft = run_with_recovery(cluster, pipeline, faults=plan)
    assert ft.attempts == 2
    assert cluster.pfs.fetch("out/histogram.txt") == expected_report()


def test_pipeline_leaves_no_memory_behind():
    cluster = Cluster(COMET, nprocs=3, memory_limit=None)
    for path, data in PARTS.items():
        cluster.pfs.store(path, data)

    def job(env):
        pipeline(env, CheckpointManager(env, "leak"), ChaosPlan())
        return env.tracker.current

    assert cluster.run(job).returns == [0, 0, 0]
