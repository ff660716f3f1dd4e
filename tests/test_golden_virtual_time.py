"""Pinned virtual time: per-record emits cost what they always cost.

Every case runs kernels that emit one record at a time (the paper's
API) and pins four observables to the values the engine produced
before ``ctx.emit`` staged its records in blocks:

- ``float.hex`` of the cluster's elapsed virtual time;
- the per-rank tracked peaks, summed;
- the ``mpi.alltoallv.bytes`` counter (what crossed the wire);
- a digest of what every rank returned.

Staging may batch the work, never move the clock: a changed pin means
an exchange, a read or a charge moved against the others.  The cases
are the ones where that could happen: the skew fold and the inverted
index (kernels that used to read their input between two emits), the
join (a spilled input read while its records are emitted), the
elastic map (tasks into their own containers), a bounded combiner (a
budget checked per call) and every served app.  The demo inputs the
served apps (and the frozen benchmark's ``serve_mix``) run on are
pinned by digest.

The ``mrmpi_*`` cases pin the baseline every paper figure divides by,
recorded while MR-MPI still appended, encoded, decoded and grouped one
record at a time: its virtual time, pages and spill must not move when
those loops run on core's block primitives.  Each rank also returns
the ``total_spilled_bytes`` of every MR-MPI object it made.

The ``terasort_*`` and ``out_of_core_*`` cases pin what a sort that
can run out of core must leave alone: TeraSort's in-memory global sort
(both map forms) and the out-of-core reduce and partial reduce, whose
ranks also return the bytes they wrote to storage (all of it spill),
the reduce also with its map output frozen under each codec.

Run this file as a script to print the observed values.
"""

import hashlib
from functools import partial
from unittest import mock

import pytest

import repro.apps.bfs
import repro.apps.octree
import repro.apps.wordcount

from repro.apps.inverted_index import inverted_index_plan
from repro.apps.terasort import generate_records, terasort_mimir
from repro.apps.bfs import bfs_mrmpi
from repro.apps.octree import octree_mrmpi
from repro.apps.wordcount import (
    wc_combine,
    wc_map,
    wordcount_mrmpi,
)
from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.core.skew import fold_by_key
from repro.datasets.words import uniform_text, zipf_text
from repro.ft.chaos import make_elastic_cluster, straggler_plan
from repro.ft.elastic import ElasticPolicy, speculative_map
from repro.io.readers import iter_text_chunks
from repro.mpi import COMET
from repro.mrmpi import MRMPI, MRMPIConfig
from repro.sched import Plan, PlanRunner
from repro.sched.demo import stage_inputs
from repro.serve.catalog import SERVE_APPS, run_direct


def observe(cluster, job, *args):
    result = cluster.run(job, *args)
    digest = hashlib.sha256(repr(result.returns).encode()).hexdigest()
    return (float.hex(result.elapsed), sum(result.peak_bytes),
            cluster.metrics.totals().get("mpi.alltoallv.bytes", 0),
            digest[:16])


# ------------------------------------------------------------- the cases

SKEW_CFG = MimirConfig(page_size=2048, comm_buffer_size=1024,
                       input_chunk_size=512)
SKEWED = (b"hot " * 70 + b"".join(b"c%02d " % (i % 30)
                                   for i in range(30))) * 40


def count_words(emit, chunk):
    for word in chunk.split():
        emit(word, pack_u64(1))


def fold_sum(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


def fold_by_key_case():
    cluster = Cluster(COMET, nprocs=4, memory_limit=None)
    cluster.pfs.store("t.txt", SKEWED)

    def job(env):
        out = fold_by_key(
            env, SKEW_CFG,
            lambda: iter_text_chunks(env, "t.txt", SKEW_CFG.input_chunk_size),
            count_words, fold_sum)
        return sorted(out.consume())

    return observe(cluster, job)


def emit_row(ctx, row):
    ctx.emit(*row)


def pair_rows(ctx, key, lvals, rvals):
    for lv in lvals:
        for rv in rvals:
            ctx.emit(key, lv + b"|" + rv)


def join_case():
    # Out of core under a tight limit: both join inputs spill, so their
    # records are read back from storage while they are emitted, and
    # the left side grows with the rank, so which rank is last into an
    # exchange changes as they go.
    config = MimirConfig(page_size=512, comm_buffer_size=3072,
                         out_of_core=True)
    left = [(b"k%03d" % (i % 97), b"l%04d" % i) for i in range(600)]
    right = [(b"k%03d" % (i % 89), b"r%04d" % i) for i in range(500)]
    cluster = Cluster(COMET, nprocs=3, memory_limit="12K")

    def job(env):
        rank, size = env.comm.rank, env.comm.size
        plan = Plan("join", config)
        lhs = plan.source(left[: 100 * (rank + 1)]).map(emit_row)
        rhs = plan.source(right[rank::size]).map(emit_row)
        return sorted(PlanRunner(env, plan).collect(lhs.join(rhs, pair_rows)))

    return observe(cluster, job)


def speculative_map_case():
    cluster = make_elastic_cluster(4)
    cluster.chaos = straggler_plan(0, 4)
    policy = ElasticPolicy(evict_stragglers=False, splits_per_rank=4)
    config = MimirConfig(page_size=2048, comm_buffer_size=2048,
                         input_chunk_size=512)

    def job(env):
        out = speculative_map(Mimir(env, config), "input/elastic_words.txt",
                              wc_map, policy=policy, combine_fn=wc_combine)
        return sorted(out.consume())

    return observe(cluster, job)


def inverted_index_case():
    # Several documents per rank: each read lands between two of the
    # kernel's calls, never between two of its emits.
    config = MimirConfig(page_size=2048, comm_buffer_size=1024)
    cluster = Cluster(COMET, nprocs=3, memory_limit=None)
    for doc in range(8):
        cluster.pfs.store(f"docs/{doc}.txt", uniform_text(
            (doc + 1) * 600, vocab_size=90, seed=doc))

    def job(env):
        result = inverted_index_plan(env, "docs/", config)
        return sorted(result.index.items())

    return observe(cluster, job)


def served_app_case(app):
    cluster = Cluster(COMET, nprocs=3, memory_limit=None)
    path = stage_inputs(cluster, text_bytes=1 << 13, graph_scale=6,
                        npoints=256)[app]
    return observe(cluster, partial(run_direct, app), path, {})


def terasort_case(batch):
    # In memory, under a limit it stays below: the path a sort that can
    # run out of core must leave call for call.
    config = MimirConfig(page_size=2048, comm_buffer_size=2048,
                         input_chunk_size=1024)
    cluster = Cluster(COMET, nprocs=3, memory_limit="96K")
    cluster.pfs.store("tera/in.bin", generate_records(3000, seed=5))

    def job(env):
        result = terasort_mimir(env, "tera/in.bin", "tera/out.bin", config,
                                batch=batch)
        return result.records_local, hashlib.sha256(
            env.pfs.fetch("tera/out.bin")).hexdigest()[:16]

    return observe(cluster, job)


def out_of_core_stage(op, codec=None, text_bytes=256 * 1024):
    """WordCount's ``op`` at ``TestOutOfCoreStages``' shape (2 ranks,
    4K pages, a 125K limit, 256 KiB of zipf text), its map output
    frozen with ``codec``: every rank returns its records and the bytes
    it wrote to storage, which in this job are all spill."""
    config = MimirConfig(page_size="4K", comm_buffer_size="4K",
                         input_chunk_size="4K", out_of_core=True,
                         codec=codec)
    cluster = Cluster(COMET, nprocs=2, memory_limit="125K")
    cluster.pfs.store("t.txt", zipf_text(text_bytes, vocab_size=200))

    def job(env):
        mimir = Mimir(env, config)
        kvs = mimir.map_text_file("t.txt", wc_map)
        if op == "reduce":
            out = mimir.reduce(
                kvs, lambda ctx, k, vs: ctx.emit(k, pack_u64(len(vs))))
        elif op == "partial_reduce":
            out = mimir.partial_reduce(kvs, wc_combine)
        else:
            out = getattr(mimir, op)(kvs)
        records = list(out.records())
        out.free()
        return records, env.metrics.value("storage.bytes_written")

    return observe(cluster, job)


def mrmpi_case(run, config, nprocs=3):
    """``run(env, paths, config)`` over the demo inputs; every rank
    returns its result and the ``total_spilled_bytes`` of each MR-MPI
    object the apps made."""
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    paths = stage_inputs(cluster, text_bytes=1 << 13, graph_scale=6,
                         npoints=512)
    made = {}

    class Recorded(MRMPI):
        def __init__(self, env, *args, **kwargs):
            super().__init__(env, *args, **kwargs)
            made.setdefault(env.comm.rank, []).append(self)

    def job(env):
        result = run(env, paths, config)
        return result, [mr.total_spilled_bytes
                        for mr in made.get(env.comm.rank, [])]

    with mock.patch.object(repro.apps.wordcount, "MRMPI", Recorded), \
            mock.patch.object(repro.apps.octree, "MRMPI", Recorded), \
            mock.patch.object(repro.apps.bfs, "MRMPI", Recorded):
        return observe(cluster, job)


#: Holds every rank's data in one page: nothing spills.
MRMPI_BIG = MRMPIConfig(page_size="64K", input_chunk_size=512)
#: Small enough that the map output and the aggregated KVs spill, so
#: ``convert`` takes its out-of-core path.
MRMPI_TINY = MRMPIConfig(page_size=512, input_chunk_size=256)


def mrmpi_wordcount(env, paths, config, **opts):
    return wordcount_mrmpi(env, paths["wordcount"], config, collect=True,
                           **opts)


def mrmpi_octree(env, paths, config):
    result = octree_mrmpi(env, paths["octree"], config, density=0.01,
                          compress=True)
    assert result.levels_run >= 2
    return result


def mrmpi_bfs(env, paths, config):
    return bfs_mrmpi(env, paths["bfs"], config, keep_parents=True)


MRMPI_CASES = {
    "mrmpi_wordcount": partial(mrmpi_case, mrmpi_wordcount, MRMPI_BIG),
    "mrmpi_wordcount_spilled": partial(mrmpi_case, mrmpi_wordcount,
                                       MRMPI_TINY),
    "mrmpi_wordcount_compress": partial(
        mrmpi_case, partial(mrmpi_wordcount, compress=True), MRMPI_TINY),
    "mrmpi_octree_compress": partial(mrmpi_case, mrmpi_octree, MRMPI_TINY),
    "mrmpi_bfs": partial(mrmpi_case, mrmpi_bfs, MRMPI_TINY),
}


CASES = {
    "fold_by_key": fold_by_key_case,
    "join": join_case,
    "speculative_map": speculative_map_case,
    "inverted_index": inverted_index_case,
    "terasort_batch": partial(terasort_case, True),
    "terasort_per_record": partial(terasort_case, False),
    "out_of_core_reduce": partial(out_of_core_stage, "reduce"),
    "out_of_core_partial_reduce": partial(out_of_core_stage,
                                          "partial_reduce"),
    # 64 KiB: the size every codec's map holds in memory.
    **{f"out_of_core_reduce_{codec}": partial(
        out_of_core_stage, "reduce", codec, 64 * 1024)
       for codec in ("zlib", "dedup", "dedup+zlib")},
    **{f"serve_{app}": partial(served_app_case, app) for app in SERVE_APPS},
    **MRMPI_CASES,
}

# ----------------------------------------------------------- the pins

#: ``(elapsed, summed tracked peak, alltoallv bytes, output digest)``,
#: recorded with one emit routed at a time.
PINNED = {
    'fold_by_key': ('0x1.49801f836156cp-2', 94208, 83446, 'b64bc0c49a1d3e65'),
    'inverted_index': (
        '0x1.8acce79f05638p-2', 142106, 55494, '27aef264fc734cd0'),
    'join': ('0x1.9a4a4bc72ab07p+0', 36472, 38500, '39559d55eeeb9ada'),
    'serve_bfs': ('0x1.a39c0e910f849p-3', 603048, 46752, 'bbf7350e2f676387'),
    'serve_components': (
        '0x1.5cfe46d6673e8p-1', 589824, 140256, '2ec50fc3c60a777b'),
    'serve_inverted_index': (
        '0x1.df4af4a666114p-3', 589824, 21060, '6ce0d66d9b468fdb'),
    'serve_kmeans': ('0x1.70e404b8b859cp-5', 530768, 4320, 'c971e42eadabc8e6'),
    'serve_octree': (
        '0x1.01d60aaac582ap-3', 589824, 16558, 'e1344f094324fa55'),
    'serve_pagerank': (
        '0x1.c548b56e1abb8p-3', 786432, 36672, 'aaf4852901d4c00a'),
    # A window fold reads a cached batch's counts in place; copying
    # them first took '0x1.042bceeb90b80p-2' (0.2541 s), same output.
    'serve_stream_wordcount': (
        '0x1.e40fbff1fe6b1p-3', 589824, 17550, '6b6462ad8db75480'),
    'serve_wordcount': (
        '0x1.b675df412f8c2p-4', 589824, 17550, 'd220d6aa2fe9efdc'),
    'speculative_map': (
        '0x1.58b31e2998eb8p-1', 54859, 531, '1d71a9ca313c2fde'),
    # Recorded before global_sort and sort_local could run out of core:
    # the in-memory sort and the out-of-core stages that do not sort.
    'terasort_batch': (
        '0x1.fe4b54617b6a1p-1', 69632, 96000, '8e858a4308505ec0'),
    'terasort_per_record': (
        '0x1.fe4b54617b6a1p-1', 69632, 96000, '8e858a4308505ec0'),
    'out_of_core_reduce': (
        '0x1.de8fcbe402b23p+4', 253952, 866884, '70de15cdaac32cf8'),
    'out_of_core_partial_reduce': (
        '0x1.fb2d85d5a2eb2p+3', 253952, 866884, '5941290689e54cb7'),
    # Recorded while a full page under a codec was frozen before the
    # container made room: the codec cases that held then.
    'out_of_core_reduce_dedup': (
        '0x1.b81f86666f58cp+2', 148561, 134353, '2866d218d4bdf81d'),
    'out_of_core_reduce_dedup+zlib': (
        '0x1.b797e8bf719a2p+2', 66737, 37611, '38f6d5d364b0fbf7'),
    'out_of_core_reduce_zlib': (
        '0x1.b79bea87788a4p+2', 67904, 43294, '38f6d5d364b0fbf7'),
    # MR-MPI, recorded with one record appended, encoded and decoded at
    # a time.
    'mrmpi_bfs': ('0x1.ae5fbcd9c055ap+0', 24000, 46752, '374c53524b96bd23'),
    'mrmpi_octree_compress': (
        '0x1.92266240599b9p+0', 10752, 15525, '94ea86866265b99b'),
    'mrmpi_wordcount': (
        '0x1.7ef5824322ee3p-3', 1376256, 25740, 'b4d29472a765c714'),
    'mrmpi_wordcount_compress': (
        '0x1.11658c2a6b7b9p+1', 10752, 24442, 'd6a3560fb4eae1e9'),
    'mrmpi_wordcount_spilled': (
        '0x1.cd12ffc73e9a4p+0', 10752, 25740, '50eda98e8d29a0dc'),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned(case):
    assert CASES[case]() == PINNED[case]


#: ``stage_inputs`` sizes: its defaults, and the frozen benchmark's
#: ``serve_mix`` workload's.
DEMO_SIZES = {
    "defaults": {},
    "serve_mix": {"text_bytes": 1 << 14, "graph_scale": 6,
                  "npoints": 1 << 9, "seed": 2017},
}

#: sha256 of every file ``stage_inputs`` stages, per size set.
DEMO_DIGESTS = {
    "defaults": {
        "demo/graph.bin":
            "45a080f9dc7570d8ecc588567a1830f27110f8641e2fc1bed96b95cbc6ee743d",
        "demo/points.bin":
            "cab58a1dfd78a5eae7a330eeb0eae0d9e52f5e7b349b16bcacad5d668b705512",
        "demo/words.txt":
            "f0962b5ea54f79f76bec1dcf7e1efd574e09d15482423651b6dc8b3aacf9b15e",
    },
    "serve_mix": {
        "demo/graph.bin":
            "f23dd624c66447d90133f75a7d0c4d708b6d44d0930665240881bd53224e13b7",
        "demo/points.bin":
            "895e3076a72f412b2ec165bc8b0eec8fca1a1fa91c1afec2aca3586f635dff1a",
        "demo/words.txt":
            "ff0db66c9dd534a89bbe9c240aea03eec6e6465fefb833576f69bfc22c3fcfef",
    },
}


@pytest.mark.parametrize("sizes", sorted(DEMO_SIZES))
def test_demo_inputs_pinned(sizes):
    cluster = Cluster(COMET, nprocs=2)
    inputs = stage_inputs(cluster, **DEMO_SIZES[sizes])
    staged = {path: hashlib.sha256(cluster.pfs.fetch(path)).hexdigest()
              for path in cluster.pfs.listdir()}
    assert staged == DEMO_DIGESTS[sizes]
    # Every catalog row runs on a staged file; insitu reads none.
    assert inputs.keys() == {*SERVE_APPS, "insitu"}
    assert {inputs[app] for app in SERVE_APPS} <= staged.keys()


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {CASES[name]()!r},")
