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
budget checked per call) and every served app.

Run this file as a script to print the observed values.
"""

import hashlib
from functools import partial

import pytest

from repro.apps.inverted_index import inverted_index_plan
from repro.apps.wordcount import wc_combine, wc_map, wordcount_plan
from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.core.skew import fold_by_key
from repro.datasets.words import uniform_text
from repro.ft.chaos import make_elastic_cluster, straggler_plan
from repro.ft.elastic import ElasticPolicy, speculative_map
from repro.io.readers import iter_text_chunks
from repro.mpi import COMET
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


def bounded_combiner_case():
    config = MimirConfig(page_size=2048, comm_buffer_size=2048,
                         input_chunk_size=512, combiner_bucket_budget=1024)
    cluster = Cluster(COMET, nprocs=3, memory_limit=None)
    cluster.pfs.store("w.txt", uniform_text(1 << 14, vocab_size=300, seed=4))

    def job(env):
        result = wordcount_plan(env, "w.txt", config, compress=True,
                                collect=True)
        return sorted(result.counts.items())

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
    paths = stage_inputs(cluster, text_bytes=1 << 13, graph_scale=6,
                         npoints=256)
    path = {"octree": "demo/points.bin", "components": "demo/graph.bin",
            "inverted_index": "demo/words.txt",
            "stream_wordcount": "demo/words.txt"}.get(app) or paths[app]
    return observe(cluster, partial(run_direct, app), path, {})


CASES = {
    "fold_by_key": fold_by_key_case,
    "join": join_case,
    "speculative_map": speculative_map_case,
    "inverted_index": inverted_index_case,
    "bounded_combiner": bounded_combiner_case,
    **{f"serve_{app}": partial(served_app_case, app) for app in SERVE_APPS},
}

# ----------------------------------------------------------- the pins

#: ``(elapsed, summed tracked peak, alltoallv bytes, output digest)``,
#: recorded with one emit routed at a time.
PINNED = {
    # The one case that moves, by design: the budget is checked once
    # per emit call, and a staged block is one call.  One record per
    # check gave ('0x1.67e8ca1f1c886p-2', 109064, 49742) and the
    # same output.
    'bounded_combiner': (
        '0x1.566dbd44ec963p-2', 100872, 45738, '7760e230d8387071'),
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
    'serve_stream_wordcount': (
        '0x1.042bceeb90b80p-2', 589824, 17550, '6b6462ad8db75480'),
    'serve_wordcount': (
        '0x1.b675df412f8c2p-4', 589824, 17550, 'd220d6aa2fe9efdc'),
    'speculative_map': (
        '0x1.58b31e2998eb8p-1', 54859, 531, '1d71a9ca313c2fde'),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned(case):
    assert CASES[case]() == PINNED[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {CASES[name]()!r},")
