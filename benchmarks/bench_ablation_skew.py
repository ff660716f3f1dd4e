"""Ablation: skew-tolerant folding vs plain partial reduction at scale.

The failure mode of the paper's Figures 10b/14b: under weak scaling,
the hottest key's owner accumulates a share of *all* nodes' records,
so its footprint grows linearly with the node count and eventually
OOMs, while every other rank stays flat.  Hot-key salting (the
follow-up work's idea) splits that key across ranks and removes the
growth.  This ablation weak-scales a skewed corpus with both
pipelines and reports the largest node count each survives.
"""

from figutils import BMIRA, SCALE
from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64, unpack_u64
from repro.core.skew import fold_by_key
from repro.datasets import zipf_text
from repro.io.readers import iter_text_chunks

NODES = [2, 4, 8, 16, 32]
PER_NODE = SCALE.size("2G")


def wc_fold(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


def _config():
    page = BMIRA.default_page_size
    return MimirConfig(page_size=page, comm_buffer_size=page,
                       input_chunk_size=page)


def _run(nodes: int, salted: bool):
    per_proc = PER_NODE // BMIRA.procs_per_node
    text = zipf_text(per_proc * nodes, vocab_size=4096, s=1.05, seed=9)
    cluster = Cluster(BMIRA, nprocs=nodes, nodes=nodes,
                      memory_limit=BMIRA.memory_per_proc)
    cluster.pfs.store("t.txt", text)
    config = _config()

    def job(env):
        if salted:
            def chunks():
                return iter_text_chunks(env, "t.txt",
                                        config.input_chunk_size)

            def count_words(emit, chunk):
                for word in chunk.split():
                    emit(word, pack_u64(1))

            # A lower hotness threshold salts the whole heavy head of
            # the Zipf distribution, not just its first word.
            out = fold_by_key(env, config, chunks, count_words, wc_fold,
                              hot_fraction=0.015, max_hot=24)
        else:
            mimir = Mimir(env, config)
            kvs = mimir.map_text_file(
                "t.txt", lambda ctx, chunk: [
                    ctx.emit(w, pack_u64(1)) for w in chunk.split()])
            out = mimir.partial_reduce(kvs, wc_fold)
        total = sum(unpack_u64(v) for _, v in out.records())
        out.free()
        return total

    return cluster.run(job, allow_oom=True)


def test_ablation_skew_tolerant_scaling(benchmark):
    def sweep():
        return {
            (nodes, salted): _run(nodes, salted)
            for nodes in NODES for salted in (False, True)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\n== Ablation: skew-tolerant fold, skewed WC, Mira, 2G/node ==")
    print(f"{'nodes':>6}  {'plain pr':>14}  {'salted fold':>14}")
    reach = {False: 0, True: 0}
    for nodes in NODES:
        cells = []
        for salted in (False, True):
            r = results[(nodes, salted)]
            if r.ran_out_of_memory:
                cells.append("OOM")
            else:
                cells.append(f"{r.elapsed:8.2f}s")
                reach[salted] = nodes
        print(f"{nodes:>6}  {cells[0]:>14}  {cells[1]:>14}")

    # Both produce identical totals wherever both complete.
    for nodes in NODES:
        plain = results[(nodes, False)]
        salted = results[(nodes, True)]
        if not plain.ran_out_of_memory and not salted.ran_out_of_memory:
            assert sum(plain.returns) == sum(salted.returns)

    # The salted pipeline scales at least as far, and further when the
    # plain one hits the hot-key wall.
    assert reach[True] >= reach[False]
    assert reach[True] == NODES[-1]
