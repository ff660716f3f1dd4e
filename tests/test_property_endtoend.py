"""End-to-end differential property tests.

Hypothesis drives randomly generated inputs through complete jobs and
checks the frameworks against each other and against independent
reference implementations - the strongest correctness evidence in the
suite.
"""

from collections import Counter
from contextlib import contextmanager

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.components import components_plan
from repro.apps.wordcount import wordcount_mimir, wordcount_mrmpi
from repro.cluster import Cluster
from repro.core import (
    CSTRING,
    VARIABLE,
    KVBatch,
    KVContainer,
    KVLayout,
    Mimir,
    MimirConfig,
    pack_u64,
    unpack_u64,
)
from repro.core.bucket import ENTRY_OVERHEAD
from repro.core.combiner import Combiner
from repro.core.job import ContainerSink, MapContext
from repro.core.shuffle import Shuffler
from repro.datasets import edges_to_bytes
from repro.memory import MemoryTracker
from repro.mpi import COMET
from repro.mrmpi import MRMPIConfig
from tests import scalar_reference
from tests.conftest import fit_field, small_blocks
from tests.test_core_buckets import ListShuffler, StubEnv, fold_cases, \
    scalar_combine

MIMIR_CFG = MimirConfig(page_size=1024, comm_buffer_size=1024,
                        input_chunk_size=128)
MRMPI_CFG = MRMPIConfig(page_size=8192, input_chunk_size=128)

words = st.text(alphabet="abcdef", min_size=1, max_size=5)
corpora = st.lists(words, min_size=0, max_size=80).map(
    lambda ws: " ".join(ws).encode())


def _merge_counts(parts):
    merged: Counter = Counter()
    for part in parts:
        for word, count in part.counts.items():
            assert word not in merged
            merged[word] = count
    return merged


@settings(max_examples=20, deadline=None)
@given(corpora, st.integers(min_value=1, max_value=4))
def test_wordcount_frameworks_agree_with_truth(corpus, nprocs):
    truth = Counter(corpus.split())

    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("c.txt", corpus)
    mimir_counts = _merge_counts(cluster.run(
        lambda env: wordcount_mimir(env, "c.txt", MIMIR_CFG,
                                    collect=True)).returns)

    cluster2 = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster2.pfs.store("c.txt", corpus)
    mrmpi_counts = _merge_counts(cluster2.run(
        lambda env: wordcount_mrmpi(env, "c.txt", MRMPI_CFG,
                                    collect=True)).returns)

    assert mimir_counts == truth
    assert mrmpi_counts == truth


@settings(max_examples=20, deadline=None)
@given(corpora)
def test_wordcount_optimizations_agree(corpus):
    truth = Counter(corpus.split())
    layout = KVLayout(key_len=CSTRING, val_len=8)
    for opts in ({"hint": True}, {"compress": True}, {"partial": True},
                 {"hint": True, "compress": True, "partial": True}):
        cluster = Cluster(COMET, nprocs=3, memory_limit=None)
        cluster.pfs.store("c.txt", corpus)
        counts = _merge_counts(cluster.run(
            lambda env: wordcount_mimir(env, "c.txt", MIMIR_CFG,
                                        collect=True, **opts)).returns)
        assert counts == truth, opts


edge_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15),
              st.integers(min_value=0, max_value=15)),
    min_size=1, max_size=30)


@settings(max_examples=20, deadline=None)
@given(edge_lists, st.integers(min_value=1, max_value=4))
def test_components_match_networkx(pairs, nprocs):
    edges = np.array(pairs, dtype="<u8")
    simple = [e for e in pairs if e[0] != e[1]]
    if not simple:
        return  # only self-loops: no propagation to verify

    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("e.bin", edges_to_bytes(edges))
    result = cluster.run(
        lambda env: components_plan(env, "e.bin", MIMIR_CFG))
    labels = {}
    for r in result.returns:
        labels.update(r.labels)

    graph = nx.Graph(simple)
    for component in nx.connected_components(graph):
        root = min(component)
        for vertex in component:
            assert labels[vertex] == root


kv_pairs = st.lists(
    st.tuples(st.binary(min_size=1, max_size=6),
              st.integers(min_value=0, max_value=2 ** 32)),
    min_size=0, max_size=50)


@settings(max_examples=20, deadline=None)
@given(kv_pairs, st.integers(min_value=1, max_value=4))
def test_shuffle_reduce_equals_groupby(pairs, nprocs):
    """Full map/shuffle/convert/reduce == a dict groupby."""
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)

    def job(env):
        mimir = Mimir(env, MIMIR_CFG)
        mine = pairs[env.comm.rank :: env.comm.size]
        kvs = mimir.map_items(
            mine, lambda ctx, kv: ctx.emit(kv[0], pack_u64(kv[1])))
        out = mimir.reduce(
            kvs, lambda ctx, k, vs: ctx.emit(
                k, pack_u64(sum(unpack_u64(v) for v in vs) % (1 << 64))))
        result = {k: unpack_u64(v) for k, v in out.records()}
        out.free()
        return result

    merged = {}
    for part in cluster.run(job).returns:
        for key, value in part.items():
            assert key not in merged
            merged[key] = value

    expected: dict[bytes, int] = {}
    for key, value in pairs:
        expected[key] = expected.get(key, 0) + value
    assert merged == {k: v % (1 << 64) for k, v in expected.items()}


# ------------------------------------------ column router == a loop of emit

HINTS = (VARIABLE, CSTRING, 3)


def shuffle_outcome(nprocs, layout, pairs, drive, part_size=48,
                    partitioner=None):
    """All a rank can observe of one shuffle: the bytes of the pages it
    received, the shuffler's counters, its clock and tracked peak."""
    config = MimirConfig(page_size=128, comm_buffer_size=part_size * nprocs,
                         layout=layout)

    def job(env):
        out = KVContainer(env.tracker, layout, config.page_size)
        shuffler = Shuffler(env, config, out, partitioner)
        drive(shuffler, pairs[env.comm.rank :: env.comm.size])
        shuffler.finish()
        seen = ([bytes(page.view) for page in out.pages], shuffler.rounds,
                shuffler.records_sent, shuffler.bytes_sent,
                env.comm.clock.time, env.tracker.peak)
        out.free()
        return seen

    return Cluster(COMET, nprocs=nprocs, memory_limit=None).run(job).returns


def emit_loop(shuffler, mine):
    """The scalar reference: one record at a time into its partition."""
    for key, value in mine:
        scalar_reference.emit(shuffler, key, value)


def emit_as_batch(shuffler, mine):
    layout = shuffler.layout
    shuffler.emit_batch(KVBatch(
        b"".join(layout.encode(key, value) for key, value in mine), layout))


@contextmanager
def matrix_pages_stay_whole():
    """Fail any rank that slices a fixed/fixed batch into records:
    such a batch is routed as matrix rows."""
    slices = KVBatch.records_bytes

    def guarded(batch):
        assert not batch.layout.row_width, "fixed/fixed batch sliced"
        return slices(batch)

    KVBatch.records_bytes = guarded
    try:
        yield
    finally:
        KVBatch.records_bytes = slices


def by_byte_sum(key, nprocs):
    return sum(key) % nprocs


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HINTS), st.sampled_from(HINTS),
       st.lists(st.tuples(st.binary(max_size=6), st.binary(max_size=6)),
                max_size=70),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=9))
def test_column_router_equals_a_loop_of_emit(key_hint, val_hint, raw, nprocs,
                                             block):
    """Partitions of 48 bytes hold two to five records, so every bulk
    call is cut by exchanges - inside blocks and at their edges."""
    layout = KVLayout(key_hint, val_hint)
    pairs = [(fit_field(key_hint, k), fit_field(val_hint, v)) for k, v in raw]
    expected = shuffle_outcome(nprocs, layout, pairs, emit_loop)
    with small_blocks(block), matrix_pages_stay_whole():
        assert shuffle_outcome(
            nprocs, layout, pairs,
            lambda shuffler, mine: shuffler.emit_pairs(iter(mine))
        ) == expected
        assert shuffle_outcome(nprocs, layout, pairs,
                               emit_as_batch) == expected
        # A user partitioner still sees one ``bytes`` key at a time.
        assert shuffle_outcome(
            nprocs, layout, pairs, emit_as_batch, partitioner=by_byte_sum
        ) == shuffle_outcome(nprocs, layout, pairs, emit_loop,
                             partitioner=by_byte_sum)
        # One shared value, the WordCount shape.
        value = fit_field(val_hint, b"one")
        assert shuffle_outcome(
            nprocs, layout, pairs,
            lambda shuffler, mine: shuffler.emit_run(
                [key for key, _ in mine], value)
        ) == shuffle_outcome(
            nprocs, layout, [(key, value) for key, _ in pairs], emit_loop)


# ----------------------- staged emits == one record at a time, every sink
#
# ``ctx.emit`` stages records and hands a sink a block at a time: when
# the block is full, before a bulk emit, and wherever the driver gets
# control back.  Interleave all of them at random across block edges.

@st.composite
def interleavings(draw, records):
    """Cut a record stream into context calls: single emits, bulk
    emits of every kind, and points where the driver takes control."""
    calls, at = [], 0
    while at < len(records):
        kind = draw(st.sampled_from(
            ["emit"] * 4 + ["pairs", "run", "batch", "driver"]))
        size = {"emit": 1, "driver": 0}.get(kind)
        if size is None:
            size = draw(st.integers(0, 12))
        pairs = records[at : at + size]
        if kind == "run":
            pairs = [(key, records[at][1]) for key, _ in pairs]
        calls.append((kind, pairs))
        at += size
    return calls


def drive_context(ctx, calls, layout):
    for kind, pairs in calls:
        if kind == "emit":
            ctx.emit(*pairs[0])
        elif kind == "pairs":
            ctx.emit_pairs(iter(pairs))
        elif kind == "run":
            if pairs:
                ctx.emit_run([key for key, _ in pairs], pairs[0][1])
        elif kind == "batch":
            ctx.emit_batch(KVBatch(
                b"".join(layout.encode(*pair) for pair in pairs), layout))
        elif ctx._keys:
            ctx._flush()
    if ctx._keys:
        ctx._flush()


def staged_calls(calls, block):
    """The calls a sink receives: runs of single emits cut into blocks
    at ``block`` records, at every bulk emit and every driver point."""
    out, staged = [], []
    for kind, pairs in calls + [("driver", [])]:
        if kind == "emit":
            staged += pairs
            if len(staged) == block:
                out.append(("block", staged))
                staged = []
            continue
        if staged:
            out.append(("block", staged))
            staged = []
        if kind != "driver":
            out.append((kind, pairs))
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HINTS), st.sampled_from(HINTS), st.data(),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=7))
def test_staged_emits_route_like_the_scalar_router(key_hint, val_hint, data,
                                                   nprocs, block):
    """Pages, rounds, counters, clock and tracked peak of every rank."""
    layout = KVLayout(key_hint, val_hint)
    raw = data.draw(st.lists(st.tuples(st.binary(max_size=6),
                                       st.binary(max_size=6)), max_size=70))
    calls = data.draw(interleavings(
        [(fit_field(key_hint, k), fit_field(val_hint, v)) for k, v in raw]))

    def one_at_a_time(shuffler, mine):
        emit_loop(shuffler, [pair for _, pairs in mine for pair in pairs])

    expected = shuffle_outcome(nprocs, layout, calls, one_at_a_time)
    with small_blocks(block):
        assert shuffle_outcome(
            nprocs, layout, calls, lambda shuffler, mine: drive_context(
                MapContext(shuffler), mine, layout)) == expected


@settings(max_examples=100, deadline=None)
@given(st.data(), fold_cases(), st.integers(1, 7),
       st.one_of(st.none(), st.integers(1, 400)))
def test_staged_emits_fold_like_the_scalar_combiner(data, case, block,
                                                    budget):
    """What the combiner drains, charges and peaks at, budget or not:
    a staged block is one emit call, so one budget check."""
    plain, fold, layout, records = case
    calls = data.draw(interleavings(records))
    config = MimirConfig(layout=layout, combiner_bucket_budget=budget)
    stream, charged, _, merged, peak = scalar_combine(
        staged_calls(calls, block), plain, ENTRY_OVERHEAD, budget, block)
    env, sink = StubEnv(), ListShuffler(layout)
    with small_blocks(block):
        combiner = Combiner(env, config, fold, sink)
        drive_context(MapContext(combiner), calls, layout)
        combiner.finish()
    assert sink.pairs == stream
    assert env.charged == charged
    assert combiner.records_merged == merged
    assert env.tracker.peak == peak


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HINTS), st.sampled_from(HINTS), st.data(),
       st.integers(min_value=1, max_value=7))
def test_staged_emits_fill_a_task_container_like_add(key_hint, val_hint,
                                                     data, block):
    """The elastic map's task sink: the container's pages and the
    tracker, against one ``add`` per record."""
    layout = KVLayout(key_hint, val_hint)
    raw = data.draw(st.lists(st.tuples(st.binary(max_size=6),
                                       st.binary(max_size=6)), max_size=70))
    calls = data.draw(interleavings(
        [(fit_field(key_hint, k), fit_field(val_hint, v)) for k, v in raw]))

    def filled(fill):
        tracker = MemoryTracker()
        held = KVContainer(tracker, layout, 64)
        fill(held)
        return ([bytes(page.view) for page in held.pages], len(held),
                tracker.current, tracker.peak)

    def one_at_a_time(held):
        for _, pairs in calls:
            for pair in pairs:
                held.add(*pair)

    def staged(held):
        sink = ContainerSink(held)
        drive_context(MapContext(sink), calls, layout)
        sink.finish()

    expected = filled(one_at_a_time)
    with small_blocks(block):
        assert filled(staged) == expected
