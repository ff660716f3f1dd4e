"""Batch arenas, the shuffle/spill codec, and batch/per-record identity."""

import random
from itertools import product

import numpy as np
import pytest

from repro.apps.pagerank import pagerank_mimir
from repro.apps.terasort import generate_records, terasort_mimir
from repro.apps.wordcount import (
    WC_HINT_LAYOUT,
    wc_combine,
    wc_fold_batch,
    wc_map,
    wc_map_batch,
    wordcount_mimir,
)
from repro.cluster import Cluster
from repro.core import (
    CSTRING,
    ChainCodec,
    ConfigError,
    KVBatch,
    KVContainer,
    KVDedupCodec,
    KVLayout,
    Mimir,
    MimirConfig,
    VARIABLE,
    ZlibCodec,
    batch_kernel,
    get_codec,
    pack_u64,
)
from repro.datasets import edges_to_bytes, kronecker_edges, zipf_text
from repro.memory import MemoryTracker
from repro.mpi import COMET
from repro.mpi.errors import RankFailedError

LAYOUTS = [
    KVLayout(),                    # variable/variable
    KVLayout(8, 8),                # fixed/fixed
    KVLayout(CSTRING, VARIABLE),   # NUL-terminated key
    KVLayout(VARIABLE, 8),         # variable key, fixed value
]


def random_field(rng, hint, *, lo=0, hi=16):
    if hint is VARIABLE:
        return rng.randbytes(rng.randint(lo, hi))
    if hint == CSTRING:
        return bytes(rng.choice(range(1, 256))
                     for _ in range(rng.randint(lo, hi)))
    return rng.randbytes(hint)


def random_pairs(rng, layout, n):
    return [(random_field(rng, layout.key_len),
             random_field(rng, layout.val_len)) for _ in range(n)]


def make_env(nprocs=1, platform=COMET):
    cluster = Cluster(platform, nprocs=nprocs)
    envs = []
    cluster.run(lambda env: envs.append(env))
    return envs[0], cluster


# ------------------------------------------------------------------- scan

class TestScanColumns:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_columns_match_record_iteration(self, layout):
        rng = random.Random(11)
        pairs = random_pairs(rng, layout, 40)
        buf = b"".join(layout.encode(k, v) for k, v in pairs)
        roff, koff, kend, voff, vend = layout.scan(buf)
        assert len(roff) == len(pairs) + 1
        assert roff[-1] == len(buf)
        rebuilt = [(buf[koff[i]:kend[i]], buf[voff[i]:vend[i]])
                   for i in range(len(pairs))]
        assert rebuilt == pairs
        # Record slices tile the buffer with no gaps.
        assert [buf[roff[i]:roff[i + 1]] for i in range(len(pairs))] \
            == [layout.encode(k, v) for k, v in pairs]

    def test_scan_prefix_with_end(self):
        layout = KVLayout(4, 4)
        buf = b"aaaaBBBBccccDDDD"
        roff, koff, kend, _voff, _vend = layout.scan(buf, end=8)
        assert list(roff) == [0, 8]
        assert buf[koff[0]:kend[0]] == b"aaaa"

    def test_fixed_fixed_truncated_buffer_raises(self):
        with pytest.raises(ValueError):
            KVLayout(4, 4).scan(b"abcde")

    def test_scan_empty(self):
        for layout in LAYOUTS:
            roff, *_rest = layout.scan(b"")
            assert list(roff) == [0]


# Every key/value hint combination; fixed/fixed is scanned by arithmetic,
# the other eight by a walk: var/var and CSTRING/fixed (the WordCount
# hint, here also at its real width) inline, the rest field by field.
ALL_LAYOUTS = [KVLayout(kl, vl) for kl, vl in
               product((VARIABLE, CSTRING, 3), (VARIABLE, CSTRING, 5))] + \
    [KVLayout(CSTRING, 8)]
WALKED = [layout for layout in ALL_LAYOUTS if layout != KVLayout(3, 5)]


def decode_walk(layout, buf):
    """Reference for ``scan``: one ``decode`` per record, the loop the
    column scan replaced.  Returns ``[roff, koff, kend, voff, vend]`` as
    lists; raises what ``decode`` raises."""
    both_variable = layout == KVLayout()
    roff, koff, kend, voff, vend = columns = [[0], [], [], [], []]
    offset = 0
    while offset < len(buf):
        key, value, after = layout.decode(buf, offset)
        # The key sits behind its header (var/var: behind both), the
        # value ends where the record does, less a NUL terminator.
        koff.append(offset + (8 if both_variable else
                              4 if layout.key_len is VARIABLE else 0))
        kend.append(koff[-1] + len(key))
        vend.append(after - (layout.val_len == CSTRING))
        voff.append(vend[-1] - len(value))
        roff.append(after)
        offset = after
    return columns


class TestScanAgainstDecodeWalk:
    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_columns_equal_decode_walk(self, layout):
        rng = random.Random(23)
        # lo=0: zero-length keys and values are legal and must scan.
        pairs = random_pairs(rng, layout, 700) + [
            (random_field(rng, layout.key_len, hi=0),
             random_field(rng, layout.val_len, hi=0))] * 3
        buf = b"".join(layout.encode(k, v) for k, v in pairs)
        expected = decode_walk(layout, buf)
        for source in (buf, bytearray(buf), memoryview(buf)):
            columns = layout.scan(source)
            assert [column.tolist() for column in columns] == expected
            assert all(column.dtype == np.int64 for column in columns)

    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_end_scans_a_prefix_of_a_larger_buffer(self, layout):
        rng = random.Random(29)
        pairs = random_pairs(rng, layout, 30)
        encoded = [layout.encode(k, v) for k, v in pairs]
        cut = len(b"".join(encoded[:17]))
        page = bytearray(b"".join(encoded)) + bytearray(64)  # page slack
        assert [c.tolist() for c in layout.scan(page, cut)] == \
            decode_walk(layout, bytes(page[:cut]))

    @pytest.mark.parametrize("layout", WALKED)
    def test_truncation_errors_match_decode(self, layout):
        rng = random.Random(31)
        pairs = [(random_field(rng, layout.key_len, lo=2, hi=6),
                  random_field(rng, layout.val_len, lo=2, hi=6))
                 for _ in range(5)]
        buf = b"".join(layout.encode(k, v) for k, v in pairs)
        boundaries = set(decode_walk(layout, buf)[0])
        # Every cut that is not a record boundary: inside a header,
        # inside a field, before a terminator.
        for cut in set(range(len(buf))) - boundaries:
            with pytest.raises(ValueError) as walked:
                decode_walk(layout, buf[:cut])
            with pytest.raises(ValueError) as truncated:
                layout.scan(buf[:cut])
            with pytest.raises(ValueError) as bounded:
                layout.scan(buf, end=cut)  # ``end`` inside a record
            assert str(truncated.value) == str(bounded.value) \
                == str(walked.value)

    def test_batch_fields_are_slices_of_one_bytes_object(self):
        layout = KVLayout()
        pairs = random_pairs(random.Random(37), layout, 1300)  # > 2 blocks
        page = bytearray(b"".join(layout.encode(k, v) for k, v in pairs))
        batch = KVBatch(page + bytearray(32), layout, len(page))
        assert isinstance(batch.data, bytes) and batch.nbytes == len(page)
        assert list(batch.pairs_bytes()) == pairs
        assert list(batch.keys_bytes()) == [k for k, _ in pairs]
        assert list(batch.values_bytes()) == [v for _, v in pairs]
        assert b"".join(batch.records_bytes()) == bytes(page)
        assert [bytes(k) for k in batch.keys()] == [k for k, _ in pairs]
        assert batch.payload_bytes == sum(len(k) + len(v) for k, v in pairs)


# ---------------------------------------------------------------- KVBatch

class TestKVBatch:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_batches_equal_records(self, layout):
        rng = random.Random(5)
        pairs = random_pairs(rng, layout, 200)
        kvc = KVContainer(MemoryTracker(), layout, page_size=256)
        for k, v in pairs:
            kvc.add(k, v)
        assert kvc.npages > 1
        via_batches = [(k, v) for batch in kvc.batches()
                       for k, v in batch.pairs_bytes()]
        assert via_batches == pairs
        assert list(kvc.records()) == pairs
        assert sum(len(b) for b in kvc.batches()) == len(pairs)

    def test_views_are_zero_copy(self):
        layout = KVLayout()
        kvc = KVContainer(MemoryTracker(), layout, page_size=256)
        kvc.add(b"key", b"value")
        batch = next(iter(kvc.batches()))
        key = next(batch.keys())
        assert isinstance(key, memoryview)
        assert bytes(key) == b"key"
        assert isinstance(batch.record(0), memoryview)
        assert batch.key_bytes(0) == b"key"
        assert batch.value_bytes(0) == b"value"
        assert batch.nbytes == layout.encoded_size(b"key", b"value")

    def test_extend_encoded_resplits_across_pages(self):
        rng = random.Random(7)
        layout = KVLayout()
        pairs = random_pairs(rng, layout, 120)
        src = KVContainer(MemoryTracker(), layout, page_size=512)
        for k, v in pairs:
            src.add(k, v)
        # Smaller target pages: records must re-split cleanly.
        dst = KVContainer(MemoryTracker(), layout, page_size=128)
        for batch in src.batches():
            dst.extend_encoded(batch.arena)
        assert list(dst.records()) == pairs
        assert dst.nbytes == src.nbytes


# ------------------------------------------------------- pinned make_room

class TestPinnedSpill:
    def test_pin_blocks_budget_spill(self):
        env, _cluster = make_env()
        kvc = KVContainer(env.tracker, page_size=128, tag="t",
                          spill_env=env, resident_page_budget=2)
        pairs = [(b"key%03d" % i, b"val%03d" % i) for i in range(60)]
        for k, v in pairs[:20]:
            kvc.add(k, v)
        assert kvc.spilled
        before = kvc.spilled_bytes
        kvc.pin()
        for k, v in pairs[20:40]:
            kvc.add(k, v)
        # Mid-iteration safety: a pinned container must not move pages
        # to the PFS even when the resident budget is blown.
        assert kvc.spilled_bytes == before
        assert kvc.npages > 2
        kvc.unpin()
        for k, v in pairs[40:]:
            kvc.add(k, v)
        assert kvc.spilled_bytes > before   # spilling resumes
        assert list(kvc.records()) == pairs
        assert list(kvc.consume()) == pairs


# ------------------------------------------------------------------ codec

class TestCodecFrames:
    def encoded_run(self, skew):
        rng = random.Random(3)
        layout = KVLayout()
        keys = [b"hot-key-%d" % (i % (3 if skew else 500))
                for i in range(400)]
        rng.shuffle(keys)
        return layout, b"".join(layout.encode(k, pack_u64(i))
                                for i, k in enumerate(keys))

    @pytest.mark.parametrize("spec", ["zlib", "dedup", "dedup+zlib"])
    def test_roundtrip(self, spec):
        layout, run = self.encoded_run(skew=True)
        codec = get_codec(spec, layout)
        frame = codec.encode_frame(run)
        assert codec.decode_frame(frame) == run
        assert len(frame) < len(run)       # skewed keys compress

    def test_incompressible_stays_raw(self):
        codec = ZlibCodec()
        data = random.Random(1).randbytes(64)
        frame = codec.encode_frame(data)
        assert frame[:1] == b"\x00"        # raw passthrough flag
        assert len(frame) == len(data) + 1
        assert codec.decode_frame(frame) == data

    def test_empty(self):
        codec = ChainCodec([KVDedupCodec(KVLayout()), ZlibCodec()])
        assert codec.decode_frame(codec.encode_frame(b"")) == b""

    def test_get_codec_specs(self):
        assert get_codec(None, KVLayout()) is None
        with pytest.raises(ConfigError):
            get_codec("lz77", KVLayout())
        with pytest.raises(ConfigError):
            MimirConfig(codec="lz77")

    def test_dedup_is_byte_exact(self):
        layout, run = self.encoded_run(skew=False)
        codec = KVDedupCodec(layout)
        assert codec.decode_frame(codec.encode_frame(run)) == run


class TestContainerCodec:
    def skewed_pairs(self, n=400):
        rng = random.Random(9)
        return [(b"popular-%d" % rng.randint(0, 4), pack_u64(i))
                for i in range(n)]

    def test_contents_identical_and_smaller(self):
        pairs = self.skewed_pairs()
        layout = KVLayout()
        env, _cluster = make_env()
        plain = KVContainer(env.tracker, layout, page_size=512, tag="p")
        packed = KVContainer(env.tracker, layout, page_size=512, tag="z",
                             codec=get_codec("dedup+zlib", layout),
                             codec_env=env)
        for k, v in pairs:
            plain.add(k, v)
            packed.add(k, v)
        assert list(packed.records()) == list(plain.records()) == pairs
        assert packed.memory_bytes < plain.memory_bytes
        assert list(packed.consume()) == pairs

    def test_codec_spill_roundtrip(self):
        pairs = self.skewed_pairs()
        layout = KVLayout()
        env, _cluster = make_env()
        kvc = KVContainer(env.tracker, layout, page_size=256, tag="oc",
                          spill_env=env, resident_page_budget=2,
                          codec=get_codec("dedup+zlib", layout))
        for k, v in pairs:
            kvc.add(k, v)
        assert kvc.spilled
        assert list(kvc.records()) == pairs
        assert list(kvc.consume()) == pairs
        assert env.tracker.current == 0


# ------------------------------------------------- kernel-form identity
# A scenario is ``(input bytes, job)``: ``job(env, batch, config)`` runs with
# plain kernels or their ``@batch_kernel`` forms and returns one dict per rank.

def run(data, job, batch, codec=None, nprocs=2, **knobs):
    """One run -> (rank-merged output, (elapsed, node peak, metric totals))."""
    cluster = Cluster(COMET, nprocs=nprocs)
    cluster.pfs.store("eq/in", data)
    config = MimirConfig(page_size=2048, codec=codec, **knobs)
    result = cluster.run(lambda env: job(env, batch, config))
    merged = {}
    for part in result.returns:
        merged.update(part)
    totals = {name: value for name, value in cluster.metrics.totals().items()
              if not name.startswith("core.batch.")}
    return merged, (result.elapsed, result.node_peak_bytes, totals)


def wc_job(**flags):
    return lambda env, batch, config: wordcount_mimir(
        env, "eq/in", config, batch=batch, collect=True, **flags).counts


def pagerank_job(**flags):
    def job(env, batch, config):
        result = pagerank_mimir(env, "eq/in", config, iterations=2,
                                batch=batch, **flags)
        return {v: score.hex() for v, score in result.ranks.items()}  # bits
    return job


def terasort_job(env, batch, config):
    terasort_mimir(env, "eq/in", "eq/out", config, batch=batch)
    return {"file": env.pfs.fetch("eq/out")}


PAIRS = [(random.Random(17 + i).randbytes(1 + i % 10), pack_u64(i))
         for i in range(300)]


def payload_job(env, batch, config):
    """Random KV stream through map_items: per-rank shuffled bytes."""
    def per_record(ctx, item):
        for k, v in PAIRS:
            ctx.emit(k, v)

    @batch_kernel
    def batched(ctx, item):
        ctx.emit_pairs(iter(PAIRS))

    mimir = Mimir(env, config)
    kvs = mimir.map_items([None], batched if batch else per_record)
    return {env.comm.rank: b"".join(kvs.layout.encode(k, v)
                                    for k, v in kvs.consume()),
            ("map", env.comm.rank): mimir.last_map_stats}


def remap_job(env, batch, config):
    """``map_kvs(consume=False)`` over a kept container."""
    mimir = Mimir(env, config)
    kvs = mimir.map_text_file("eq/in", wc_map_batch if batch else wc_map)
    resend = batch_kernel(lambda ctx, page: ctx.emit_batch(page)) if batch \
        else (lambda ctx, k, v: ctx.emit(k, v))
    out = mimir.map_kvs(kvs, resend, consume=False, combine_fn=wc_combine)
    return {env.comm.rank: (len(kvs), sorted(out.consume())),
            ("map", env.comm.rank): mimir.last_map_stats}


def seeded_fold_job(env, batch, config):
    """``partial_reduce(seed=)``: a second pass folded onto the first
    (under the hint: a batch fold needs the fixed-width count)."""
    mimir = Mimir(env, config.with_layout(WC_HINT_LAYOUT))
    mapper, fold = (wc_map_batch, wc_fold_batch) if batch \
        else (wc_map, wc_combine)
    seed = mimir.partial_reduce(mimir.map_text_file("eq/in", mapper), fold)
    out = mimir.partial_reduce(mimir.map_text_file("eq/in", mapper), fold,
                               seed=seed)
    return dict(out.consume(), **{f"map{env.comm.rank}": mimir.last_map_stats})


WORDS = zipf_text(6000, seed=21)
WC = (WORDS, wc_job())
EDGES = edges_to_bytes(kronecker_edges(scale=4, edgefactor=6, seed=2))
PAGERANK = (EDGES, pagerank_job())
TERASORT = (generate_records(200, seed=4), terasort_job)
PAYLOAD = (b"", payload_job)
FORMS_X_CODECS = list(product((False, True), (None, "dedup+zlib")))


class TestAppEquivalence:
    @pytest.mark.parametrize("data, job", [
        *[(WORDS, wc_job(hint=h, compress=c, partial=p))
          for h, c, p in product((False, True), repeat=3)],
        # The batch fold runs only over fixed-width scores (the hint),
        # as partial-reduce fold and, with compress, as combiner too.
        PAGERANK, (EDGES, pagerank_job(hint=True)),
        (EDGES, pagerank_job(hint=True, compress=True)),
        TERASORT, PAYLOAD, (WORDS, remap_job), (WORDS, seeded_fold_job)])
    def test_kernel_forms_cost_and_produce_the_same(self, data, job):
        """Output, virtual time, tracked peak, shuffle rounds and every
        other metric are those of the plain-kernel run."""
        plain = run(data, job, False)
        assert plain[0]
        assert run(data, job, True) == plain

    def test_bucket_budget_flush_keeps_counts(self):
        # The budget is checked once per emit *call*, so a bulk emit
        # flushes at coarser points than the same records emitted one
        # by one: counts match, the shuffle traffic need not.
        job = wc_job(compress=True, partial=True)
        unbounded = run(WORDS, job, False)[0]
        for batch in (False, True):
            counts, stats = run(WORDS, job, batch, combiner_bucket_budget=512)
            assert counts == unbounded
            assert stats[2]["core.combine.flushes"] > 0

    @pytest.mark.parametrize("data, job", [WC, TERASORT])
    def test_output_identical_across_forms_codecs_and_ranks(self, data, job):
        baseline = run(data, job, False, None, 1)[0]
        assert baseline
        for (batch, codec), nprocs in product(FORMS_X_CODECS, (1, 4)):
            assert run(data, job, batch, codec, nprocs)[0] == baseline, \
                (batch, codec, nprocs)

    def test_batch_fold_on_variable_width_values_is_a_typed_error(self):
        """At stage start, naming the layout: never a scalar fallback."""
        def job(env, fold, as_combiner):
            mimir = Mimir(env, MimirConfig())
            if as_combiner:
                return mimir.map_text_file("eq/in", wc_map_batch,
                                           combine_fn=fold)
            return mimir.partial_reduce(
                mimir.map_text_file("eq/in", wc_map_batch), fold)

        for as_combiner in (False, True):
            cluster = Cluster(COMET, nprocs=2)
            cluster.pfs.store("eq/in", WORDS)
            with pytest.raises(RankFailedError) as failure:
                cluster.run(job, wc_fold_batch, as_combiner)
            assert isinstance(failure.value.__cause__, ConfigError)
            assert "KVLayout(key_len=None, val_len=None)" in \
                str(failure.value.__cause__)

    @pytest.mark.parametrize("nprocs", [1, 4])
    @pytest.mark.parametrize("data, job", [PAGERANK, PAYLOAD])
    def test_bitwise_identical_per_rank_count(self, data, job, nprocs):
        # Partitioning changes float summation order and rank-local
        # byte streams, so the bitwise guarantee is per rank count.
        baseline = run(data, job, False, None, nprocs)[0]
        assert baseline
        for batch, codec in FORMS_X_CODECS:
            assert run(data, job, batch, codec, nprocs)[0] == baseline, \
                (batch, codec)


# ------------------------------------------------------- streaming output

class TestStreamingOutput:
    def test_multi_page_output_matches_render(self):
        env, cluster = make_env()
        config = MimirConfig(page_size=256)
        mimir = Mimir(env, config)
        kvc = KVContainer(env.tracker, config.layout, page_size=256)
        pairs = [(b"k%04d" % i, b"v%04d" % i) for i in range(200)]
        for k, v in pairs:
            kvc.add(k, v)
        assert kvc.npages > 1
        render = lambda k, v: k + b"=" + v + b"\n"
        mimir.write_output(kvc, "out/stream", render)
        expected = b"".join(render(k, v) for k, v in pairs)
        assert cluster.pfs.fetch("out/stream.0") == expected

    def test_empty_output_written(self):
        env, cluster = make_env()
        mimir = Mimir(env, MimirConfig())
        kvc = KVContainer(env.tracker, None, page_size=256)
        mimir.write_output(kvc, "out/empty")
        assert cluster.pfs.fetch("out/empty.0") == b""

    @pytest.mark.parametrize("layout", [KVLayout(), KVLayout(5, 5)])
    @pytest.mark.parametrize("nrecords", [0, 150])
    def test_batch_render_writes_what_the_record_render_does(self, layout,
                                                             nrecords):
        """Both sinks take a ``@batch_kernel`` render, called once per
        page, and write the same bytes at the same virtual time."""
        def render(key, value):
            return key + b"=" + value + b"\n"

        pages_seen = []

        @batch_kernel
        def render_page(batch):
            pages_seen.append(len(batch))
            return b"".join(map(render, batch.keys_bytes(),
                                batch.values_bytes()))

        def written(render):
            cluster = Cluster(COMET, nprocs=2)

            def job(env):
                mimir = Mimir(env, MimirConfig(page_size=256))
                kvc = KVContainer(env.tracker, layout, page_size=256)
                for i in range(env.comm.rank, nrecords, 2):
                    kvc.add(b"k%04d" % i, b"v%04d" % i)
                mimir.write_output(kvc, "out/local", render)
                mimir.write_output_global(kvc, "out/global", render)
                kvc.free()

            elapsed = cluster.run(job).elapsed
            return elapsed, {path: cluster.pfs.fetch(path)
                             for path in cluster.pfs.listdir("out/")}

        per_record = written(render)
        assert len(per_record[1]) == 3
        assert len(per_record[1]["out/global"]) == nrecords * 12
        assert written(render_page) == per_record
        # Per rank: one call per page for ``write_output``, two (sizing
        # pass, write pass) for ``write_output_global``.
        assert sum(pages_seen) == 3 * nrecords
