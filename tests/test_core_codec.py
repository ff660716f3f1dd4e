"""The codec's block-columnar frame: round trips over every layout,
the raw frame, ``KVLayout.pack`` as the inverse of ``scan``, typed
errors on hostile frames, and the host memory one frame costs."""

import random
import time
import tracemalloc
import zlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CODEC_SPEC, CSTRING, VARIABLE, ConfigError, \
    KVLayout, MimirConfig, get_codec, pack_u64
from repro.core.batch import FrameBatch
from repro.core.codec import _read_varints, _varints
from repro.core.records import BLOCK
from repro.datasets import zipf_text
from tests.conftest import fit_field, small_blocks
from tests.test_core_convert_paths import CONVERT_LAYOUTS

# Every key/value hint combination, plus the WordCount hint.
LAYOUTS = [KVLayout(kl, vl) for kl, vl in
           product((VARIABLE, CSTRING, 3), (VARIABLE, CSTRING, 5))] + \
    [KVLayout(CSTRING, 8)]


def field(rng, hint, size):
    """``size`` bytes where the hint lets a field be any length, else the
    hint's fixed width; never a NUL."""
    return rng.randbytes(size if hint in (VARIABLE, CSTRING) else hint) \
        .replace(b"\0", b"\1")


def runs(layout):
    """Named record runs that reach every part of the frame."""
    rng = random.Random(5)
    skewed = [(field(rng, layout.key_len, 6), field(rng, layout.val_len, 4))
              for _ in range(40)]
    long_fields = [(field(rng, layout.key_len, size),
                    field(rng, layout.val_len, size))
                   for size in (0, 127, 128, 300, 16383, 16384, 20000)]
    yield "empty", []
    yield "one key", [(skewed[0][0], field(rng, layout.val_len, i % 9))
                      for i in range(50)]
    yield "over a block", [rng.choice(skewed) for _ in range(3 * BLOCK + 7)]
    # Key indexes of two and three varint bytes.
    yield "many keys", [(fit_field(layout.key_len, b"%d" % i), value)
                        for i, (_, value) in enumerate(skewed * 450)]
    yield "long fields", long_fields + skewed + long_fields[::-1]


def encoded(layout, pairs):
    return b"".join(layout.encode(key, value) for key, value in pairs)


def leb128(value):
    """The scalar reference varint: 7 bits per byte, low group first."""
    out = bytearray()
    while True:
        out.append(value & 0x7F | (0x80 if value > 0x7F else 0))
        value >>= 7
        if not value:
            return bytes(out)


class TestVarintColumns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 32 - 1) | st.integers(0, 300),
                    max_size=40),
           st.binary(max_size=8))
    def test_a_scalar_writer_and_back(self, values, tail):
        data = b"".join(map(leb128, values))
        assert _varints(values) == data
        column, end = _read_varints(data + tail, 0, len(values))
        assert column.tolist() == values and end == len(data)


def decoded(codec, run):
    """``run`` through the codec's encode and back."""
    return codec.read(codec.encode(run)).data


class TestRoundTrip:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=repr)
    def test_every_run_comes_back_byte_for_byte(self, layout):
        codec = get_codec(CODEC_SPEC, layout)
        for name, pairs in runs(layout):
            run = encoded(layout, pairs)
            assert decoded(codec, run) == run, name
            assert codec.decode_frame(codec.encode_frame(run)) == run, name

    @pytest.mark.parametrize("layout", CONVERT_LAYOUTS, ids=repr)
    def test_block_boundaries(self, layout):
        codec = get_codec(CODEC_SPEC, layout)
        for block in (1, 2, 7):
            with small_blocks(block):
                for name, pairs in runs(layout):
                    run = encoded(layout, pairs[:300])
                    assert decoded(codec, run) == run, (name, block)

    def test_frame_layout(self):
        """Keys once, in first-seen order, then per block the key
        indexes, the value lengths and the value bytes, DEFLATEd."""
        layout = KVLayout()
        codec = get_codec(CODEC_SPEC, layout)
        run = encoded(layout, [(b"bb", b"1"), (b"a", b"22"), (b"bb", b"")])
        assert zlib.decompress(codec.encode(run)) == \
            b"\x02" b"\x02\x01" b"bba" b"\x03" b"\x00\x01\x00" \
            b"\x01\x02\x00" b"122"
        with small_blocks(2):
            assert zlib.decompress(codec.encode(run)) == \
                b"\x02" b"\x02\x01" b"bba" b"\x03" b"\x00\x01" b"\x01\x02" \
                b"122" b"\x00" b"\x00" b""

    def test_incompressible_stays_raw(self):
        # Random 8/8 records: the frame would grow the run, so the run
        # is stored as it is behind the raw flag.
        layout = KVLayout(8, 8)
        rng = random.Random(1)
        run = encoded(layout, [(rng.randbytes(8), rng.randbytes(8))
                               for _ in range(200)])
        codec = get_codec(CODEC_SPEC, layout)
        frame = codec.encode_frame(run)
        assert frame[:1] == b"\x00" and frame[1:] == run
        assert codec.read_frame(frame) == codec.decode_frame(frame) == run

    def test_empty(self):
        codec = get_codec(CODEC_SPEC, KVLayout())
        assert codec.encode_frame(b"") == b"\x00"
        assert codec.decode_frame(codec.encode_frame(b"")) == b""

    def test_only_the_one_spec_resolves(self):
        assert get_codec(None, KVLayout()) is None
        with pytest.raises(ConfigError, match="'lz77'.*'dedup\\+zlib'"):
            get_codec("lz77", KVLayout())
        with pytest.raises(ConfigError, match="'lz77'.*'dedup\\+zlib'"):
            MimirConfig(codec="lz77")


class TestPack:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=repr)
    def test_inverse_of_scan(self, layout):
        for name, pairs in runs(layout):
            run = encoded(layout, pairs)
            _roff, koff, kend, voff, vend = layout.scan(run)
            assert layout.pack(run, koff, kend - koff, voff, vend - voff) \
                == run, name

    @pytest.mark.parametrize("layout", LAYOUTS, ids=repr)
    def test_any_selection_of_fields(self, layout):
        # Keys and values picked out of order, repeated, from anywhere
        # in the source: what ``encode`` makes of the same pairs.
        pairs = dict(runs(layout))["long fields"]
        run = encoded(layout, pairs)
        _roff, koff, kend, voff, vend = layout.scan(run)
        picks = random.Random(3).choices(range(len(pairs)), k=60)
        keys, values = picks, picks[::-1]
        assert layout.pack(run, koff[keys], (kend - koff)[keys],
                           voff[values], (vend - voff)[values]) == \
            encoded(layout, [(pairs[k][0], pairs[v][1])
                             for k, v in zip(keys, values)])

    @pytest.mark.parametrize("layout, key, value", [
        (KVLayout(CSTRING, VARIABLE), b"ke\0y", b"v"),
        (KVLayout(VARIABLE, CSTRING), b"k", b"\0"),
        (KVLayout(3, VARIABLE), b"long", b"v"),
        (KVLayout(VARIABLE, 5), b"k", b"shrt")])
    def test_encode_field_checks_hold_for_whole_columns(self, layout, key,
                                                        value):
        with pytest.raises(ValueError) as expected:
            layout.encode(key, value)
        good = fit_field(layout.key_len, b"k"), fit_field(layout.val_len, b"v")
        src = key + value + good[0] + good[1]
        at = [0, len(key) + len(value)]
        with pytest.raises(ValueError) as packed:
            layout.pack(src, [at[1], 0], [len(good[0]), len(key)],
                        [at[1] + len(good[0]), len(key)],
                        [len(good[1]), len(value)])
        assert str(packed.value) == str(expected.value)


# ------------------------------------------------------------ hostile frames

def decoded_or_typed_error(layout, frame):
    """Decode a hostile frame: a ``ValueError`` or a run, never another
    exception.  An encoded frame only decodes to records ``scan``
    accepts; a raw payload is opaque bytes, which ``scan`` accepts or
    rejects with a ``ValueError`` of its own.  The column read
    (:func:`read_or_typed_error`) fails or succeeds with it."""
    try:
        run = get_codec(CODEC_SPEC, layout).decode_frame(frame)
    except ValueError:
        read_or_typed_error(layout, frame, packs=False)
        return
    assert isinstance(run, bytes)
    assert read_or_typed_error(layout, frame) == run
    if frame[:1] == b"\x01":
        layout.scan(run)
    else:
        try:
            layout.scan(run)
        except ValueError:
            pass


def read_or_typed_error(layout, frame, packs=True):
    """Read a hostile frame as columns (``read_frame``): a
    ``ValueError``, packed records, or a FrameBatch whose int32 columns
    all lie inside its body; packed, that is the run ``decode_frame``
    gives, or fails where it fails (``packs``)."""
    try:
        run = get_codec(CODEC_SPEC, layout).read_frame(frame)
    except ValueError:
        assert not packs
        return None
    if isinstance(run, bytes):
        assert packs
        return run
    assert isinstance(run, FrameBatch)
    body, koff, klen, ids, voff, vlen = run.frame
    assert {column.dtype for column in run.frame[1:]} == {np.dtype(np.int32)}
    assert len(ids) == len(voff) == len(vlen) == len(run)
    assert (koff + klen <= len(body)).all() and (voff + vlen <= len(body)).all()
    assert ((0 <= ids) & (ids < len(koff))).all()
    try:
        data = run.data
    except ValueError:
        assert not packs
        return None
    assert packs
    return data


def deflated(frame):
    """``frame`` with its body DEFLATEd: a hostile column body behind a
    good zlib stream."""
    return frame[:1] + zlib.compress(frame[1:]) if frame else frame


def inflated(frame):
    """An encoded frame with its body inflated (the inverse of
    :func:`deflated`); any other frame as it is."""
    return frame[:1] + zlib.decompress(frame[1:]) \
        if frame[:1] == b"\x01" else frame


class TestHostileFrames:
    @pytest.mark.parametrize("body, message", [
        (b"\x02" b"\xff\xff\xff\xff\xff\xff\x01" b"\x01", "over 5 bytes"),
        (b"\x02\x01", "truncated varint column"),
        (b"\x01\x04ab", "truncated byte column"),
        (b"\x01\x01a\x02\x00\x00\x05\x07", "truncated byte column"),
        (b"\x01\x01a\x01\x05\x00", "key index 5 in a frame of 1 keys"),
        (b"\x01\x01a\x01\x00\x00\x00", "1 trailing bytes"),
    ])
    def test_named_errors(self, body, message):
        codec = get_codec(CODEC_SPEC, KVLayout())
        for read in (codec.decode_frame, codec.read_frame):
            with pytest.raises(ValueError, match=message):
                read(deflated(b"\x01" + body))

    def test_a_bad_deflate_stream_is_a_value_error(self):
        codec = get_codec(CODEC_SPEC, KVLayout())
        for read in (codec.decode_frame, codec.read_frame):
            with pytest.raises(ValueError, match="bad zlib stream"):
                read(b"\x01garbage")

    @pytest.mark.parametrize("huge", [b"\xff\xff\xff\xff\x0f",   # 2**32 - 1
                                      b"\xff\xff\xff\xff\x7f"])  # 2**35 - 1
    def test_huge_counts_fail_fast(self, huge):
        # A few bytes that claim billions of keys or records.
        started = time.perf_counter()
        codec = get_codec(CODEC_SPEC, KVLayout())
        for body in (huge + b"\x01\x02", b"\x01\x01a" + huge + b"\x00\x00"):
            for read in (codec.decode_frame, codec.read_frame):
                with pytest.raises(ValueError):
                    read(deflated(b"\x01" + body))
        assert time.perf_counter() - started < 0.1

    # Hostile bytes either as the zlib stream or as the columns behind
    # a good one, so the column parser meets them too.
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CONVERT_LAYOUTS),
           st.sampled_from([b"", b"\x00", b"\x01", b"\x02"]),
           st.binary(max_size=160), st.booleans())
    def test_arbitrary_frames(self, layout, flag, body, columns):
        frame = flag + body
        with small_blocks(2):
            decoded_or_typed_error(
                layout, deflated(frame) if columns else frame)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CONVERT_LAYOUTS),
           st.lists(st.tuples(st.integers(0, 5), st.binary(max_size=8)),
                    min_size=1, max_size=12),
           st.lists(st.integers(min_value=0), min_size=1, max_size=4),
           st.booleans())
    def test_bit_flipped_frames(self, layout, raw, flips, columns):
        pairs = [(fit_field(layout.key_len, b"k%d" % key),
                  fit_field(layout.val_len, value)) for key, value in raw]
        with small_blocks(2):
            frame = get_codec(CODEC_SPEC, layout).encode_frame(
                encoded(layout, pairs))
            frame = bytearray(inflated(frame) if columns else frame)
            for flip in flips:
                frame[flip // 8 % len(frame)] ^= 1 << flip % 8
            decoded_or_typed_error(
                layout, deflated(bytes(frame)) if columns else bytes(frame))


# --------------------------------------------------------------- host memory

def traced_peak(fn, arg):
    """``fn(arg)`` and the most host memory it held at once."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(arg)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestCodecHostMemory:
    """One ``dedup+zlib`` frame of a 64 KiB ``wc_zipf_codec``-style page
    (2,874 records) costs host memory bounded by the block.  The bounds
    are 5 % (encode) and 15 % (decode, and the column read) over the
    peaks of the per-record codec this one replaced, on the same page:
    343,856 and 252,852 B.  Columns built over the whole frame fail
    them (0.51 and 0.64 MB)."""

    PER_RECORD_PEAKS = 343_856, 252_852

    def test_bounded_by_the_block(self):
        layout, records, used = KVLayout(), [], 0
        for word in zipf_text(256 * 1024, seed=3).split():
            record = layout.encode(word, pack_u64(1))
            if used + len(record) > 64 * 1024:
                break
            records.append(record)
            used += len(record)
        run = b"".join(records)
        codec = get_codec(CODEC_SPEC, layout)
        frame, encode_peak = traced_peak(codec.encode_frame, run)
        decoded, decode_peak = traced_peak(codec.decode_frame, frame)
        columns, read_peak = traced_peak(codec.read_frame, frame)
        assert decoded == run and len(records) == len(columns) == 2874
        encode_bound, decode_bound = self.PER_RECORD_PEAKS
        assert encode_peak <= 1.05 * encode_bound
        assert decode_peak <= 1.15 * decode_bound
        assert read_peak <= 1.15 * decode_bound
