"""KV record codec: default, fixed-length, and CSTRING layouts."""

import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CSTRING, VARIABLE, KVLayout, pack_u64, unpack_u64
from repro.core.records import Fields, put_u32
from tests.scalar_reference import iter_records


class TestDefaultLayout:
    def test_roundtrip(self):
        layout = KVLayout()
        buf = layout.encode(b"word", b"value")
        key, value, offset = layout.decode(buf)
        assert (key, value) == (b"word", b"value")
        assert offset == len(buf)

    def test_header_is_8_bytes(self):
        layout = KVLayout()
        assert layout.header_size == 8
        assert layout.encoded_size(b"abc", b"de") == 8 + 3 + 2

    def test_empty_fields(self):
        layout = KVLayout()
        buf = layout.encode(b"", b"")
        assert layout.decode(buf)[:2] == (b"", b"")

    def test_multiple_records(self):
        layout = KVLayout()
        buf = layout.encode(b"a", b"1") + layout.encode(b"bb", b"22")
        assert list(iter_records(layout, buf)) == [(b"a", b"1"), (b"bb", b"22")]

    def test_count_records(self):
        layout = KVLayout()
        buf = b"".join(layout.encode(bytes([65 + i]), b"x") for i in range(5))
        assert layout.fit(buf, 0, len(buf)) == (len(buf), 5)

    def test_truncated_buffer_rejected(self):
        layout = KVLayout()
        buf = layout.encode(b"abcdef", b"ghi")
        with pytest.raises(ValueError):
            layout.decode(buf[:-1] if False else buf[:6])

    def test_binary_safe(self):
        layout = KVLayout()
        key, value = bytes(range(256)), b"\0\0\xff"
        k, v, _ = layout.decode(layout.encode(key, value))
        assert (k, v) == (key, value)


class TestFixedLayout:
    def test_fixed_value_no_header(self):
        layout = KVLayout(val_len=8)
        assert layout.header_size == 4
        buf = layout.encode(b"word", pack_u64(7))
        assert len(buf) == 4 + 4 + 8
        key, value, _ = layout.decode(buf)
        assert key == b"word"
        assert unpack_u64(value) == 7

    def test_fixed_key_and_value(self):
        layout = KVLayout(key_len=8, val_len=16)
        assert layout.header_size == 0
        buf = layout.encode(b"k" * 8, b"v" * 16)
        assert len(buf) == 24
        assert layout.decode(buf)[:2] == (b"k" * 8, b"v" * 16)

    def test_wrong_length_rejected(self):
        layout = KVLayout(key_len=8)
        with pytest.raises(ValueError):
            layout.encode(b"short", b"v")

    def test_hint_saves_bytes(self):
        plain = KVLayout()
        hinted = KVLayout(key_len=CSTRING, val_len=8)
        key, value = b"country", pack_u64(1)
        assert hinted.encoded_size(key, value) < plain.encoded_size(key, value)
        # 8-byte header replaced by a single NUL: saves 7 bytes.
        assert plain.encoded_size(key, value) - \
            hinted.encoded_size(key, value) == 7


class TestFixedRunsAreMatrices:
    """``rows`` / ``column``: a fixed/fixed run as numpy views whose
    order is ``bytes`` order, NULs included."""

    #: Embedded and trailing NULs are where an ``S`` column could part
    #: ways with ``bytes``: numpy strips them when an item is read back.
    nul_heavy = st.lists(st.sampled_from([b"\0", b"\0", b"\1", b"a", b"\xff"]),
                         min_size=7, max_size=7).map(b"".join)

    def test_views_of_the_buffer(self):
        layout = KVLayout(2, 3)
        buf = b"k0v00k1v11k2v22"
        rows = layout.rows(buf)
        assert rows.shape == (3, 5) and not rows.flags.writeable
        assert np.shares_memory(rows, np.frombuffer(buf, np.uint8))
        keys, values = layout.column(rows), layout.column(rows, True)
        assert np.shares_memory(keys, rows) and keys.dtype == "S2"
        assert keys.tobytes() == b"k0k1k2"
        assert values.tobytes() == b"v00v11v22"
        assert layout.rows(b"").shape == (0, 5)
        assert len(layout.column(layout.rows(b""))) == 0

    def test_row_width_is_zero_unless_both_lengths_are_fixed(self):
        assert KVLayout(4, 12).row_width == 16
        for hints in ((VARIABLE, 8), (8, VARIABLE), (CSTRING, 8),
                      (8, CSTRING), (VARIABLE, VARIABLE)):
            assert KVLayout(*hints).row_width == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(nul_heavy, nul_heavy), max_size=60),
           st.lists(nul_heavy, max_size=5), st.booleans())
    def test_column_order_is_bytes_order(self, pairs, probes, by_value):
        layout = KVLayout(7, 7)
        column = layout.column(
            layout.rows(b"".join(k + v for k, v in pairs)), by_value)
        fields = [pair[by_value] for pair in pairs]
        ranked = sorted(range(len(fields)), key=fields.__getitem__)
        assert np.argsort(column, kind="stable").tolist() == ranked
        assert np.sort(column).tobytes() == b"".join(sorted(fields))
        splitters = sorted(probes)
        assert np.searchsorted(np.array(splitters, column.dtype), column,
                               "right").tolist() == \
            [bisect_right(splitters, field) for field in fields]

    def test_nul_heavy_keys_by_the_thousand(self):
        rng = random.Random(5)
        keys = [bytes(rng.choice(b"\0\0\0\1\xff") for _ in range(6))
                for _ in range(5000)]
        layout = KVLayout(6, 1)
        column = layout.column(layout.rows(b"".join(k + b"v" for k in keys)))
        assert np.sort(column).tobytes() == b"".join(sorted(keys))
        splitters = sorted(keys[::500])
        assert np.searchsorted(np.array(splitters, "S6"), column,
                               "right").tolist() == \
            [bisect_right(splitters, key) for key in keys]


class TestCStringLayout:
    def test_roundtrip(self):
        layout = KVLayout(key_len=CSTRING, val_len=8)
        buf = layout.encode(b"hello", pack_u64(42))
        key, value, offset = layout.decode(buf)
        assert key == b"hello"
        assert unpack_u64(value) == 42
        assert offset == len(buf)

    def test_nul_in_cstring_rejected(self):
        layout = KVLayout(key_len=CSTRING)
        with pytest.raises(ValueError):
            layout.encode(b"he\0llo", b"v")

    def test_empty_cstring(self):
        layout = KVLayout(key_len=CSTRING, val_len=1)
        buf = layout.encode(b"", b"x")
        assert layout.decode(buf)[:2] == (b"", b"x")

    def test_unterminated_rejected(self):
        layout = KVLayout(key_len=CSTRING, val_len=1)
        with pytest.raises(ValueError):
            layout.decode(b"nonul")

    def test_value_cstring(self):
        layout = KVLayout(key_len=4, val_len=CSTRING)
        buf = layout.encode(b"keyy", b"text")
        assert layout.decode(buf)[:2] == (b"keyy", b"text")


class TestValidation:
    def test_bad_hints_rejected(self):
        with pytest.raises(ValueError):
            KVLayout(key_len=0)
        with pytest.raises(ValueError):
            KVLayout(val_len=-2)
        with pytest.raises(ValueError):
            KVLayout(key_len=True)

    def test_layout_hashable_and_frozen(self):
        a, b = KVLayout(val_len=8), KVLayout(val_len=8)
        assert a == b
        assert hash(a) == hash(b)


class TestU64:
    def test_roundtrip(self):
        assert unpack_u64(pack_u64(0)) == 0
        assert unpack_u64(pack_u64(2 ** 64 - 1)) == 2 ** 64 - 1

    def test_fixed_width(self):
        assert len(pack_u64(1)) == 8


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_property_default_roundtrip(key, value):
    layout = KVLayout()
    buf = layout.encode(key, value)
    assert len(buf) == layout.encoded_size(key, value)
    k, v, off = layout.decode(buf)
    assert (k, v, off) == (key, value, len(buf))


@given(st.lists(st.tuples(st.binary(max_size=16), st.binary(max_size=16)),
                max_size=30))
def test_property_stream_roundtrip(pairs):
    layout = KVLayout()
    buf = b"".join(layout.encode(k, v) for k, v in pairs)
    assert list(iter_records(layout, buf)) == pairs


@given(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127),
               max_size=20),
       st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_property_cstring_u64_roundtrip(word, count):
    layout = KVLayout(key_len=CSTRING, val_len=8)
    buf = layout.encode(word.encode(), pack_u64(count))
    k, v, _ = layout.decode(buf)
    assert k == word.encode()
    assert unpack_u64(v) == count


class TestFields:
    """``Fields`` (rows for one width, bytes for mixed widths) and
    ``put_u32`` against a slice per field."""

    @settings(max_examples=150, deadline=None)
    @given(st.binary(min_size=1, max_size=64),
           st.lists(st.tuples(st.integers(0, 63), st.integers(0, 9)),
                    max_size=12),
           st.one_of(st.none(), st.integers(0, 9)),
           st.randoms(use_true_random=False))
    def test_gather_and_scatter_equal_slices(self, raw, spans, width, rng):
        # ``width`` set: every field that wide (rows); else mixed.
        spans = [(start % len(raw), width if width is not None else size)
                 for start, size in spans]
        spans = [(start, size) for start, size in spans
                 if start + size <= len(raw)]
        starts = np.array([start for start, _ in spans], np.int64)
        sizes = np.array([size for _, size in spans], np.int64)
        expected = [raw[start : start + size] for start, size in spans]
        joined = b"".join(expected)
        # Scatter to disjoint, shuffled places of a bigger page, in two
        # slices of the fields.
        order = list(range(len(spans)))
        rng.shuffle(order)
        at, end = np.zeros(len(spans), np.int64), 3
        for i in order:
            at[i], end = end, end + sizes[i] + rng.randrange(3)
        want = bytearray(b"\xee" * (end + 2))
        for where, field in zip(at.tolist(), expected):
            want[where : where + len(field)] = field
        cut = rng.randrange(len(spans) + 1)
        # Gathered from ``raw``, or lying end to end already.
        for fields in (Fields(np.frombuffer(raw, np.uint8), starts, sizes),
                       Fields(np.frombuffer(joined, np.uint8), None, sizes)):
            assert fields.flat().tobytes() == joined
            page = bytearray(b"\xee" * (end + 2))
            dest = np.frombuffer(page, np.uint8)
            for lo, hi in ((0, cut), (cut, None)):
                if len(at[lo:hi]):
                    fields.scatter(dest, at[lo:hi], lo, hi)
            assert page == want

    def test_put_u32_writes_at_any_alignment(self):
        page = bytearray(12)
        put_u32(np.frombuffer(page, np.uint8), np.array([1, 7]),
                np.array([0x04030201, 2**32 - 1], np.int64))
        assert bytes(page) == b"\0\1\2\3\4\0\0\xff\xff\xff\xff\0"
