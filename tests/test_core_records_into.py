"""The scalar reference encoder (``tests/scalar_reference.py``, what the
column router is checked against) matches ``KVLayout.encode``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import CSTRING, KVLayout
from tests.scalar_reference import encode_into, iter_records


LAYOUTS = [
    KVLayout(),
    KVLayout(key_len=CSTRING, val_len=8),
    KVLayout(key_len=4, val_len=8),
    KVLayout(key_len=CSTRING, val_len=CSTRING),
    KVLayout(key_len=None, val_len=6),
    KVLayout(key_len=3, val_len=None),
]


def fit(layout, key, value):
    """Coerce random bytes to satisfy the layout's constraints."""
    if isinstance(layout.key_len, int) and layout.key_len > 0:
        key = (key * layout.key_len)[: layout.key_len].ljust(
            layout.key_len, b"k")
    if layout.key_len == CSTRING:
        key = key.replace(b"\0", b"x")
    if isinstance(layout.val_len, int) and layout.val_len > 0:
        value = (value * layout.val_len)[: layout.val_len].ljust(
            layout.val_len, b"v")
    if layout.val_len == CSTRING:
        value = value.replace(b"\0", b"y")
    return key, value


class TestEncodeInto:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_encode(self, layout):
        key, value = fit(layout, b"hello", b"world!")
        expected = layout.encode(key, value)
        buf = bytearray(64)
        end = encode_into(layout, buf, 0, key, value)
        assert bytes(buf[:end]) == expected
        assert end == layout.encoded_size(key, value)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_offset_respected(self, layout):
        key, value = fit(layout, b"abc", b"defg")
        buf = bytearray(b"\xee" * 64)
        end = encode_into(layout, buf, 10, key, value)
        assert bytes(buf[:10]) == b"\xee" * 10  # prefix untouched
        assert bytes(buf[10:end]) == layout.encode(key, value)

    def test_validation_still_applies(self):
        layout = KVLayout(key_len=4)
        with pytest.raises(ValueError):
            encode_into(layout, bytearray(32), 0, b"toolong", b"v")
        layout2 = KVLayout(key_len=CSTRING)
        with pytest.raises(ValueError):
            encode_into(layout2, bytearray(32), 0, b"a\0b", b"v")

    def test_back_to_back_records_decode(self):
        layout = KVLayout()
        buf = bytearray(256)
        pairs = [(b"a", b"1"), (b"bb", b"22"), (b"", b"")]
        offset = 0
        for key, value in pairs:
            offset = encode_into(layout, buf, offset, key, value)
        assert list(iter_records(layout, bytes(buf[:offset]))) == pairs


@given(st.binary(max_size=20), st.binary(max_size=20),
       st.integers(min_value=0, max_value=16))
def test_property_encode_into_equals_encode(key, value, offset):
    layout = KVLayout()
    buf = bytearray(offset + layout.encoded_size(key, value))
    end = encode_into(layout, buf, offset, key, value)
    assert bytes(buf[offset:end]) == layout.encode(key, value)
