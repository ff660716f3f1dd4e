"""Input splitting across ranks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.io import split_blocks, split_range, split_text
from repro.io.splits import PROBE_WINDOW, split_text_file
from repro.storage import BACKENDS, make_backend

_WHITESPACE = b" \t\n\r\x0b\x0c"


def scalar_split_text(data, rank, size):
    """The byte-at-a-time scan over the whole input that the windowed
    probes replaced; kept as the reference."""
    start, nominal_end = split_range(len(data), rank, size)

    def snap(pos):
        if pos == 0 or pos >= len(data):
            return min(pos, len(data))
        while pos < len(data) and data[pos] not in _WHITESPACE:
            pos += 1
        return min(pos + 1, len(data)) if pos < len(data) else len(data)

    return snap(start), max(snap(start), snap(nominal_end))


#: Text whose words run from empty to several probe windows long.
texts = st.lists(
    st.one_of(st.sampled_from([bytes([b]) for b in _WHITESPACE]),
              st.binary(max_size=12),
              st.integers(1, 3 * PROBE_WINDOW).map(lambda n: b"w" * n)),
    max_size=12).map(b"".join)


class TestSplitRange:
    def test_even_split(self):
        assert [split_range(12, r, 4) for r in range(4)] == [
            (0, 3), (3, 6), (6, 9), (9, 12)]

    def test_remainder_to_low_ranks(self):
        spans = [split_range(10, r, 4) for r in range(4)]
        assert spans == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_ranks_than_items(self):
        spans = [split_range(2, r, 4) for r in range(4)]
        assert spans == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_zero_items(self):
        assert split_range(0, 0, 3) == (0, 0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            split_range(10, 0, 0)
        with pytest.raises(ValueError):
            split_range(10, 5, 4)
        with pytest.raises(ValueError):
            split_range(-1, 0, 1)


class TestSplitText:
    def test_words_not_broken(self):
        data = b"alpha beta gamma delta epsilon zeta"
        words = []
        for r in range(3):
            start, end = split_text(data, r, 3)
            words.extend(data[start:end].split())
        assert words == data.split()

    def test_single_rank_gets_everything(self):
        data = b"one two three"
        assert split_text(data, 0, 1) == (0, len(data))

    def test_disjoint_and_covering(self):
        data = b"the quick brown fox jumps over the lazy dog " * 5
        spans = [split_text(data, r, 4) for r in range(4)]
        assert spans[0][0] == 0
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert e0 == s1  # contiguous
        assert spans[-1][1] == len(data)

    def test_empty_input(self):
        assert split_text(b"", 0, 2) == (0, 0)
        assert split_text(b"", 1, 2) == (0, 0)

    def test_one_giant_word(self):
        data = b"x" * 100
        collected = []
        for r in range(4):
            s, e = split_text(data, r, 4)
            collected.append(data[s:e])
        # The single word must appear exactly once in total.
        assert b"".join(collected) == data


class TestSplitsAgainstScalarReference:
    @given(texts, st.integers(1, 9))
    def test_in_memory_and_stored_splits_equal_the_scan(self, data, size):
        store = make_backend("pfs")
        store.store("in/t", data)
        for rank in range(size):
            want = scalar_split_text(data, rank, size)
            assert split_text(data, rank, size) == want
            assert split_text_file(store, "in/t", rank, size) == want

    @pytest.mark.parametrize("spec", BACKENDS)
    def test_probes_are_bounded_uncharged_and_unfaulted(self, spec):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"a split probe touched chaos.{name}")

        store = make_backend(spec)
        store.wire(Untouchable(), None)
        data = b"w" * (2 * PROBE_WINDOW + 7) + b" tail " + b"v" * 900
        store.store("in/t", data)
        sizes = []
        fetch = store.fetch

        def spy(*args):
            sizes.append(len(fetch(*args)))
            return fetch(*args)

        store.fetch = spy
        spans = [split_text_file(store, "in/t", r, 3) for r in range(3)]
        assert spans == [scalar_split_text(data, r, 3) for r in range(3)]
        assert sizes and max(sizes) <= PROBE_WINDOW
        assert store.stats.reads == 0 and store.stats.bytes_read == 0

    def test_bounded_fetch_slices_like_read(self):
        store = make_backend("pfs")
        store.store("f", b"0123456789")
        assert store.fetch("f") == b"0123456789"
        assert store.fetch("f", 3) == b"3456789"
        assert store.fetch("f", 3, 4) == b"3456"
        assert store.fetch("f", 8, 100) == b"89"
        assert store.fetch("f", 10, 4) == b""


class TestSplitBlocks:
    def test_block_aligned(self):
        spans = [split_blocks(100, 10, r, 3) for r in range(3)]
        assert spans == [(0, 40), (40, 70), (70, 100)]
        for s, e in spans:
            assert s % 10 == 0 and e % 10 == 0

    def test_rejects_misaligned_total(self):
        with pytest.raises(ValueError):
            split_blocks(101, 10, 0, 2)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            split_blocks(100, 0, 0, 2)


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=64))
def test_property_range_partition(total, size):
    spans = [split_range(total, r, size) for r in range(size)]
    assert spans[0][0] == 0
    assert spans[-1][1] == total
    for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
        assert e0 == s1
        assert s0 <= e0


@given(st.text(alphabet="abc \n", min_size=0, max_size=300),
       st.integers(min_value=1, max_value=8))
def test_property_text_split_preserves_words(text, size):
    data = text.encode()
    words = []
    prev_end = 0
    for r in range(size):
        s, e = split_text(data, r, size)
        assert s == prev_end  # contiguous coverage
        prev_end = e
        words.extend(data[s:e].split())
    assert prev_end == len(data)
    assert words == data.split()
