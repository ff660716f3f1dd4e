"""A codec-frozen page read as its frame's columns against the records
it packs to: every reader of a container that froze pages gives the
bytes the same container gives without a codec, and the tracked peak
of the same container read packed (the frame decoded, then scanned)."""

from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import CODEC_SPECS, KVContainer, KVLayout, MimirConfig
from repro.core.codec import Codec, get_codec
from repro.core.convert import convert_to_kmv
from repro.core.partial_reduction import partial_reduce
from repro.core.sort import sorted_container
from repro.memory import MemoryTracker
from tests.conftest import fit_field, small_blocks
from tests.test_core_convert_paths import CONVERT_LAYOUTS, with_env

#: Convert's layouts, plus fixed/fixed rows (``sort_local``'s matrix).
LAYOUTS = CONVERT_LAYOUTS + [KVLayout(3, 5)]


def convert(env, kvc, page_size):
    config = MimirConfig(page_size=page_size, layout=kvc.layout)
    return [bytes(page.view) for page in
            convert_to_kmv(env, kvc, config).pages]


def fold(env, kvc, page_size):
    out = KVContainer(env.tracker, kvc.layout, page_size, tag="folded")
    return list(partial_reduce(env, kvc, lambda key, a, b: max(a, b),
                               out).chunks())


def sort_local(env, kvc, page_size):
    out = KVContainer(env.tracker, kvc.layout, page_size, tag="sorted")
    return list(sorted_container(env, kvc.consume_batches(), out).chunks())


#: Every reader: convert's KMV pages, a partial reduction's output,
#: ``records()``, ``chunks()`` and a local sort's output.
READERS = {
    "convert": convert,
    "partial_reduce": fold,
    "records": lambda env, kvc, page_size: list(kvc.records()),
    "chunks": lambda env, kvc, page_size: b"".join(kvc.chunks()),
    "sort_local": sort_local,
}

_read_frame = Codec.read_frame


def read_packed(self, frame):
    """``read_frame`` as a reader without the columns has it: the
    frame's records, packed, for the container to scan."""
    run = _read_frame(self, frame)
    return run if isinstance(run, bytes) else run.data


def read(layout, spec, pairs, page_size, reader, packed=False):
    """``reader``'s result over a container of ``pairs`` under ``spec``,
    the tracker's peak, and how many pages froze."""
    def job(env):
        env.tracker = MemoryTracker()
        kvc = KVContainer(env.tracker, layout, page_size, tag="kvc",
                          codec=get_codec(spec, layout), codec_env=env)
        for key, value in pairs:
            kvc.add(key, value)
        frozen = len(kvc._frozen)
        return READERS[reader](env, kvc, page_size), env.tracker.peak, frozen

    if not packed:
        return with_env(job)
    with mock.patch.object(Codec, "read_frame", read_packed):
        return with_env(job)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("layout", LAYOUTS, ids=repr)
@pytest.mark.parametrize("spec", CODEC_SPECS)
@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.binary(max_size=12)),
                min_size=12, max_size=150),
       st.sampled_from([64, 128]), st.integers(1, 9))
def test_a_frozen_page_reads_as_its_records(spec, layout, reader, raw,
                                            page_size, block):
    pairs = [(fit_field(layout.key_len, b"key%d" % key),
              fit_field(layout.val_len, value)) for key, value in raw]
    pairs = [pair for pair in pairs
             if layout.encoded_size(*pair) <= page_size]
    with small_blocks(block):
        columns, peak, frozen = read(layout, spec, pairs, page_size, reader)
        assume(frozen)
        plain = read(layout, None, pairs, page_size, reader)[0]
        packed, packed_peak, _ = read(layout, spec, pairs, page_size, reader,
                                      packed=True)
    assert columns == plain == packed
    assert peak == packed_peak
