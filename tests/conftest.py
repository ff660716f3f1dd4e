"""Suite-wide invariants and helpers shared by the column-pass tests."""

import random
import threading
from contextlib import contextmanager
from itertools import product

import pytest

from repro.core import CODEC_SPEC, CSTRING, VARIABLE, KVContainer, \
    KVLayout, get_codec, pack_u64
from repro.core import batch, bucket, codec, convert, job, kmvcontainer, \
    records, shuffle, sort


@pytest.fixture(autouse=True)
def no_rank_thread_outlives_its_test():
    yield
    leaked = [thread.name for thread in threading.enumerate()
              if thread.name.startswith("simrank-")]
    assert not leaked, f"rank threads still alive after the test: {leaked}"


@contextmanager
def small_blocks(size):
    """Shrink the column passes' block so a few dozen records cross
    many block boundaries (every module binds the constant by name)."""
    modules = (records, batch, bucket, shuffle, kmvcontainer, convert, sort,
               job, codec)
    saved = [module.BLOCK for module in modules]
    for module in modules:
        module.BLOCK = size
    try:
        yield
    finally:
        for module, block in zip(modules, saved):
            module.BLOCK = block


def fit_field(hint, data):
    """Coerce arbitrary bytes to what a length hint allows."""
    if hint == CSTRING:
        return data.replace(b"\0", b"\1")
    return data if hint is VARIABLE else (data * hint + b"." * hint)[:hint]


# Every way a container can hold its records: a codec freezes filled
# pages into frames, ``resident_page_budget=2`` pushes a prefix out
# to the spill stream, and the live tail page is always there.
CONTAINER_KINDS = list(product((None, CODEC_SPEC), (None, 2)))
container_kinds = pytest.mark.parametrize(
    "kind", CONTAINER_KINDS,
    ids=[f"{codec or 'plain'}-{'spilled' if budget else 'resident'}"
         for codec, budget in CONTAINER_KINDS])


def tiered_container(env, kind, page_size=256):
    """An empty container of one of :data:`CONTAINER_KINDS`."""
    codec, budget = kind
    layout = KVLayout()
    return KVContainer(env.tracker, layout, page_size, tag="tiers",
                       spill_env=env if budget else None,
                       resident_page_budget=budget,
                       codec=get_codec(codec, layout), codec_env=env)


def filled_container(env, kind, prefix=b"popular"):
    """A 400-record container of ``kind`` (skewed keys, enough to fill
    every tier) and the records it holds."""
    rng = random.Random(9)
    pairs = [(prefix + b"-%d" % rng.randint(0, 4), pack_u64(i))
             for i in range(400)]
    kvc = tiered_container(env, kind)
    for key, value in pairs:
        kvc.add(key, value)
    assert kvc.spilled == (kind[1] is not None)
    return kvc, pairs
