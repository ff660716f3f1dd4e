"""Suite-wide invariants and helpers shared by the column-pass tests."""

import threading
from contextlib import contextmanager

import pytest

from repro.core import CSTRING, VARIABLE
from repro.core import batch, bucket, convert, kmvcontainer, records, \
    shuffle, sort


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
    modules = (records, batch, bucket, shuffle, kmvcontainer, convert, sort)
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
