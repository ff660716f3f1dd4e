"""Suite-wide invariants."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_rank_thread_outlives_its_test():
    yield
    leaked = [thread.name for thread in threading.enumerate()
              if thread.name.startswith("simrank-")]
    assert not leaked, f"rank threads still alive after the test: {leaked}"
