"""Spill writer/reader streams."""

import pytest

from repro.io import SpillReader, SpillWriter
from repro.storage import StorageBackend
from repro.mpi import PFSModel
from repro.mpi.comm import SimComm


@pytest.fixture
def env():
    pfs = StorageBackend(PFSModel(latency=1e-4, bandwidth=1e6))
    comm = SimComm(0, 1)
    return pfs, comm


class TestSpillRoundtrip:
    def test_chunks_come_back_in_order(self, env):
        pfs, comm = env
        w = SpillWriter(pfs, comm, "kv")
        w.write_chunk(b"first")
        w.write_chunk(b"second")
        w.write_chunk(b"third")
        assert list(w.reader()) == [b"first", b"second", b"third"]

    def test_empty_chunks_skipped(self, env):
        pfs, comm = env
        w = SpillWriter(pfs, comm, "kv")
        w.write_chunk(b"")
        w.write_chunk(b"data")
        assert w.nchunks == 1
        assert list(w.reader()) == [b"data"]

    def test_total_bytes(self, env):
        pfs, comm = env
        w = SpillWriter(pfs, comm, "kv")
        w.write_chunk(b"abc")
        w.write_chunk(b"de")
        assert w.total_bytes == 5

    def test_per_rank_paths(self):
        pfs = StorageBackend()
        w0 = SpillWriter(pfs, SimComm(0, 1), "kv")
        assert w0.path == "spill/kv.0"

    def test_spill_counts_as_spilled_bytes(self, env):
        pfs, comm = env
        w = SpillWriter(pfs, comm, "kv")
        w.write_chunk(b"x" * 100)
        assert pfs.spilled_bytes == 100

    def test_write_and_read_charge_time(self, env):
        pfs, comm = env
        w = SpillWriter(pfs, comm, "kv")
        w.write_chunk(b"x" * 1000)
        t_after_write = comm.clock.time
        assert t_after_write > 0
        list(w.reader())
        assert comm.clock.time > t_after_write

    def test_reader_remaining(self, env):
        pfs, comm = env
        w = SpillWriter(pfs, comm, "kv")
        w.write_chunk(b"a")
        w.write_chunk(b"b")
        r = w.reader()
        assert r.remaining == 2
        next(r)
        assert r.remaining == 1

    def test_multiple_readers_independent(self, env):
        pfs, comm = env
        w = SpillWriter(pfs, comm, "kv")
        w.write_chunk(b"a")
        w.write_chunk(b"b")
        r1, r2 = w.reader(), w.reader()
        assert next(r1) == b"a"
        assert next(r2) == b"a"

    def test_discard_removes_file(self, env):
        pfs, comm = env
        w = SpillWriter(pfs, comm, "kv")
        w.write_chunk(b"abc")
        w.discard()
        assert not pfs.exists("spill/kv.0")
        assert w.nchunks == 0
