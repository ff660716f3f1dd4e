"""Simulated parallel file system."""

import pytest

from repro.storage import StorageBackend
from repro.mpi import PFSModel, World
from repro.mpi.comm import SimComm


@pytest.fixture
def comm():
    return SimComm(0, 1)


@pytest.fixture
def pfs():
    return StorageBackend(PFSModel(latency=1e-3, bandwidth=1e6))


class TestStaging:
    def test_store_fetch_roundtrip(self, pfs):
        pfs.store("input/a.txt", b"hello world")
        assert pfs.fetch("input/a.txt") == b"hello world"

    def test_store_is_costless(self, pfs, comm):
        pfs.store("x", b"data")
        assert comm.clock.time == 0.0
        assert pfs.stats.bytes_written == 0

    def test_exists_and_size(self, pfs):
        assert not pfs.exists("f")
        pfs.store("f", b"abc")
        assert pfs.exists("f")
        assert pfs.size("f") == 3

    def test_listdir_prefix(self, pfs):
        pfs.store("a/1", b"")
        pfs.store("a/2", b"")
        pfs.store("b/1", b"")
        assert pfs.listdir("a/") == ["a/1", "a/2"]

    def test_delete(self, pfs):
        pfs.store("f", b"x")
        pfs.delete("f")
        assert not pfs.exists("f")
        pfs.delete("f")  # idempotent

    def test_fetch_missing_raises(self, pfs):
        with pytest.raises(KeyError):
            pfs.fetch("nope")


class TestCostedIO:
    def test_read_charges_clock(self, pfs, comm):
        pfs.store("f", b"x" * 1_000_000)
        pfs.read(comm, "f")
        assert comm.clock.time == pytest.approx(1e-3 + 1.0)

    def test_partial_read(self, pfs, comm):
        pfs.store("f", b"abcdefgh")
        assert pfs.read(comm, "f", offset=2, size=3) == b"cde"

    def test_read_past_end_truncates(self, pfs, comm):
        pfs.store("f", b"abc")
        assert pfs.read(comm, "f", offset=1, size=100) == b"bc"

    def test_write_charges_clock_and_stats(self, pfs, comm):
        pfs.write(comm, "out", b"y" * 1000)
        assert pfs.stats.bytes_written == 1000
        assert pfs.stats.writes == 1
        assert comm.clock.time > 0

    def test_append_returns_offsets(self, pfs, comm):
        assert pfs.append(comm, "log", b"aa") == 0
        assert pfs.append(comm, "log", b"bbb") == 2
        assert pfs.fetch("log") == b"aabbb"

    def test_stats_by_prefix(self, pfs, comm):
        pfs.write(comm, "spill/f.0", b"x" * 100)
        pfs.write(comm, "output/f", b"y" * 50)
        assert pfs.spilled_bytes == 100
        assert pfs.stats.by_prefix["output"] == 50

    def test_default_model_is_free(self, comm):
        pfs = StorageBackend()
        pfs.write(comm, "f", b"z" * 10_000)
        assert comm.clock.time == 0.0


class TestConcurrentAccess:
    def test_ranks_share_one_namespace(self):
        pfs = StorageBackend()

        def fn(comm):
            pfs.write(comm, f"part/{comm.rank}", bytes([comm.rank]) * 4)
            comm.barrier()
            return sorted(pfs.listdir("part/"))

        result = World(4).run(fn)
        assert result.returns[0] == [f"part/{r}" for r in range(4)]

    def test_concurrent_appends_all_land(self):
        pfs = StorageBackend()

        def fn(comm):
            for _ in range(50):
                pfs.append(comm, "shared", b"ab")

        World(4).run(fn)
        assert pfs.size("shared") == 4 * 50 * 2
