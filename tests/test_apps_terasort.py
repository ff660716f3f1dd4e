"""TeraSort: global order, validation, scan/write_at plumbing."""

import pytest

from repro.apps.terasort import (
    RECORD_SIZE,
    checksum,
    generate_records,
    terasort_mimir,
    validate_output,
)
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.mpi import COMET, World

CFG = MimirConfig(page_size=4096, comm_buffer_size=4096,
                  input_chunk_size=2048)


def run_terasort(nrecords, nprocs=4, seed=1):
    data = generate_records(nrecords, seed=seed)
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("tera/in.bin", data)
    result = cluster.run(
        lambda env: terasort_mimir(env, "tera/in.bin", "tera/out.bin", CFG))
    return data, cluster.pfs.fetch("tera/out.bin"), result


class TestScanCollective:
    def test_inclusive_scan(self):
        result = World(4).run(lambda comm: comm.scan(comm.rank + 1))
        assert result.returns == [1, 3, 6, 10]

    def test_exclusive_scan(self):
        result = World(4).run(lambda comm: comm.exscan(comm.rank + 1))
        assert result.returns == [0, 1, 3, 6]

    def test_scan_custom_op(self):
        result = World(3).run(lambda comm: comm.scan(comm.rank + 2,
                                                     op=lambda a, b: a * b))
        assert result.returns == [2, 6, 24]

    def test_serial(self):
        assert World(1).run(lambda comm: comm.scan(5)).returns == [5]
        assert World(1).run(lambda comm: comm.exscan(5)).returns == [0]


class TestWriteAt:
    def test_disjoint_regions_compose(self):
        cluster = Cluster(COMET, nprocs=4, memory_limit=None)

        def job(env):
            piece = bytes([65 + env.comm.rank]) * 3
            env.pfs.write_at(env.comm, "shared.bin",
                             env.comm.rank * 3, piece)
            env.comm.barrier()

        cluster.run(job)
        assert cluster.pfs.fetch("shared.bin") == b"AAABBBCCCDDD"

    def test_gaps_read_as_zero(self):
        cluster = Cluster(COMET, nprocs=1, memory_limit=None)
        cluster.run(lambda env: env.pfs.write_at(env.comm, "g.bin", 4,
                                                 b"xy"))
        assert cluster.pfs.fetch("g.bin") == b"\0\0\0\0xy"

    def test_negative_offset_rejected(self):
        from repro.mpi import RankFailedError

        cluster = Cluster(COMET, nprocs=1, memory_limit=None)
        with pytest.raises(RankFailedError):
            cluster.run(lambda env: env.pfs.write_at(env.comm, "g", -1,
                                                     b"x"))


class TestTeraSort:
    def test_output_valid(self):
        input_data, output_data, _ = run_terasort(400)
        assert validate_output(input_data, output_data) == []

    def test_record_counts_partition(self):
        _, _, result = run_terasort(300)
        assert sum(r.records_local for r in result.returns) == 300

    def test_serial(self):
        input_data, output_data, _ = run_terasort(100, nprocs=1)
        assert validate_output(input_data, output_data) == []

    def test_output_is_rank_ordered(self):
        # Keys in the shared file are globally nondecreasing - the
        # offset writes composed the per-rank slices correctly.
        _, output_data, _ = run_terasort(500, nprocs=6)
        keys = [output_data[off : off + 4]
                for off in range(0, len(output_data), RECORD_SIZE)]
        assert keys == sorted(keys)

    def test_empty_input(self):
        input_data, output_data, _ = run_terasort(0)
        assert output_data == b""
        assert validate_output(input_data, output_data) == []


class TestBatchForm:
    """``batch=True`` moves matrix rows from the input chunk to the
    output file; ``batch=False`` slices, emits and renders one record
    at a time.  Same file, same virtual time, same memory."""

    @pytest.mark.parametrize("nprocs", [1, 2, 3])
    @pytest.mark.parametrize("nrecords", [0, 700])
    def test_same_file_time_and_peaks_as_per_record(self, nprocs, nrecords):
        def outcome(batch):
            data = generate_records(nrecords, seed=9)
            cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
            cluster.pfs.store("tera/in.bin", data)
            result = cluster.run(lambda env: terasort_mimir(
                env, "tera/in.bin", "tera/out.bin", CFG, batch=batch))
            output = cluster.pfs.fetch("tera/out.bin")
            assert validate_output(data, output) == []
            return (output, result.elapsed,
                    [tracker.peak for tracker in cluster.trackers],
                    [r.records_local for r in result.returns])

        assert outcome(batch=True) == outcome(batch=False)


class TestValidator:
    def test_detects_disorder(self):
        # Build two definitely out-of-order records by hand.
        big = b"\xff\xff\xff\xff" + b"p" * 12
        small = b"\x00\x00\x00\x00" + b"q" * 12
        data = small + big          # the "input" (order irrelevant)
        disordered = big + small    # an unsorted "output"
        problems = validate_output(data, disordered)
        assert any("order" in p for p in problems)

    def test_detects_size_mismatch(self):
        data = generate_records(10)
        assert validate_output(data, data[:-RECORD_SIZE])

    def test_detects_content_change(self):
        data = generate_records(10, seed=3)
        # Sort the records so order passes, then corrupt one payload.
        records = sorted(data[off : off + RECORD_SIZE]
                         for off in range(0, len(data), RECORD_SIZE))
        good = b"".join(records)
        bad = bytearray(good)
        bad[5] ^= 0xFF
        assert validate_output(data, bytes(bad))