"""Collective correctness, mismatch detection, and failure handling."""

import operator
import sys

import pytest

from repro.mpi import (
    CollectiveMismatchError,
    DeadlockError,
    RankFailedError,
    World,
)


def run(size, fn, **kwargs):
    return World(size, **kwargs).run(fn)


class TestBarrier:
    def test_barrier_completes(self):
        result = run(4, lambda comm: comm.barrier())
        assert result.returns == [None] * 4

    def test_barrier_advances_clock(self):
        def fn(comm):
            comm.barrier()
            return comm.clock.time

        result = run(4, fn)
        assert all(t > 0 for t in result.returns)
        assert len(set(result.returns)) == 1  # synchronised

    def test_serial_barrier_is_noop(self):
        result = run(1, lambda comm: comm.barrier())
        assert result.returns == [None]


class TestAllreduce:
    def test_sum(self):
        result = run(4, lambda comm: comm.allreduce(comm.rank + 1))
        assert result.returns == [10] * 4

    def test_max(self):
        result = run(3, lambda comm: comm.allreduce(comm.rank, max))
        assert result.returns == [2] * 3

    def test_all_true(self):
        result = run(4, lambda comm: comm.all_true(comm.rank != 2))
        assert result.returns == [False] * 4
        result = run(4, lambda comm: comm.all_true(True))
        assert result.returns == [True] * 4

    def test_any_true(self):
        result = run(4, lambda comm: comm.any_true(comm.rank == 2))
        assert result.returns == [True] * 4
        result = run(4, lambda comm: comm.any_true(False))
        assert result.returns == [False] * 4

    def test_serial(self):
        result = run(1, lambda comm: comm.allreduce(7))
        assert result.returns == [7]

    def test_allmax_allsum(self):
        result = run(3, lambda comm: (comm.allsum(1), comm.allmax(comm.rank)))
        assert result.returns == [(3, 2)] * 3


class TestAllgatherBcast:
    def test_allgather_ordered_by_rank(self):
        result = run(4, lambda comm: comm.allgather(comm.rank * 10))
        assert result.returns == [[0, 10, 20, 30]] * 4

    def test_bcast_from_root0(self):
        def fn(comm):
            value = "hello" if comm.rank == 0 else None
            return comm.bcast(value)

        assert run(3, fn).returns == ["hello"] * 3

    def test_bcast_from_other_root(self):
        def fn(comm):
            value = comm.rank * 100
            return comm.bcast(value, root=2)

        assert run(4, fn).returns == [200] * 4

    def test_bcast_root_out_of_range(self):
        def fn(comm):
            return comm.bcast(1, root=5)

        with pytest.raises(RankFailedError):
            run(2, fn)

    def test_serial_allgather(self):
        assert run(1, lambda comm: comm.allgather("x")).returns == [["x"]]


class TestAlltoallv:
    def test_transpose_semantics(self):
        def fn(comm):
            sends = [f"{comm.rank}->{d}".encode() for d in range(comm.size)]
            received = comm.alltoallv(sends)
            return received

        result = run(3, fn)
        for dst in range(3):
            assert result.returns[dst] == [
                f"{src}->{dst}".encode() for src in range(3)]

    def test_empty_parts_allowed(self):
        def fn(comm):
            sends = [b"" for _ in range(comm.size)]
            return comm.alltoallv(sends)

        result = run(4, fn)
        assert result.returns == [[b""] * 4] * 4

    def test_uneven_sizes(self):
        def fn(comm):
            sends = [bytes([comm.rank]) * (comm.rank + dst)
                     for dst in range(comm.size)]
            return comm.alltoallv(sends)

        result = run(2, fn)
        assert result.returns[0] == [b"", b"\x01"]
        assert result.returns[1] == [b"\x00", b"\x01\x01"]

    def test_wrong_part_count_rejected(self):
        def fn(comm):
            return comm.alltoallv([b"x"])  # needs size parts

        with pytest.raises(RankFailedError):
            run(3, fn)

    def test_serial_roundtrip(self):
        result = run(1, lambda comm: comm.alltoallv([b"abc"]))
        assert result.returns == [[b"abc"]]

    def test_clock_charged_for_payload(self):
        def fn(comm):
            comm.alltoallv([b"x" * 1000] * comm.size)
            return comm.clock.time

        small = run(2, lambda comm: (comm.alltoallv([b""] * comm.size),
                                     comm.clock.time)[1])
        big = run(2, fn)
        assert big.returns[0] > small.returns[0]


class TestFailureModes:
    def test_rank_exception_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RankFailedError) as exc_info:
            run(3, fn)
        assert exc_info.value.rank == 1
        assert isinstance(exc_info.value.original, ValueError)

    def test_mismatched_collectives_detected(self):
        def fn(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.allreduce(1)

        with pytest.raises(RankFailedError) as exc_info:
            run(2, fn)
        assert isinstance(exc_info.value.original, CollectiveMismatchError)

    def test_early_return_while_others_wait_aborts(self):
        def fn(comm):
            if comm.rank == 0:
                return "done-early"
            comm.barrier()

        # Must not deadlock; the waiting ranks unwind.
        with pytest.raises(RankFailedError):
            World(2).run(fn)

    @pytest.mark.parametrize("early, message", [
        (0, r"rank 1 entered 'allreduce' after rank\(s\) \[0\] already returned"),
        (2, r"rank 2 returned while other ranks wait in a collective "
            r"\(rank 0 in 'barrier', rank 1 in 'allreduce'\)"),
    ])
    def test_deadlock_names_what_each_rank_is_blocked_in(self, early, message):
        def fn(comm):
            if comm.rank != early:
                comm.barrier() if comm.rank == 0 else comm.allreduce(1)

        with pytest.raises(RankFailedError, match=message) as exc_info:
            run(3, fn)
        assert isinstance(exc_info.value.original, DeadlockError)

    def test_abort_unwinds_in_rank_order_and_skips_unstarted_ranks(self):
        ran = []

        def fn(comm):
            ran.append(comm.rank)
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RankFailedError) as exc_info:
            run(4, fn)
        assert ran == [0, 1]  # ranks 2 and 3 never got the baton
        assert exc_info.value.rank == 1 and len(exc_info.value.clocks) == 4

    def test_sequential_collectives_reuse_engine(self):
        def fn(comm):
            total = 0
            for i in range(10):
                total = comm.allreduce(total + 1)
            return total

        # 2 ranks, each adds 1 per round: totals follow t' = 2t + 2.
        result = run(2, fn)
        assert result.returns[0] == result.returns[1] > 0


class TestBaton:
    def test_at_most_one_rank_between_collectives(self):
        running = []

        def fn(comm):
            for _ in range(5):
                running.append(comm.rank)
                for _ in range(20_000):
                    pass
                assert running == [comm.rank]
                running.remove(comm.rank)
                comm.barrier()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # free-running ranks would interleave mid-spin
        try:
            run(4, fn)
        finally:
            sys.setswitchinterval(interval)

    def test_one_program_gives_one_interleaving(self):
        def interleaving():
            log = []

            def fn(comm):
                for step, op in enumerate((comm.allsum, comm.allgather,
                                           comm.scan, comm.allmax)):
                    log.append((step, comm.rank, "pre"))
                    op(comm.rank)
                    log.append((step, comm.rank, "post"))

            run(3, fn)
            return log

        first = interleaving()
        assert first == interleaving() and len(first) == 24
        # Rank order in; the last rank to arrive keeps the baton.
        assert first[:6] == [(0, 0, "pre"), (0, 1, "pre"), (0, 2, "pre"),
                             (0, 2, "post"), (1, 2, "pre"), (0, 0, "post")]


class TestClockSync:
    def test_collective_synchronises_to_slowest(self):
        def fn(comm):
            comm.advance(float(comm.rank))  # rank r is r seconds behind
            comm.barrier()
            return comm.clock.time

        result = run(4, fn)
        assert len(set(result.returns)) == 1
        assert result.returns[0] >= 3.0

    def test_elapsed_is_max_clock(self):
        def fn(comm):
            comm.advance(2.0 if comm.rank == 0 else 0.5)

        result = run(2, fn)
        assert result.elapsed == pytest.approx(2.0)
