"""Fuzzing the collective engine with random operation programs."""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import World

OPS = ["barrier", "allreduce", "allgather", "bcast", "alltoallv", "scan"]

programs = st.lists(st.sampled_from(OPS), min_size=1, max_size=12)
sizes = st.integers(min_value=1, max_value=5)


def run_program(comm, program):
    """Execute a random-but-symmetric collective sequence; return a
    digest every rank can be compared on."""
    digest = []
    for step, op in enumerate(program):
        if op == "barrier":
            comm.barrier()
            digest.append("b")
        elif op == "allreduce":
            digest.append(comm.allreduce(comm.rank + step))
        elif op == "allgather":
            digest.append(tuple(comm.allgather((comm.rank, step))))
        elif op == "bcast":
            digest.append(comm.bcast(step * 7, root=step % comm.size))
        elif op == "alltoallv":
            sends = [b"%d:%d" % (comm.rank, dest)
                     for dest in range(comm.size)]
            received = comm.alltoallv(sends)
            digest.append(b"|".join(received))
        elif op == "scan":
            digest.append(comm.scan(step + 1, op=operator.add))
    return digest


@settings(max_examples=30, deadline=None)
@given(programs, sizes)
def test_symmetric_programs_never_deadlock(program, size):
    result = World(size).run(run_program, program)
    assert len(result.returns) == size
    # Collective results that must be rank-independent are.
    for step, op in enumerate(program):
        values = [r[step] for r in result.returns]
        if op in ("barrier", "allreduce", "allgather", "bcast"):
            assert len(set(map(str, values))) == 1, (op, values)
        elif op == "alltoallv":
            # Rank d received "<src>:<d>" from every src.
            for dest, received in enumerate(values):
                parts = received.split(b"|")
                assert parts == [b"%d:%d" % (src, dest)
                                 for src in range(size)]
        elif op == "scan":
            # Prefix sum of identical contributions: rank r holds
            # (step+1) * (r+1).
            assert values == [(step + 1) * (r + 1) for r in range(size)]


@settings(max_examples=20, deadline=None)
@given(programs, st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=11))
def test_clocks_synchronised_after_any_program(program, size, skew_rank):
    def fn(comm, prog):
        if comm.rank == skew_rank % comm.size:
            comm.advance(3.0)  # one rank starts late
        run_program(comm, prog)
        comm.barrier()
        return comm.clock.time

    result = World(size).run(fn, program)
    # The trailing barrier equalises all clocks at >= the straggler's.
    assert len(set(result.returns)) == 1
    assert result.returns[0] >= 3.0


@settings(max_examples=15, deadline=None)
@given(programs, st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=50))
def test_one_rank_failing_mid_program_always_unwinds(program, size, where):
    from repro.mpi import RankFailedError

    fail_step = where % (len(program) + 1)
    fail_rank = where % size

    def fn(comm, prog):
        for step, op in enumerate(prog):
            if step == fail_step and comm.rank == fail_rank:
                raise ValueError("injected")
            run_program(comm, [op])
        if fail_step == len(prog) and comm.rank == fail_rank:
            raise ValueError("injected")
        return True

    try:
        World(size).run(fn, program)
    except RankFailedError as failure:
        assert isinstance(failure.original, ValueError)
    # Either outcome is fine (a failure after the last collective on a
    # non-blocking path may still surface); the property under test is
    # simply: no deadlock, no hang, no crash of the harness.
