#!/usr/bin/env python3
"""TeraSort: one globally sorted output file from distributed records.

Demonstrates the sorting toolchain: sample-sort range partitioning
(`global_sort`), MPI-IO-style offset writes (`write_output_global`),
and TeraValidate-style output certification.  The records are
fixed-width, so with ``batch=True`` they travel as numpy rows from the
input chunk to the output file (the sink's ``render=`` is a
``@batch_kernel`` returning each sorted page as it is); the file and
the virtual time are those of the per-record form.

Run:  python examples/terasort_global.py
"""

from repro.apps.terasort import (
    RECORD_SIZE,
    generate_records,
    terasort_mimir,
    validate_output,
)
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.mpi import COMET

NRECORDS = 5_000


def main():
    data = generate_records(NRECORDS, seed=7)
    cluster = Cluster(COMET, nprocs=8, memory_limit=None)
    cluster.pfs.store("tera/input.bin", data)

    config = MimirConfig(page_size="32K", comm_buffer_size="32K")
    result = cluster.run(
        lambda env: terasort_mimir(env, "tera/input.bin",
                                   "tera/output.bin", config, batch=True))

    output = cluster.pfs.fetch("tera/output.bin")
    problems = validate_output(data, output)

    shares = [r.records_local for r in result.returns]
    print(f"sorted {NRECORDS} records of {RECORD_SIZE} bytes "
          f"across {len(shares)} ranks")
    print(f"per-rank shares : {shares}")
    print(f"virtual time    : {result.elapsed:.3f} s")
    print(f"validation      : {'PASS' if not problems else problems}")
    assert not problems

    first = output[:4].hex()
    last = output[-RECORD_SIZE : -RECORD_SIZE + 4].hex()
    print(f"key range       : {first} .. {last}")


if __name__ == "__main__":
    main()
