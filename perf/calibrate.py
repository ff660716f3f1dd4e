"""Fixed calibration kernel: the benchmark's unit of host speed.

The sandbox is a shared host whose speed drifts by tens of percent
between back-to-back runs, so a timed rep is reported in *calibrated
seconds*: its wall time scaled by how fast this kernel ran right
before and right after it (see ``run.py``).  The kernel mixes the
operations the engine's hot loops are made of - ``struct.pack_into``,
bytearray slicing, dict updates - so it speeds up and slows down with
the host the way a job does.

FROZEN: this file defines the unit every recorded number is expressed
in.  Editing the kernel or ``CAL_REF_S`` after the first baseline
(``perf/baseline/``) silently rescales every later measurement.
"""

from __future__ import annotations

import struct
import time

#: Median wall seconds of :func:`kernel` on the sandbox that recorded
#: the first baseline (pinned to one core).  A rep whose neighbouring
#: calibration runs took exactly this long has calibrated == wall.
CAL_REF_S = 0.07

_ITERATIONS = 100_000
_BUF_SIZE = 64 * 1024
_RECORD = 24
_PACK = struct.Struct("<II")


def kernel() -> int:
    """Run the fixed work loop; returns a checksum so it cannot be elided."""
    buf = bytearray(_BUF_SIZE)
    table: dict[bytes, int] = {}
    pack_into = _PACK.pack_into
    limit = _BUF_SIZE - _RECORD
    offset = 0
    for i in range(_ITERATIONS):
        pack_into(buf, offset, i & 0xFFF, i)
        key = bytes(buf[offset : offset + 6])
        table[key] = table.get(key, 0) + 1
        buf[offset + 8 : offset + _RECORD] = buf[offset : offset + 16]
        offset += _RECORD
        if offset > limit:
            offset = 0
    return len(table)


def run() -> float:
    """Wall seconds of one kernel execution."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
