"""Engine-side streams over the storage substrate.

Large supercomputers have no node-local disk; input data and any
out-of-core spill go through one shared substrate, which lives in
:mod:`repro.storage` (the one store, each storage spec's prices, and
the retry taxonomy).  This package holds only what the engines layer
on top of it: rank-splitting input readers (:mod:`repro.io.readers`,
:mod:`repro.io.splits`) and out-of-core spill streams
(:mod:`repro.io.spill`).
"""

from repro.io.spill import SpillReader, SpillWriter
from repro.io.splits import split_blocks, split_range, split_text

__all__ = [
    "SpillReader",
    "SpillWriter",
    "split_blocks",
    "split_range",
    "split_text",
]
