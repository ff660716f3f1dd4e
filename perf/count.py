"""Exact work counts: Python and C call events inside ``src/repro``.

A job's wall time on this host moves by tens of percent from run to
run; the number of calls it makes does not move at all.  The counted
rep runs the job once under ``sys.setprofile`` (and
``threading.setprofile`` for the rank threads) and counts every
``call`` and ``c_call`` event whose executing frame belongs to a file
under ``src/repro`` - for ``call`` that is the function being entered,
for ``c_call`` the Python function making the call.  Counts are kept
per thread and per module, so the harness can say both "how many
interpreter-level calls does one input record cost" and "which module
makes them".
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: Module prefix (relative to ``src/repro``, dotted) -> layer.  The
#: first matching prefix wins; the layer is the stem of the
#: ``<layer>.calls_per_record`` per-layer metric.  Modules matching no
#: prefix are reported under :data:`OTHER` so the per-layer values
#: always sum to the end-to-end ``calls_per_record``.
MODULE_LAYERS: list[tuple[str, str]] = [
    ("io.readers", "io.readers"),
    ("io.splits", "io.readers"),
    ("io.spill", "io.spill"),
    ("io", "storage"),              # io.pfs, io.errors: the PFS backend
    ("storage", "storage"),
    ("apps", "apps"),
    ("core.job", "core.job"),
    ("core.shuffle", "core.shuffle"),
    ("core.records", "core.records"),
    ("core.batch", "core.records"),  # columnar views over record runs
    ("core.kvcontainer", "core.kvcontainer"),
    ("core.convert", "core.convert"),
    ("core.kmvcontainer", "core.kmvcontainer"),
    ("core.bucket", "core.bucket"),
    ("core.combiner", "core.combiner"),
    ("core.partial_reduction", "core.partial_reduction"),
    ("core.codec", "core.codec"),
    ("core.sort", "core.sort"),
    ("mpi", "mpi.comm"),
    ("memory", "memory"),
    ("obs", "obs"),
    ("tools", "obs"),               # tools.trace / tools.timeline event sinks
    ("core.metrics", "obs"),
    ("cluster", "cluster"),
    ("sched", "sched"),
    ("serve", "serve"),
]
OTHER = "perf.other"

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, layer in MODULE_LAYERS] + [OTHER]))


def layer_of(module: str) -> str:
    """The layer a dotted module path (relative to ``repro``) counts under."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


class CallCounts:
    """What one counted rep saw; read it after the block has ended."""

    def __init__(self, package_dir: Path):
        self._root = str(package_dir) + "/"
        #: One raw ``filename -> events`` table per thread.
        self._tables: list[dict[str, int]] = []

    def _module(self, filename: str) -> str:
        """``<package>/core/job.py`` -> ``core.job`` (``__init__`` dropped)."""
        dotted = filename[len(self._root):-len(".py")].replace("/", ".")
        return dotted.removesuffix("__init__").rstrip(".")

    @property
    def per_thread(self) -> list[dict[str, int]]:
        """thread -> module -> events, files under the package only."""
        return [{self._module(filename): events
                 for filename, events in table.items()
                 if filename.startswith(self._root)}
                for table in self._tables]

    @property
    def by_module(self) -> dict[str, int]:
        merged: dict[str, int] = defaultdict(int)
        for table in self.per_thread:
            for module, events in table.items():
                merged[module] += events
        return dict(merged)

    @property
    def by_layer(self) -> dict[str, int]:
        merged = dict.fromkeys(LAYERS, 0)
        for module, events in self.by_module.items():
            merged[layer_of(module)] += events
        return merged

    @property
    def total(self) -> int:
        return sum(self.by_module.values())


@contextmanager
def counting(package_dir: Path) -> Iterator[CallCounts]:
    """Count call events in ``package_dir``'s files while the block runs.

    Each thread counts into its own table (no shared state on the hot
    path): the hook installed with ``threading.setprofile`` runs once
    per new thread and replaces itself with that thread's counter.
    """
    counts = CallCounts(package_dir)
    lock = threading.Lock()

    def make_counter():
        table: dict[str, int] = defaultdict(int)
        with lock:
            counts._tables.append(table)

        def on_event(frame, event, arg):
            if event == "call" or event == "c_call":
                table[frame.f_code.co_filename] += 1

        return on_event

    def thread_hook(frame, event, arg):
        counter = make_counter()
        sys.setprofile(counter)
        counter(frame, event, arg)

    threading.setprofile(thread_hook)
    sys.setprofile(make_counter())
    try:
        yield counts
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
