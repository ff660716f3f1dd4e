"""MR-MPI's single-page-plus-spill data objects.

An MR-MPI data object (the KV or KMV of one phase) owns exactly one
in-memory page.  Records are appended to the page; when the page fills,
the object's out-of-core mode decides what happens: spill the page to
the PFS and keep going (``WHEN_FULL``), ditto but also flush at
finalize (``ALWAYS``), or abort (``ERROR``).  Readers stream the
spilled chunks back (paying PFS read costs) followed by the resident
page - so an object that spilled is dramatically slower to re-scan,
which is the mechanism behind the paper's Figure 1.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

from repro.cluster import RankEnv
from repro.core.batch import KVBatch
from repro.core.records import KVLayout
from repro.io.spill import SpillWriter
from repro.memory.pages import Page, PagePool
from repro.mrmpi.config import OutOfCoreMode
from repro.mrmpi.errors import PageOverflowError


class PagedObject:
    """One page of records with spill overflow (an MR-MPI "KV"/"KMV")."""

    def __init__(self, env: RankEnv, pool: PagePool, name: str,
                 mode: OutOfCoreMode, layout: KVLayout | None = None,
                 tag: str | None = None):
        self.env = env
        self.pool = pool
        self.name = name
        self.mode = mode
        self.layout = layout or KVLayout()
        self.page: Page | None = pool.acquire(tag or name)
        self.spill: SpillWriter | None = None
        self.nrecords = 0
        self.nbytes = 0
        #: Size of the largest record that went to the spill file on
        #: its own, being larger than a page (0: none).
        self.oversized = 0

    # ------------------------------------------------------------- insert

    def add_run(self, keys, values) -> None:
        """Encode and append one block of records."""
        records = self.layout.encode_run(keys, values)
        self.extend_encoded(b"".join(records),
                            np.cumsum([0, *map(len, records)]))

    def append_kv(self, key: bytes, value: bytes) -> None:
        self.add_run([key], [value])

    def extend_encoded(self, data: bytes, roff=None) -> None:
        """Append a packed run of records (``roff``: their offsets, as
        :meth:`KVLayout.scan` gives them, if the caller holds them).

        Pages are cut where per-record appends cut them, by core's
        page cutter (:meth:`KVLayout.fit`): a record that does not fit
        the page's free space spills the page first, and one larger than
        a page - e.g. the KMV of a very frequent key - then goes
        straight to the spill file as its own chunk, as MR-MPI handles
        it out of core.
        """
        page, view, start = self._require_page(), memoryview(data), 0
        while start < len(data):
            stop, n = self.layout.fit(data, start, page.remaining, roff)
            if not n:
                size = self.layout.record_end(data, start, roff) - start
                if self.mode is OutOfCoreMode.ERROR:
                    raise PageOverflowError(self.name if size <= page.size
                                            else f"{self.name} (single "
                                            f"record of {size} bytes)",
                                            page.size)
                self._spill_page()
                if size <= page.size:
                    continue
                stop, n = start + size, 1
                self._spill(view[start:stop])
                self.oversized = max(self.oversized, size)
            else:
                page.write(view[start:stop])
            self.nrecords += n
            self.nbytes += stop - start
            start = stop

    def _spill(self, chunk) -> None:
        if self.spill is None:
            self.spill = SpillWriter(self.env.pfs, self.env.comm, self.name)
        self.spill.write_chunk(chunk)

    def _spill_page(self) -> None:
        page = self._require_page()
        if page.used:
            self._spill(page.view)
            page.clear()

    def finalize(self) -> None:
        """End of the producing phase (``ALWAYS`` mode flushes here)."""
        if self.mode is OutOfCoreMode.ALWAYS:
            self._spill_page()

    # ------------------------------------------------------------ reading

    @property
    def spilled(self) -> bool:
        return self.spill is not None

    @property
    def spilled_bytes(self) -> int:
        return self.spill.total_bytes if self.spill else 0

    def chunks(self) -> Iterator[bytes]:
        """Stream the data: spilled chunks (PFS reads), then the page."""
        if self.spill is not None:
            yield from self.spill.reader()
        page = self._require_page()
        if page.used:
            yield bytes(page.view)

    def batches(self) -> Iterator[KVBatch]:
        """:meth:`chunks` as :class:`KVBatch` columns."""
        for chunk in self.chunks():
            yield KVBatch(chunk, self.layout)

    def records(self) -> Iterator[tuple[bytes, bytes]]:
        """Every record in insertion order."""
        return chain.from_iterable(map(KVBatch.pairs_bytes, self.batches()))

    # ------------------------------------------------------------- manage

    def _require_page(self) -> Page:
        if self.page is None:
            raise ValueError(f"PagedObject {self.name!r} already freed")
        return self.page

    def free(self) -> None:
        """Release the page and any spill file."""
        if self.page is not None:
            self.pool.release(self.page)
            self.page = None
        if self.spill is not None:
            self.spill.discard()
            self.spill = None
        self.nrecords = 0
        self.nbytes = 0
        self.oversized = 0

    def __len__(self) -> int:
        return self.nrecords

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PagedObject({self.name!r}, nrecords={self.nrecords}, "
                f"spilled={self.spilled})")
