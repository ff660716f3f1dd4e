"""Crash-safe append-only job journal on the simulated PFS.

Every state transition the service promises to remember - an input
registered, a job submitted, admitted, finished, cancelled, or
garbage-collected - is appended to one journal file *before* the
transition is acknowledged to the client.  A daemon that dies at any
instant can therefore be restarted over the same PFS and replayed to
the exact pre-crash queue/running/done state.

Records reuse the PR 1 checkpoint envelope (:func:`repro.ft.checkpoint.
frame` / :func:`~repro.ft.checkpoint.unframe_at`): each record is a JSON
payload wrapped in the CRC32-checksummed, length-framed, nonce-stamped
frame, and frames are simply concatenated.  The frame is
self-delimiting, so replay scans the file sequentially; the first
record that fails validation (a torn tail left by a crash mid-append)
ends the replay - everything before it is trusted, everything at and
after it never happened.  The journal's nonce is generated once, on
first open, and persisted in a header record framed with a well-known
bootstrap nonce; restarted daemons inherit it, while a journal file
swapped in from a different service lineage fails validation instead
of being silently replayed.

The journal lives on the PFS because the PFS models the storage that
*survives* a daemon crash (exactly like checkpoints); writes go
through the zero-cost staging path - the daemon is a driver process,
not a rank, so it has no virtual clock to charge.  The store's chaos
plan (the cluster's) is consulted on every append through the same
``on_write`` hook the PFS uses, so torn journal appends are injectable.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Iterator

from repro.ft.checkpoint import (
    CheckpointError,
    CheckpointStaleError,
    frame,
    unframe_at,
)

#: Nonce that stamps the journal's *header* record only; the header's
#: payload carries the per-lineage nonce stamping every later record.
BOOTSTRAP_NONCE = "serve-journal-v1"

#: Distinguishes journal lineages created in one process (tests create
#: many); combined with the PFS object's id it is unique enough for a
#: simulation - a real deployment would use a UUID.
_LINEAGE_SEQ = itertools.count(1)


class JournalError(RuntimeError):
    """The journal file belongs to a different service lineage."""


class _DriverComm:
    """Minimal comm stand-in for chaos hooks: the daemon is rank -1."""

    rank = -1

    def __init__(self, metrics: Any = None):
        self.metrics = metrics


class ServeJournal:
    """One service's append-only journal at ``path`` on ``pfs``.

    ``metrics`` is an optional :class:`~repro.obs.registry.MetricShard`
    (the driver shard).  Appends consult the store's chaos plan
    (``pfs.chaos``, the cluster's one plan), if it has one.
    """

    def __init__(self, pfs, path: str = "serve/journal", *,
                 metrics: Any = None):
        self.pfs = pfs
        self.path = path
        self.metrics = metrics
        self._comm = _DriverComm(metrics)
        self.nonce: str | None = None
        self.torn_tail_bytes = 0

    # ----------------------------------------------------------- opening

    def open(self) -> list[dict[str, Any]]:
        """Open (creating if absent) and return every valid record.

        A fresh journal writes its header; an existing one validates
        the header, adopts its lineage nonce, and replays the body.
        The count of replayed records is emitted as
        ``serve.journal.replays``.
        """
        if not self.pfs.exists(self.path):
            self.nonce = f"serve/{id(self.pfs):x}/{next(_LINEAGE_SEQ)}"
            header = frame(json.dumps({"nonce": self.nonce}).encode(),
                           BOOTSTRAP_NONCE)
            self.pfs.store(self.path, header)
            return []
        records = list(self._scan())
        if self.torn_tail_bytes:
            # Truncate the torn tail so future appends extend the valid
            # prefix instead of landing unreachable behind garbage.
            blob = self.pfs.fetch(self.path)
            self.pfs.store(self.path, blob[:-self.torn_tail_bytes])
        if self.metrics is not None:
            self.metrics.inc("serve.journal.replays", len(records))
        return records

    def _scan(self) -> Iterator[dict[str, Any]]:
        blob = self.pfs.fetch(self.path)
        offset = 0
        first = True
        while offset < len(blob):
            nonce = BOOTSTRAP_NONCE if first else self.nonce
            try:
                payload, consumed = unframe_at(blob, offset, nonce)
            except CheckpointStaleError as exc:
                if first:
                    raise JournalError(
                        f"journal header at {self.path!r} belongs to a "
                        f"different lineage: {exc}") from exc
                # A record from another lineage mid-file: corruption of
                # the worst kind - stop trusting the file here.
                self.torn_tail_bytes = len(blob) - offset
                return
            except CheckpointError as exc:
                if first:
                    # A journal file whose header cannot be read is not
                    # a journal: refuse to serve rather than silently
                    # starting a new lineage over unknown state.
                    raise JournalError(
                        f"journal at {self.path!r} has an unreadable "
                        f"header: {exc}") from exc
                # Torn tail (crash mid-append): valid prefix wins.
                self.torn_tail_bytes = len(blob) - offset
                return
            offset += consumed
            record = json.loads(payload)
            if first:
                self.nonce = record["nonce"]
                first = False
            else:
                yield record

    # ---------------------------------------------------------- appending

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record; raises before acknowledging.

        Under chaos injection the append may land torn (the stored
        frame is a prefix) with the crash exception raised *after* the
        bytes hit the PFS - exactly a daemon dying mid-append.  A torn
        record fails CRC validation on replay and is discarded, so an
        un-acknowledged transition never resurrects.
        """
        if self.nonce is None:
            raise JournalError("journal not opened")
        framed = frame(json.dumps(record, sort_keys=True).encode(),
                       self.nonce)
        raise_after = None
        chaos = self.pfs.chaos
        if chaos is not None:
            framed, raise_after = chaos.on_write(self._comm, self.path,
                                                 framed)
        blob = self.pfs.fetch(self.path) + framed
        self.pfs.store(self.path, blob)
        if raise_after is not None:
            raise raise_after
        if self.metrics is not None:
            self.metrics.inc("serve.journal.records")

    # ---------------------------------------------------------- inspection

    def size(self) -> int:
        return self.pfs.size(self.path) if self.pfs.exists(self.path) else 0

    def dump(self, filename: str) -> int:
        """Copy the raw journal to a real file (CI artifact); bytes."""
        blob = self.pfs.fetch(self.path)
        with open(filename, "wb") as fh:
            fh.write(blob)
        return len(blob)
