"""Phase-level checkpoints on the parallel file system.

A checkpoint of a phase is the concatenated encoded records of each
rank's output KVC, written to ``ckpt/<job>/<phase>.<rank>``, plus a
per-rank completion marker written *after* a barrier - so a marker's
existence proves every rank's data reached the PFS.  Loading a
checkpoint replays the bytes into an empty KVC the job made (charging
PFS reads), exactly what a restarted rank would do.

A save is also a fault point: a death scheduled at
``ckpt:<phase>:precommit`` fires between its data and marker writes.

Checkpoints are **never trusted blindly**.  Every file (data and
marker) is length-framed with a format-version header, stamped with
the run's *nonce*, and CRC32-checksummed::

    b"RCKP" | version u16 | nonce_len u16 | nonce | payload_len u64
           | crc32 u32 | payload

A torn write (crash mid-write), a flipped bit, or a stale file left by
a previous run with a reused job id all fail validation; ``has()``
then reports the phase incomplete and the job transparently recomputes
it instead of silently replaying bad bytes.  Detections are reported
through the attached failure log.  All PFS traffic goes through
:func:`~repro.storage.errors.retrying`, so transient I/O hiccups cost
virtual backoff time instead of killing the rank.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Callable

from repro.cluster import RankEnv
from repro.core.batch import KVBatch
from repro.core.job import Mimir
from repro.core.kvcontainer import KVContainer
from repro.core.records import KVLayout
from repro.io.splits import split_range
from repro.storage.errors import retrying

#: On-disk format: magic, version, and the fixed header tails.
CKPT_MAGIC = b"RCKP"
CKPT_VERSION = 1
_HEAD = struct.Struct("<HH")   # version, nonce length
_TAIL = struct.Struct("<QI")   # payload length, crc32


class CheckpointError(RuntimeError):
    """Base class for checkpoint validation failures."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed integrity validation (torn/corrupt)."""


class CheckpointStaleError(CheckpointError):
    """A structurally valid checkpoint stamped by a *different* run."""


class CheckpointNotFoundError(CheckpointError, KeyError):
    """No completed, valid checkpoint exists for the requested phase."""

    def __init__(self, phase: str):
        self.phase = phase
        msg = f"no completed checkpoint for phase {phase!r}"
        self._msg = msg
        super().__init__(msg)

    def __str__(self) -> str:
        return self._msg


def frame(payload: bytes, nonce: str) -> bytes:
    """Wrap ``payload`` in the checksummed checkpoint envelope."""
    encoded = nonce.encode()
    return (CKPT_MAGIC + _HEAD.pack(CKPT_VERSION, len(encoded)) + encoded
            + _TAIL.pack(len(payload), zlib.crc32(payload)) + payload)


def _marker_nparts(payload: bytes) -> int:
    """Partition count a completion marker declares (``b"ok:<n>"``).

    The declared gang size is what lets :meth:`CheckpointManager.
    agreed_partitions` tell a *complete* ``k``-rank checkpoint apart
    from a *partial* ``n``-rank one (``n > k``) whose save died after
    ``k`` marker writes - the two leave identical valid-partition
    prefixes otherwise.  Raises :class:`CheckpointCorruptError` for
    any other payload (a count of more than nine digits included: no
    gang is that large, and ``int`` refuses very long digit strings).
    """
    head, _sep, count = payload.partition(b":")
    if head != b"ok" or not count.isdigit() or len(count) > 9:
        raise CheckpointCorruptError(f"marker payload {payload!r}")
    return int(count)


def _agree(a: int, b: int) -> int:
    """Reduction for a count every rank must agree on: the common
    value, or 0 when any two ranks differ."""
    return a if a == b else 0


def unframe_at(blob: bytes, offset: int, nonce: str) -> tuple[bytes, int]:
    """Validate the frame starting at ``offset``; ``(payload, size)``.

    Frames are self-delimiting (the header names the nonce length, the
    tail the payload length), so a journal of concatenated frames is
    read by calling this at each frame's end.  Raises
    :class:`CheckpointCorruptError` on any structural or checksum
    failure and :class:`CheckpointStaleError` when the frame was
    stamped by a different run (reused job id).
    """
    head_len = len(CKPT_MAGIC) + _HEAD.size
    if len(blob) - offset < head_len:
        raise CheckpointCorruptError(
            f"truncated header ({len(blob) - offset} bytes)")
    magic = blob[offset:offset + len(CKPT_MAGIC)]
    if magic != CKPT_MAGIC:
        raise CheckpointCorruptError(f"bad magic {magic!r}")
    version, nonce_len = _HEAD.unpack_from(blob, offset + len(CKPT_MAGIC))
    if version != CKPT_VERSION:
        raise CheckpointCorruptError(
            f"unsupported format version {version}")
    body = offset + head_len + nonce_len
    if len(blob) < body + _TAIL.size:
        raise CheckpointCorruptError("truncated frame")
    stamped = blob[offset + head_len:body].decode(errors="replace")
    payload_len, crc = _TAIL.unpack_from(blob, body)
    start = body + _TAIL.size
    payload = blob[start:start + payload_len]
    if len(payload) != payload_len:
        raise CheckpointCorruptError(
            f"payload length {len(payload)} != framed {payload_len} "
            "(torn write)")
    if zlib.crc32(payload) != crc:
        raise CheckpointCorruptError("payload CRC mismatch (corruption)")
    if stamped != nonce:
        raise CheckpointStaleError(
            f"checkpoint stamped by run {stamped!r}, expected {nonce!r}")
    return payload, start + payload_len - offset


def unframe(blob: bytes, nonce: str) -> bytes:
    """The payload of ``blob``, which must be exactly one frame (see
    :func:`unframe_at`; trailing bytes are corruption too)."""
    payload, size = unframe_at(blob, 0, nonce)
    if size != len(blob):
        raise CheckpointCorruptError(
            f"{len(blob) - size} bytes after the framed payload")
    return payload


class CheckpointManager:
    """One rank's view of a job's checkpoint directory.

    ``nonce`` identifies the run (cluster configuration + launch) that
    owns these checkpoints; it defaults to ``job_id`` for standalone
    use.  ``failure_log`` collects retry/validation events for
    :class:`repro.ft.runner.FTResult`.
    """

    def __init__(self, env: RankEnv, job_id: str, *,
                 nonce: str | None = None,
                 failure_log: list | None = None):
        self.env = env
        self.job_id = job_id
        self.nonce = nonce if nonce is not None else job_id
        self.failure_log = failure_log if failure_log is not None else []
        self.bytes_written = 0
        self.bytes_read = 0

    # ------------------------------------------------------------- paths

    def _data_path(self, phase: str, part: int | None = None) -> str:
        part = self.env.comm.rank if part is None else part
        return f"ckpt/{self.job_id}/{phase}.{part}"

    def _marker_path(self, phase: str, part: int | None = None) -> str:
        part = self.env.comm.rank if part is None else part
        return f"ckpt/{self.job_id}/{phase}.done.{part}"

    # ---------------------------------------------------------- plumbing

    def _report(self, kind: str, message: str) -> None:
        # Imported lazily: runner imports this module.
        from repro.ft.runner import FailureRecord

        if kind in ("ckpt-invalid", "ckpt-stale"):
            self.env.metrics.inc("ft.checkpoint.invalid")
        self.failure_log.append(
            FailureRecord(attempt=0, rank=self.env.comm.rank,
                          kind=kind, message=message))

    def _reject(self, path: str, exc: CheckpointError) -> None:
        stale = isinstance(exc, CheckpointStaleError)
        self._report("ckpt-stale" if stale else "ckpt-invalid",
                     f"{path!r}: {exc}")

    def _retrying_write(self, path: str, payload: bytes) -> None:
        comm = self.env.comm

        def on_retry(attempt: int, exc) -> None:
            self._report("retry", f"write {path!r} attempt {attempt}: {exc}")

        retrying(comm, lambda: self.env.pfs.write(comm, path, payload),
                 on_retry=on_retry)

    def _retrying_read(self, path: str) -> bytes:
        comm = self.env.comm

        def on_retry(attempt: int, exc) -> None:
            self._report("retry", f"read {path!r} attempt {attempt}: {exc}")

        return retrying(comm, lambda: self.env.pfs.read(comm, path),
                        on_retry=on_retry)

    # ----------------------------------------------------------- queries

    def _valid_local(self, phase: str, part: int | None = None,
                     nparts: int | None = None) -> bool:
        """Partition ``part``'s data + marker exist and pass validation.

        ``part`` defaults to this rank's own partition.  ``nparts``
        requires the marker to *declare* exactly that many partitions
        (see :func:`_marker_nparts`); a mismatch means the marker is a
        stale leftover from a save at a different gang size, so the
        partition is rejected.  Inspection is cost-free (``fetch``):
        deciding whether to restore is a metadata scan; the charged
        read happens in ``load_*``.  Invalid files are *reported*,
        never trusted.
        """
        pfs = self.env.pfs
        marker = self._marker_path(phase, part)
        data = self._data_path(phase, part)
        if not (pfs.exists(marker) and pfs.exists(data)):
            return False
        for path, is_marker in ((marker, True), (data, False)):
            try:
                payload = unframe(pfs.fetch(path), self.nonce)
                if is_marker:
                    declared = _marker_nparts(payload)
                    if nparts is not None and declared != nparts:
                        self._report(
                            "ckpt-geometry",
                            f"{path!r}: declares {declared} partitions, "
                            f"expected {nparts}")
                        return False
            except CheckpointError as exc:
                self._reject(path, exc)
                return False
        return True

    def has(self, phase: str) -> bool:
        """Whether this phase completed on *every* rank (collective call).

        A failure can interleave with marker writes so that only some
        ranks' markers reached the PFS - or a marker can exist over a
        torn/corrupt/stale data file.  Deciding completion with an
        agreement (logical AND over local *validation*, not mere
        existence) guarantees every rank takes the same restart path; a
        partial or invalid checkpoint is simply recomputed and
        overwritten.
        """
        return self.env.comm.all_true(
            self._valid_local(phase, nparts=self.env.comm.size))

    # ----------------------------------------------- membership rebalance

    def agreed_partitions(self, phase: str) -> int:
        """How many partitions a completed checkpoint was written with,
        agreed by every rank (collective call); 0 when the phase never
        completed.

        A checkpoint written by a gang of ``n`` ranks leaves valid
        data + marker pairs for partitions ``0..n-1``, every marker
        declaring ``n``; partition 0's marker names ``n`` even after the
        gang size changed.  Each rank validates only the partitions it
        will read - its ``split_range`` block of the ``n``, which is its
        own partition at an unchanged size - so every partition is
        validated by one rank, once, and one agreement covers them all.
        A missing partition, or a marker declaring a different geometry
        (a stale leftover of a save at another gang size), invalidates
        the whole phase.
        """
        comm = self.env.comm
        nparts = self._declared_partitions(phase)
        valid = nparts > 0 and all(
            self._valid_local(phase, part, nparts=nparts)
            for part in range(*split_range(nparts, comm.rank, comm.size)))
        return comm.allreduce(nparts if valid else 0, _agree)

    def _declared_partitions(self, phase: str) -> int:
        """The partition count partition 0's marker declares; 0 when it
        is missing or invalid (reported by rank 0 alone, which reads
        partition 0)."""
        pfs = self.env.pfs
        marker0 = self._marker_path(phase, 0)
        if not pfs.exists(marker0):
            return 0
        try:
            return _marker_nparts(unframe(pfs.fetch(marker0), self.nonce))
        except CheckpointError as exc:
            if self.env.comm.rank == 0:
                self._reject(marker0, exc)
            return 0

    def read_partition(self, phase: str, part: int) -> bytes:
        """Validated payload of one partition, regardless of owner rank:
        a restore's charged read (transient errors retried), once the
        ranks agreed the phase is complete."""
        blob = self._retrying_read(self._data_path(phase, part))
        self.bytes_read += len(blob)
        return unframe(blob, self.nonce)

    # -------------------------------------------------------------- save

    def _save(self, phase: str, payload: bytes) -> None:
        framed = frame(payload, self.nonce)
        # Withdraw this rank's marker before its data changes: a save
        # that dies from here on can never leave an earlier save's
        # markers vouching for a mix of old and new partitions.
        self.env.pfs.delete(self._marker_path(phase))
        self._retrying_write(self._data_path(phase), framed)
        self.bytes_written += len(framed)
        self.env.comm.barrier()
        # The commit point: data is durable everywhere, markers are
        # not yet written.  A crash here must leave ``has()`` false.
        # Only a death fires here (from the cluster's plan): a due
        # membership leave waits for the stage boundary after the commit.
        chaos = self.env.pfs.chaos
        if chaos is not None:
            chaos.check(f"ckpt:{phase}:precommit", self.env.comm.rank)
        self._retrying_write(
            self._marker_path(phase),
            frame(b"ok:%d" % self.env.comm.size, self.nonce))
        self.env.comm.barrier()
        self.env.metrics.inc("ft.checkpoint.saves")

    def save_kvc(self, phase: str, kvc: KVContainer) -> None:
        """Persist a phase's KVC output; collective (all ranks call).

        Two-phase commit: markers are written only after every rank's
        data is durable, and the trailing barrier means that once
        ``save_kvc`` returns *anywhere*, every marker is on the PFS -
        a later failure cannot leave a half-committed checkpoint.
        """
        self._save(phase, b"".join(kvc.chunks()))

    def save_state(self, phase: str, state: object) -> None:
        """Persist small picklable control state (e.g. loop counters)."""
        self._save(phase, pickle.dumps(state))

    # -------------------------------------------------------------- load

    def _load(self, phase: str) -> bytes:
        if not self.has(phase):
            raise CheckpointNotFoundError(phase)
        payload = self.read_partition(phase, self.env.comm.rank)
        self.env.metrics.inc("ft.checkpoint.restores")
        return payload

    def load_kvc(self, phase: str, into: KVContainer) -> KVContainer:
        """Refill ``into`` - an empty container its job made (see
        :meth:`repro.core.job.Mimir.container`) - with this rank's
        records of a completed checkpoint; returns it."""
        into.extend_encoded(self._load(phase))
        return into

    def load_state(self, phase: str) -> object:
        return pickle.loads(self._load(phase))

    # ------------------------------------------------------------- purge

    def clear(self) -> None:
        """Drop every checkpoint of this job; collective (all ranks call).

        Rank 0 alone deletes after a barrier, so post-success cleanup
        cannot race another rank still listing or reading the
        directory; the trailing barrier keeps survivors from recreating
        files mid-sweep.
        """
        comm = self.env.comm
        comm.barrier()
        if comm.rank == 0:
            for path in self.env.pfs.listdir(f"ckpt/{self.job_id}/"):
                self.env.pfs.delete(path)
        comm.barrier()


def restore_rebalanced(mimir: Mimir, ckpt: CheckpointManager, phase: str,
                       layout: KVLayout, tag: str, *,
                       partitioner: Callable[[bytes, int], int] | None = None,
                       map_output: bool = True) -> KVContainer | None:
    """Restore a phase checkpoint into a new container of the job, at
    the job's gang size whatever size wrote it; ``None`` on every rank
    when it cannot be restored here (the caller recomputes).

    The ranks agree on the partition count (:meth:`CheckpointManager.
    agreed_partitions`, one collective), then read each partition once.
    At the same size a rank reads its own into ``mimir.map_output``
    (``mimir.container`` unless ``map_output``).  After a size change
    only a map output comes back: ``partitioner`` placed its records,
    so each rank re-emits a contiguous block of the old partitions
    through the job's shuffle and that partitioner.  Any other output
    returns ``None``: a reduce's keys were placed by an upstream
    shuffle, and a local sort's order would not survive re-routing.
    """
    comm = mimir.env.comm
    nparts = ckpt.agreed_partitions(phase)
    if nparts == 0 or (nparts != comm.size and not map_output):
        return None
    if nparts == comm.size:
        make = mimir.map_output if map_output else mimir.container
        out = make(layout, tag)
        out.extend_encoded(ckpt.read_partition(phase, comm.rank))
    else:
        out = mimir.map_items(
            range(*split_range(nparts, comm.rank, comm.size)),
            lambda mctx, part: mctx.emit_batch(
                KVBatch(ckpt.read_partition(phase, part), layout)),
            partitioner=partitioner, layout=layout, out_tag=tag)
    mimir.env.metrics.inc("ft.checkpoint.restores")
    return out
