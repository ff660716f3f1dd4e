"""Phase-level checkpoints on the parallel file system.

A checkpoint of a phase is the concatenated encoded records of each
rank's output KVC, written to ``ckpt/<job>/<phase>.<rank>``, plus a
per-rank completion marker written *after* a barrier - so a marker's
existence proves every rank's data reached the PFS.  Loading a
checkpoint replays the bytes into an empty KVC the job made (charging
PFS reads), exactly what a restarted rank would do.

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

from repro.cluster import RankEnv
from repro.core.kvcontainer import KVContainer
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
    partition_count` tell a *complete* ``k``-rank checkpoint apart
    from a *partial* ``n``-rank one (``n > k``) whose save died after
    ``k`` marker writes - the two leave identical valid-partition
    prefixes otherwise.  Raises :class:`CheckpointCorruptError` for
    any other payload.
    """
    head, _sep, count = payload.partition(b":")
    if head != b"ok" or not count.isdigit():
        raise CheckpointCorruptError(f"marker payload {payload!r}")
    return int(count)


def unframe(blob: bytes, nonce: str) -> bytes:
    """Validate the envelope and return the payload.

    Raises :class:`CheckpointCorruptError` on any structural or
    checksum failure and :class:`CheckpointStaleError` when the frame
    was stamped by a different run (reused job id).
    """
    head_len = len(CKPT_MAGIC) + _HEAD.size
    if len(blob) < head_len:
        raise CheckpointCorruptError(
            f"truncated header ({len(blob)} bytes)")
    if blob[:len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointCorruptError(
            f"bad magic {blob[:len(CKPT_MAGIC)]!r}")
    version, nonce_len = _HEAD.unpack_from(blob, len(CKPT_MAGIC))
    if version != CKPT_VERSION:
        raise CheckpointCorruptError(
            f"unsupported format version {version}")
    body = head_len + nonce_len
    if len(blob) < body + _TAIL.size:
        raise CheckpointCorruptError("truncated frame")
    stamped = blob[head_len:body].decode(errors="replace")
    payload_len, crc = _TAIL.unpack_from(blob, body)
    payload = blob[body + _TAIL.size:]
    if len(payload) != payload_len:
        raise CheckpointCorruptError(
            f"payload length {len(payload)} != framed {payload_len} "
            "(torn write)")
    if zlib.crc32(payload) != crc:
        raise CheckpointCorruptError("payload CRC mismatch (corruption)")
    if stamped != nonce:
        raise CheckpointStaleError(
            f"checkpoint stamped by run {stamped!r}, expected {nonce!r}")
    return payload


class CheckpointManager:
    """One rank's view of a job's checkpoint directory.

    ``nonce`` identifies the run (cluster configuration + launch) that
    owns these checkpoints; it defaults to ``job_id`` for standalone
    use.  ``faults`` is an optional injection plan consulted at the
    commit point between data and marker writes, and ``failure_log``
    collects retry/validation events for :class:`repro.ft.runner.
    FTResult`.
    """

    def __init__(self, env: RankEnv, job_id: str, *,
                 nonce: str | None = None,
                 faults=None,
                 failure_log: list | None = None):
        self.env = env
        self.job_id = job_id
        self.nonce = nonce if nonce is not None else job_id
        self.faults = faults
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
            except CheckpointStaleError as exc:
                self._report("ckpt-stale", f"{path!r}: {exc}")
                return False
            except CheckpointError as exc:
                self._report("ckpt-invalid", f"{path!r}: {exc}")
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

    def partition_count(self, phase: str) -> int:
        """How many partitions a completed checkpoint was written with.

        A checkpoint written by a gang of ``n`` ranks leaves valid
        data + marker pairs for partitions ``0..n-1``, every marker
        declaring ``n``.  Partition 0's marker names the geometry;
        validating all ``n`` declared partitions against it (pure
        metadata scans against the shared PFS, so every rank computes
        the same answer without communicating) recovers ``n`` even
        after the gang size changed - the discovery step of shard
        re-balancing on membership change.  Returns 0 when the phase
        never completed: a missing partition, or a marker declaring a
        different geometry (a save that died between its data and
        marker barriers leaves the previous gang size's markers over
        partitions ``0..k``, which must *not* pass for a complete
        ``k+1``-rank checkpoint), invalidates the whole phase.
        """
        pfs = self.env.pfs
        marker0 = self._marker_path(phase, 0)
        if not pfs.exists(marker0):
            return 0
        try:
            declared = _marker_nparts(unframe(pfs.fetch(marker0),
                                              self.nonce))
        except CheckpointError as exc:
            self._report("ckpt-invalid", f"{marker0!r}: {exc}")
            return 0
        if declared <= 0:
            return 0
        if all(self._valid_local(phase, part, nparts=declared)
               for part in range(declared)):
            return declared
        return 0

    def read_partition(self, phase: str, part: int) -> bytes:
        """Validated payload of one partition, regardless of owner rank.

        The restore side of re-balancing: after a membership change,
        each surviving rank reads a contiguous block of the *old*
        partitions (charged PFS reads, transient errors retried) and
        re-shuffles their records to the new gang.
        """
        blob = self._retrying_read(self._data_path(phase, part))
        self.bytes_read += len(blob)
        return unframe(blob, self.nonce)

    # -------------------------------------------------------------- save

    def _save(self, phase: str, payload: bytes) -> None:
        framed = frame(payload, self.nonce)
        self._retrying_write(self._data_path(phase), framed)
        self.bytes_written += len(framed)
        self.env.comm.barrier()
        # The commit point: data is durable everywhere, markers are
        # not yet written.  A crash here must leave ``has()`` false.
        if self.faults is not None:
            self.faults.check(f"ckpt:{phase}:precommit", self.env.comm.rank)
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
        blob = self._retrying_read(self._data_path(phase))
        self.bytes_read += len(blob)
        self.env.metrics.inc("ft.checkpoint.restores")
        return unframe(blob, self.nonce)

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
