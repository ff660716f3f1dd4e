"""Crash-safety of the serve journal: framing, lineage, torn tails."""

import pytest

from repro.cluster import Cluster
from repro.ft.injection import ChaosPlan
from repro.mpi import COMET
from repro.serve.journal import BOOTSTRAP_NONCE, JournalError, ServeJournal


def fresh_pfs():
    return Cluster(COMET, nprocs=2).pfs


class TestJournalBasics:
    def test_fresh_journal_opens_empty(self):
        journal = ServeJournal(fresh_pfs())
        assert journal.open() == []
        assert journal.nonce is not None
        assert journal.size() > 0  # the header record

    def test_append_then_replay_roundtrip(self):
        pfs = fresh_pfs()
        journal = ServeJournal(pfs)
        journal.open()
        records = [{"type": "submit", "job_id": f"job-{i}", "seq": i}
                   for i in range(5)]
        for record in records:
            journal.append(record)

        replay = ServeJournal(pfs)
        assert replay.open() == records
        assert replay.nonce == journal.nonce
        assert replay.torn_tail_bytes == 0

    def test_append_before_open_refused(self):
        journal = ServeJournal(fresh_pfs())
        with pytest.raises(JournalError, match="not opened"):
            journal.append({"type": "submit"})

    def test_records_survive_many_generations(self):
        pfs = fresh_pfs()
        for generation in range(4):
            journal = ServeJournal(pfs)
            replayed = journal.open()
            assert len(replayed) == generation
            journal.append({"type": "submit", "gen": generation})


class TestTornTail:
    def seed(self, pfs, n=4):
        journal = ServeJournal(pfs)
        journal.open()
        for i in range(n):
            journal.append({"type": "submit", "seq": i})
        return journal

    @pytest.mark.parametrize("cut", [1, 3, 7, 20])
    def test_truncation_at_arbitrary_offsets_keeps_valid_prefix(self, cut):
        """Chopping bytes off the tail loses whole records, never
        corrupts: replay returns a strict prefix of the appended
        sequence."""
        pfs = fresh_pfs()
        self.seed(pfs)
        blob = pfs.fetch("serve/journal")
        pfs.store("serve/journal", blob[:-cut])

        replay = ServeJournal(pfs)
        records = replay.open()
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert len(records) < 4
        assert replay.torn_tail_bytes > 0

    def test_corrupt_middle_record_ends_replay_there(self):
        pfs = fresh_pfs()
        self.seed(pfs)
        blob = bytearray(pfs.fetch("serve/journal"))
        # Flip a bit well into the body (past header + first record).
        blob[len(blob) // 2] ^= 0x40
        pfs.store("serve/journal", bytes(blob))

        replay = ServeJournal(pfs)
        records = replay.open()
        assert len(records) < 4
        assert replay.torn_tail_bytes > 0

    def test_appends_after_torn_open_still_replay(self):
        pfs = fresh_pfs()
        self.seed(pfs, n=2)
        pfs.store("serve/journal", pfs.fetch("serve/journal")[:-3])

        second = ServeJournal(pfs)
        survivors = second.open()
        second.append({"type": "submit", "seq": 99})

        third = ServeJournal(pfs)
        records = third.open()
        assert records[-1]["seq"] == 99
        assert records[:-1] == survivors


class TestLineage:
    def test_foreign_journal_rejected(self):
        """A journal from a different lineage must fail loudly, not
        replay silently."""
        pfs_a, pfs_b = fresh_pfs(), fresh_pfs()
        ServeJournal(pfs_a).open()
        ServeJournal(pfs_b).open()
        pfs_b.store("serve/journal", pfs_a.fetch("serve/journal"))
        # pfs_b's journal now *is* lineage A; a fresh daemon adopts the
        # header it finds - that is legitimate (restart-from-backup).
        adopted = ServeJournal(pfs_b)
        adopted.open()
        assert adopted.nonce is not None

    def test_garbage_header_rejected(self):
        pfs = fresh_pfs()
        pfs.store("serve/journal", b"not a journal at all")
        with pytest.raises(JournalError, match="header"):
            ServeJournal(pfs).open()

    def test_bootstrap_nonce_is_stable_constant(self):
        # The header is only readable if this constant never changes.
        assert BOOTSTRAP_NONCE == "serve-journal-v1"


class TestChaosAppend:
    def test_torn_append_raises_and_is_discarded_on_replay(self):
        """A chaos-torn append stores a prefix and raises - the record
        was never acknowledged, so replay must not resurrect it."""
        pfs = fresh_pfs()
        journal = ServeJournal(pfs)
        journal.open()
        journal.append({"type": "submit", "seq": 0})

        chaos = ChaosPlan(seed=7, torn_write_rate=1.0,
                          corruptible_prefix="serve/")
        pfs.wire(chaos, None)           # the store's plan: every append
        torn = ServeJournal(pfs)
        torn.nonce = journal.nonce
        with pytest.raises(Exception):
            torn.append({"type": "submit", "seq": 1})
        pfs.wire(None, None)

        replay = ServeJournal(pfs)
        records = replay.open()
        assert [r["seq"] for r in records] == [0]
        assert replay.torn_tail_bytes > 0

    def test_dump_writes_artifact(self, tmp_path):
        pfs = fresh_pfs()
        journal = ServeJournal(pfs)
        journal.open()
        journal.append({"type": "submit", "seq": 0})
        out = tmp_path / "journal.bin"
        nbytes = journal.dump(str(out))
        assert out.stat().st_size == nbytes == journal.size()
