"""Storage backends: protocol semantics, cross-backend bit-identity,
external sort beyond the memory budget, and the stage-cache spill
regressions."""

import pickle
from dataclasses import replace

import pytest

from repro.apps.terasort import (
    RECORD_SIZE,
    TS_LAYOUT,
    generate_records,
    terasort_mimir,
    validate_output,
)
from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64
from repro.ft.chaos import make_wordcount_cluster, run_chaos_sweep, \
    wordcount_job
from repro.ft.runner import run_with_recovery
from repro.mpi import COMET, RankFailedError
from repro.sched import StageCache
from repro.serve.catalog import merge_output, run_direct
from repro.serve.daemon import ServeDaemon
from repro.storage import (
    BACKENDS,
    StorageBackend,
    default_backend_name,
    make_backend,
)
from repro.storage.errors import (
    PFSFileNotFoundError,
    TransientIOError,
    retrying,
)
from tests.conftest import container_kinds, filled_container

backend_param = pytest.mark.parametrize("spec", BACKENDS)


class _FakeComm:
    """Just enough communicator for standalone backend tests."""

    def __init__(self, rank=0):
        self.rank = rank
        self.time = 0.0

    def advance(self, seconds):
        self.time += seconds


class _TransientOnce:
    """Duck-typed chaos plan: one transient fault per matching path."""

    def __init__(self, match):
        self.match = match
        self.fired = []

    def on_access(self, comm, op, path):
        if self.match in path and path not in self.fired:
            self.fired.append(path)
            raise TransientIOError(path, op)

    def on_write(self, comm, path, data):
        try:
            self.on_access(comm, "write", path)
        except TransientIOError as exc:
            return data, exc
        return data, None


class TestProtocolSemantics:
    @backend_param
    def test_staging_surface(self, spec):
        backend = make_backend(spec)
        backend.store("a/x", b"hello")
        backend.store("a/y", b"yy")
        backend.store("b/z", b"z")
        assert backend.fetch("a/x") == b"hello"
        assert backend.exists("a/x") and not backend.exists("a/w")
        assert backend.size("a/y") == 2
        # Deterministic, sorted listings on every backend.
        assert backend.listdir("a/") == ["a/x", "a/y"]
        assert backend.listdir() == ["a/x", "a/y", "b/z"]
        backend.delete("a/x")
        backend.delete("a/x")  # idempotent
        assert not backend.exists("a/x")
        with pytest.raises(PFSFileNotFoundError):
            backend.fetch("a/x")
        with pytest.raises(PFSFileNotFoundError):
            backend.size("nope")

    @backend_param
    def test_costed_io_contract(self, spec):
        backend = make_backend(spec)
        comm = _FakeComm()
        backend.write(comm, "f", b"0123456789")
        assert backend.read(comm, "f", 2, 3) == b"234"
        assert backend.read(comm, "f") == b"0123456789"
        # write_at grows with zero fill; disjoint regions compose.
        backend.write_at(comm, "g", 4, b"BB")
        backend.write_at(comm, "g", 0, b"AA")
        assert backend.fetch("g") == b"AA\0\0BB"
        with pytest.raises(ValueError):
            backend.write_at(comm, "g", -1, b"x")
        # append returns disjoint, ordered offsets.
        assert backend.append(comm, "log", b"one") == 0
        assert backend.append(comm, "log", b"two") == 3
        assert backend.fetch("log") == b"onetwo"
        with pytest.raises(PFSFileNotFoundError):
            backend.read(comm, "missing")
        assert backend.stats.reads == 2
        assert backend.stats.writes == 5
        assert backend.stats.bytes_written == len(b"0123456789BBAAonetwo")

    @backend_param
    def test_cost_model_charges_virtual_time(self, spec):
        backend = make_backend(spec, platform=COMET)
        comm = _FakeComm()
        backend.write(comm, "f", b"x" * 4096)
        after_write = comm.time
        assert after_write > 0.0
        backend.read(comm, "f")
        assert comm.time > after_write

    @backend_param
    def test_transient_fault_is_pre_mutation_and_retryable(self, spec):
        backend = make_backend(spec)
        backend.chaos = _TransientOnce("victim")
        comm = _FakeComm()
        backend.store("victim/f", b"payload")
        # First read faults without any state change; retrying absorbs it.
        assert retrying(comm, lambda: backend.read(comm, "victim/f")) \
            == b"payload"
        # A transient append must not have partially applied.
        retrying(comm, lambda: backend.append(comm, "victim/log", b"abc"))
        assert backend.fetch("victim/log") == b"abc"

    @backend_param
    def test_metric_namespace_per_backend(self, spec):
        from repro.obs.registry import MetricsRegistry

        backend = make_backend(spec)
        backend.metrics = MetricsRegistry()
        comm = _FakeComm()
        backend.write(comm, "f", b"data")
        backend.read(comm, "f")
        totals = backend.metrics.totals()
        assert totals["storage.reads"] == 1
        assert totals["storage.writes"] == 1
        assert totals["storage.bytes_read"] == 4
        assert totals["storage.bytes_written"] == 4

    def test_factory_and_env_default(self, monkeypatch):
        for spec in BACKENDS:
            backend = make_backend(spec)
            assert type(backend) is StorageBackend and backend.name == spec
        with pytest.raises(ValueError, match="unknown storage backend"):
            make_backend("tape")
        monkeypatch.setenv("REPRO_STORAGE_BACKEND", "kv")
        assert default_backend_name() == "kv"
        cluster = Cluster(COMET, nprocs=2)
        assert cluster.pfs.name == "kv"
        monkeypatch.setenv("REPRO_STORAGE_BACKEND", "floppy")
        with pytest.raises(ValueError, match="floppy"):
            Cluster(COMET, nprocs=2)


class TestCrossBackendIdentity:
    """The same jobs, chaos storms, and services on every backend must
    produce bit-identical answers."""

    def test_wordcount_recovery_identical_across_backends(self):
        outputs = {}
        for spec in BACKENDS:
            ft = run_with_recovery(make_wordcount_cluster(4, spec),
                                   wordcount_job(), job_id=f"wc-{spec}")
            outputs[spec] = pickle.dumps(ft.result.returns)
        assert len(set(outputs.values())) == 1, outputs.keys()

    def test_terasort_identical_across_backends(self):
        data = generate_records(300, seed=9)
        outputs = {}
        for spec in BACKENDS:
            cluster = Cluster(COMET, nprocs=4, memory_limit=None,
                              storage=spec)
            cluster.pfs.store("tera/in.bin", data)
            cluster.run(lambda env: terasort_mimir(
                env, "tera/in.bin", "tera/out.bin",
                MimirConfig(page_size=2048, comm_buffer_size=2048,
                            input_chunk_size=1024)))
            outputs[spec] = cluster.pfs.fetch("tera/out.bin")
            assert validate_output(data, outputs[spec]) == []
        assert len(set(outputs.values())) == 1

    @backend_param
    def test_chaos_sweep_converges(self, spec):
        sweep = run_chaos_sweep(20, nprocs=4, storage=spec)
        bad = [r.seed for r in sweep.records if not r.ok]
        assert sweep.all_ok, f"{spec}: failing seeds {bad}"

    @backend_param
    def test_serve_kill_replay_smoke(self, spec):
        """Mid-run daemon kill + journal replay completes the job with
        output identical to a direct run - on every backend."""
        from repro.ft.injection import ChaosPlan
        from repro.mpi import RankFailedError
        from repro.sched.demo import stage_inputs

        def make_cluster():
            cluster = Cluster(COMET, nprocs=4, storage=spec)
            stage_inputs(cluster, seed=0)
            return cluster

        direct = make_cluster()
        result = direct.run(lambda env: run_direct(
            "wordcount", env, "demo/words.txt", {}))
        expected = merge_output("wordcount", result.returns)

        chaos = ChaosPlan(seed=11).fail_at("serve:job:job-0001", 2)
        cluster = make_cluster()
        daemon = ServeDaemon(cluster, chaos=chaos)
        daemon.recover()
        job = daemon.submit("alice", "wordcount", "demo/words.txt")
        with pytest.raises(RankFailedError):
            for _ in range(64):
                daemon.tick()
        daemon.kill()

        successor = ServeDaemon(cluster, chaos=chaos)
        assert successor.recover() == [job.job_id]
        assert successor.jobs[job.job_id].state == "done"
        assert successor.output(job.job_id) == expected


class TestExternalSort:
    """Beyond memory the engine sorts out of core: ``terasort_mimir``
    under ``out_of_core`` on the node-local spill backend."""

    #: 1K pages and comm buffers: the 4x shape's config.
    CONFIG = MimirConfig(page_size="1K", comm_buffer_size="1K",
                         input_chunk_size="1K", out_of_core=True)

    @staticmethod
    def terasort(data, config, *, nprocs=2, limit=None, storage="extsort"):
        cluster = Cluster(COMET, nprocs=nprocs, memory_limit=limit,
                          storage=storage)
        cluster.pfs.store("tera/in.bin", data)
        result = cluster.run(
            lambda env: terasort_mimir(env, "tera/in.bin", "tera/out.bin",
                                       config, batch=True),
            allow_oom=True)
        return cluster, result

    def test_beyond_memory_budget(self):
        """At 4x aggregate memory (8,192 records, 2 ranks, 16K each) the
        in-memory terasort OOMs; out of core it completes within the
        limit on every rank and leaves no spill behind."""
        nrec, limit = 8192, 16 * 1024
        data = generate_records(nrec, seed=21)
        assert len(data) == 4 * 2 * limit
        _, in_memory = self.terasort(
            data, replace(self.CONFIG, out_of_core=False), limit=limit)
        assert in_memory.ran_out_of_memory

        cluster, result = self.terasort(data, self.CONFIG, limit=limit)
        assert not result.ran_out_of_memory
        assert all(peak <= limit for peak in result.peak_bytes)
        assert cluster.pfs.spilled_bytes > 0
        out = cluster.pfs.fetch("tera/out.bin")
        assert validate_output(data, out) == []
        expected = b"".join(sorted(
            (data[off:off + RECORD_SIZE]
             for off in range(0, len(data), RECORD_SIZE)),
            key=lambda r: r[:TS_LAYOUT.key_len]))
        # Full-record equality needs a deterministic tie order; compare
        # the key stream (total) plus the multiset of whole records.
        assert [out[o:o + TS_LAYOUT.key_len]
                for o in range(0, len(out), RECORD_SIZE)] == \
            [expected[o:o + TS_LAYOUT.key_len]
             for o in range(0, len(expected), RECORD_SIZE)]
        assert sorted(out[o:o + RECORD_SIZE]
                      for o in range(0, len(out), RECORD_SIZE)) == \
            sorted(expected[o:o + RECORD_SIZE]
                   for o in range(0, len(expected), RECORD_SIZE))
        assert sum(r.records_local for r in result.returns) == nrec
        assert cluster.pfs.listdir("spill/") == []  # runs cleaned up

    def test_matches_in_memory_terasort_with_unique_keys(self):
        """With unique keys the full record order is deterministic, so
        the out-of-core sort at 4x aggregate memory must match the
        in-memory one (no limit) byte for byte."""
        nrec, limit = 8192, 16 * 1024
        # An odd multiplier is a bijection mod 2**32: unique keys.
        keys = [i * 2654435761 % (1 << 32) for i in range(nrec)]
        __import__("random").Random(3).shuffle(keys)
        data = b"".join(key.to_bytes(4, "big") + i.to_bytes(12, "big")
                        for i, key in enumerate(keys))

        reference, _ = self.terasort(
            data, replace(self.CONFIG, out_of_core=False), storage="pfs")
        cluster, result = self.terasort(data, self.CONFIG, limit=limit)
        assert not result.ran_out_of_memory
        assert all(peak <= limit for peak in result.peak_bytes)
        assert cluster.pfs.fetch("tera/out.bin") == \
            reference.pfs.fetch("tera/out.bin")

    def test_empty_and_single_rank_inputs(self):
        for nprocs, nrec in ((1, 0), (1, 37), (3, 0), (3, 1)):
            data = generate_records(nrec, seed=nrec)
            cluster, _ = self.terasort(data, self.CONFIG, nprocs=nprocs,
                                       limit="8K")
            out = cluster.pfs.fetch("tera/out.bin")
            assert validate_output(data, out) == [], (nprocs, nrec)

    def test_local_spill_namespace_is_cheaper(self):
        backend = make_backend("extsort", platform=COMET)
        comm = _FakeComm()
        backend.write(comm, "shared/f", b"x" * 65536)
        shared_cost = comm.time
        comm.time = 0.0
        backend.write(comm, "spill/f", b"x" * 65536)
        assert comm.time < shared_cost

    def test_rejects_bad_geometry(self):
        cluster = Cluster(COMET, nprocs=1, storage="extsort")
        cluster.pfs.store("in", b"12345")  # not a record multiple
        with pytest.raises(RankFailedError, match="multiple") as failed:
            cluster.run(lambda env: terasort_mimir(env, "in", "out",
                                                   self.CONFIG))
        assert isinstance(failed.value.original, ValueError)


CACHE_CFG = MimirConfig(page_size=1024, comm_buffer_size=1024,
                        input_chunk_size=256)


def _fill_entry(env, cache, key, tag=b"k", n=64):
    def emit(ctx, _item):
        for i in range(n):
            ctx.emit(tag + pack_u64(i), pack_u64(i))

    kvs = Mimir(env, CACHE_CFG).map_items([None], emit)
    cache.put(key, kvs, name=key, job="test")
    return sorted(kvs.records())


def _evict_old(env, cache, kind=None):
    """Entries "old" (LRU; of ``kind``, or a plain map output) and
    "new", then "old" evicted.  Returns "old"'s sorted records."""
    if kind is None:
        records = _fill_entry(env, cache, "old", tag=b"o")
    else:
        kvc, pairs = filled_container(env, kind, prefix=b"o")
        cache.put("old", kvc, name="old", job="test")
        records = sorted(pairs)
    _fill_entry(env, cache, "new", tag=b"n")
    cache.get("new")
    # The stale file a pre-attach drop would leave behind.
    env.pfs.store("spill/cache_old.0", b"\xde\xad" * 512)
    if kind is None:
        assert cache.ensure_room(env.tracker.limit) > 0
    else:  # by hand: ensure_room leaves a self-spilling container be
        assert cache._evict(cache.entries["old"]) > 0
    assert not cache.entries["old"].resident
    return records


class TestStageCacheStorage:
    """Regressions for the protocol-routed eviction/reload path."""

    @staticmethod
    def _stale_spill_file(spec, kind=None):
        def job(env):
            cache = StageCache(0)
            cache.attach(env)
            records = _evict_old(env, cache, kind)
            # The spill stream describes only the fresh bytes...
            spill = cache.entries["old"].spill
            assert env.pfs.size("spill/cache_old.0") == spill.total_bytes \
                == sum(length for _, length in spill.chunks)
            # ...and reload returns them bit for bit.
            assert sorted(cache.get("old").records()) == records
            assert not env.pfs.exists("spill/cache_old.0")

        Cluster(COMET, nprocs=1, memory_limit="64K", storage=spec).run(job)

    @staticmethod
    def _transient_faults(spec, kind=None):
        def job(env):
            cache = StageCache(0)
            cache.attach(env)
            env.pfs.chaos = chaos = _TransientOnce("cache_old")
            try:
                records = _evict_old(env, cache, kind)
                assert chaos.fired
                chaos.fired.clear()  # ...and once more on the way back
                assert sorted(cache.get("old").records()) == records
                assert chaos.fired
            finally:
                env.pfs.chaos = None

        Cluster(COMET, nprocs=1, memory_limit="64K", storage=spec).run(job)

    @backend_param
    def test_stale_spill_file_from_dropped_entry(self, spec):
        """A recompute after a drop that left a stale spill file behind
        must not read (or leak) the stale bytes: eviction deletes the
        path before writing, so reload returns exactly the new entry."""
        self._stale_spill_file(spec)

    @backend_param
    @container_kinds
    def test_stale_spill_file_every_container_kind(self, spec, kind):
        self._stale_spill_file(spec, kind)

    @backend_param
    def test_evict_and_reload_survive_transient_faults(self, spec):
        """Chaos on the cache's spill path is absorbed by the retry
        wrapper instead of killing the launch."""
        self._transient_faults(spec)

    @backend_param
    @container_kinds
    def test_transient_faults_every_container_kind(self, spec, kind):
        self._transient_faults(spec, kind)


class TestImportOrder:
    """The substrate is one package now: no module needs another to
    have been imported first."""

    @pytest.mark.parametrize("module", [
        "repro.storage.base", "repro.io.readers", "repro.cluster",
        "repro.ft", "repro.storage", "repro.io.spill"])
    def test_imports_first_in_a_fresh_interpreter(self, module):
        import subprocess
        import sys

        done = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
