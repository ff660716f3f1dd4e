"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_platforms_defaults(self):
        args = build_parser().parse_args(["platforms"])
        assert args.shift == 3

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "wc_uniform", "--size", "2G", "--framework", "mrmpi",
             "--page", "512M", "--platform", "mira", "--hint"])
        assert args.app == "wc_uniform"
        assert args.framework == "mrmpi"
        assert args.page == "512M"
        assert args.hint and not args.pr

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "sorting"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_platforms_output(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "comet" in out and "mira" in out
        assert "write penalty" in out

    def test_run_mimir_small(self, capsys):
        code = main(["run", "wc_uniform", "--size", "128M", "--shift", "6",
                     "--nprocs", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "peak memory" in out
        assert "virtual time" in out

    def test_run_mrmpi_with_options(self, capsys):
        code = main(["run", "wc_uniform", "--size", "128M", "--shift", "6",
                     "--nprocs", "4", "--framework", "mrmpi",
                     "--page", "512M"])
        assert code == 0
        assert "mrmpi" in capsys.readouterr().out

    def test_run_count_sized_app(self, capsys):
        code = main(["run", "bfs", "--size", "2^18", "--shift", "6",
                     "--nprocs", "4"])
        assert code == 0

    def test_run_oom_exit_code(self, capsys):
        code = main(["run", "wc_uniform", "--size", "1T", "--shift", "6",
                     "--nprocs", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "OUT OF MEMORY" in out

    def test_compare_table(self, capsys):
        code = main(["compare", "wc_uniform", "--size", "256M",
                     "--shift", "6", "--nprocs", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Mimir" in out and "MR-MPI (64M)" in out
        assert "max in-mem" in out


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0 and args.lease_ttl == 60.0
        assert args.platform == "comet"

    def test_serve_storage_choices_are_the_registered_backends(self):
        from repro.storage import BACKENDS

        for spec in BACKENDS:
            args = build_parser().parse_args(["serve", "--storage", spec])
            assert args.storage == spec
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--storage", "tape"])

    def test_serve_quota_specs(self):
        args = build_parser().parse_args(
            ["serve", "--quota", "alice=4:2", "--quota", "bob=1:1",
             "--port", "8123"])
        assert args.quota == ["alice=4:2", "bob=1:1"]

    def test_submit_options(self):
        args = build_parser().parse_args(
            ["submit", "pagerank", "demo/graph.bin",
             "--param", "iterations=3", "--tenant", "bob", "--wait"])
        assert args.app == "pagerank"
        assert args.param == ["iterations=3"]
        assert args.tenant == "bob" and args.wait

    def test_client_commands_share_url_and_tenant(self):
        for argv in (["status"], ["cancel", "job-0001"],
                     ["fetch", "job-0001"], ["put", "x", "f"]):
            args = build_parser().parse_args(argv)
            assert args.url.startswith("http://")
            assert args.tenant == "default"


class TestServeCommands:
    @pytest.fixture()
    def service(self):
        from repro.cluster import Cluster
        from repro.mpi import COMET
        from repro.sched.demo import stage_inputs
        from repro.serve.daemon import ServeDaemon

        cluster = Cluster(COMET, nprocs=4)
        stage_inputs(cluster)
        daemon = ServeDaemon(cluster)
        port = daemon.start()
        yield f"--url=http://127.0.0.1:{port}"
        daemon.stop()

    def test_put_submit_status_fetch_roundtrip(self, service, capsys,
                                               tmp_path):
        import json

        infile = tmp_path / "words.txt"
        infile.write_bytes(b"cli cli cli test\n")
        assert main(["put", "words.txt", str(infile), service,
                     "--tenant", "alice"]) == 0
        assert main(["submit", "wordcount", "words.txt", service,
                     "--tenant", "alice", "--wait"]) == 0
        capsys.readouterr()
        assert main(["status", service, "--tenant", "alice"]) == 0
        jobs = json.loads(capsys.readouterr().out)
        assert jobs and jobs[0]["state"] == "done"
        job_id = jobs[0]["job_id"]

        outfile = tmp_path / "out.tsv"
        assert main(["fetch", job_id, "-o", str(outfile), service,
                     "--tenant", "alice"]) == 0
        assert outfile.read_bytes() == b"cli\t3\ntest\t1\n"
        assert main(["fetch", job_id, "--log", service,
                     "--tenant", "alice"]) == 0
        assert "submitted by alice" in capsys.readouterr().out

    def test_submit_param_true_false_are_booleans(self, service, capsys):
        import json

        # "false" kept as a string is truthy under the catalog's bool().
        assert main(["submit", "wordcount", "demo/words.txt", service,
                     "--param", "hint=false", "--param", "partial=TRUE",
                     "--param", "compress=False", "--wait"]) == 0
        params = json.loads(capsys.readouterr().out)["params"]
        assert params == {"hint": False, "partial": True, "compress": False}
        # Numbers stay numbers (a float-typed param has no other spelling).
        assert main(["submit", "stream_wordcount", "demo/words.txt", service,
                     "--param", "window=2.5", "--param", "nbatches=2",
                     "--wait"]) == 0
        params = json.loads(capsys.readouterr().out)["params"]
        assert params == {"window": 2.5, "nbatches": 2}
        # A flag takes a boolean only: the service refuses a number.
        assert main(["submit", "wordcount", "demo/words.txt", service,
                     "--param", "compress=0"]) == 1
        assert json.loads(capsys.readouterr().out)["status"] == 400

    def test_cancel_command(self, service, capsys):
        import json

        daemon_url = service
        # Stall the queue so the job is still cancellable: submit with
        # an impossible footprint keeps it queued only briefly, so
        # instead cancel right after submitting without --wait.
        assert main(["submit", "wordcount", "demo/words.txt", daemon_url,
                     "--tenant", "bob"]) == 0
        job_id = json.loads(capsys.readouterr().out)["job_id"]
        code = main(["cancel", job_id, daemon_url, "--tenant", "bob"])
        doc = json.loads(capsys.readouterr().out)
        # Raced the worker: either cancelled cleanly, or already done
        # and the CLI printed the structured 409 body with exit 1.
        if code == 0:
            assert doc["state"] == "cancelled"
        else:
            assert doc["status"] == 409

    def test_status_single_job(self, service, capsys):
        import json

        assert main(["submit", "wordcount", "demo/words.txt", service,
                     "--tenant", "carol", "--wait"]) == 0
        job_id = json.loads(capsys.readouterr().out)["job_id"]
        assert main(["status", job_id, service, "--tenant", "carol"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "done"
        assert doc["summary"]["total"] > 0
