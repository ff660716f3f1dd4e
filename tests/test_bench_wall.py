"""``scripts/bench_wall.py``: perf reports become trajectory rows."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_wall.py"
spec = importlib.util.spec_from_file_location("bench_wall", SCRIPT)
bench_wall = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_wall)


def report(commit="abc123", seed=7, **rate):
    """A minimal ``perf/run.py --out`` report with two workloads."""
    def workload(value):
        return {"end_to_end": {
            "records_per_s": {"value": value, "q1": value - 10.0,
                              "q3": value + 10.0, "n": 9, **rate},
            "calls_per_record": {"value": 5.5},
            "virtual_s": {"value": 0.25},
            "tracked_peak_bytes": {"value": 65536},
            "host_peak_bytes": {"value": 2_800_000.0},
            "setup_s": {"value": 0.1, "q1": 0.09, "q3": 0.11, "n": 3},
        }, "per_layer": {}}

    return {"meta": {"seed": seed, "smoke": False, "reps": None,
                     "seconds": 3.0, "python": "3.12.1", "nproc": 2,
                     "pinned_cpu": 1, "cal_ref_s": 0.05,
                     "git_commit": commit},
            "workloads": {"wc_uniform": workload(500_000.0),
                          "terasort": workload(1_600_000.0)}}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_one_row_per_workload_and_seed(tmp_path):
    out = tmp_path / "BENCH_wall.json"
    a = write(tmp_path, "a.json", report(seed=7))
    b = write(tmp_path, "b.json", report(seed=11))
    assert bench_wall.main([str(a), str(b), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(r["workload"], r["seed"]) for r in rows] == [
        ("wc_uniform", 7), ("terasort", 7), ("wc_uniform", 11),
        ("terasort", 11)]
    assert rows[0] == {
        "commit": "abc123", "workload": "wc_uniform", "seed": 7,
        "smoke": False, "cal_ref_s": 0.05, "python": "3.12.1", "nproc": 2,
        "records_per_s": {"median": 500_000.0, "q1": 499_990.0,
                          "q3": 500_010.0, "n": 9},
        "calls_per_record": 5.5, "host_peak_bytes": 2_800_000,
        "virtual_s": 0.25}
    # A second call appends; ``--commit`` names a run made outside git.
    unknown = write(tmp_path, "c.json", report(commit="unknown"))
    assert bench_wall.main([str(unknown), "--commit", "def456",
                            "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 6 and rows[-1]["commit"] == "def456"


def test_check_validates_and_appends_nothing(tmp_path):
    out = tmp_path / "BENCH_wall.json"
    good = write(tmp_path, "good.json", report())
    assert bench_wall.main(["--check", str(good), "--out", str(out)]) == 0
    assert not out.exists()
    bad = write(tmp_path, "bad.json", report(n="nine"))
    assert bench_wall.main(["--check", str(bad), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("field, value, error", [
    ("seed", True, "seed is True, not int"),
    ("calls_per_record", "5.5", "calls_per_record is '5.5', not float"),
    ("extra", 1, "unknown field 'extra'"),
    ("host_peak_bytes", 0, "empty measurement"),
])
def test_check_row_names_the_fault(field, value, error):
    row = bench_wall.rows_of(report())[0]
    row[field] = value
    assert any(error in e for e in bench_wall.check_row(row))
    del row[field]
    if field != "extra":
        assert f"field {field!r} is missing" in \
            " ".join(bench_wall.check_row(row))
