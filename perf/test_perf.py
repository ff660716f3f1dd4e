"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest perf -q

Not part of tier-1 (``testpaths`` is ``tests``): these guard the
measuring instruments - that tracing leaves the engine untouched, that
spans attribute time to the right side of a generator, that the work
count is exact, that timed reps run bare, that the ledgers add up and
that ``compare.py`` tells a slowdown from an identical pair.
"""

from __future__ import annotations

import copy
import json
import re
import sys
import time
import tracemalloc

import pytest

import compare
import run
import trace  # perf/trace.py: pytest puts this directory first on sys.path
import workloads

SEED = 7
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def smoke():
    """One full smoke measurement of ``wc_uniform`` (all four rep kinds)."""
    return run.measure("wc_uniform", seed=SEED, scale=run.SMOKE_SCALE,
                       with_trace=True, reps=run.SMOKE_REPS)


def _burn(cpu_seconds: float) -> None:
    """Spin until this thread has used ``cpu_seconds`` of CPU."""
    end = time.thread_time() + cpu_seconds
    while time.thread_time() < end:
        pass


# ------------------------------------------------------------- trace.py

def _bound_now() -> list:
    return [owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
            for owner, attr, _ in trace.originals()]


def test_tracing_restores_every_original():
    before = _bound_now()
    with trace.tracing():
        inside = _bound_now()
        assert all(now is not was for now, was in zip(inside, before))
    assert all(now is was for now, was in zip(_bound_now(), before))
    assert not trace.active()


def test_tracing_restores_after_an_exception():
    before = _bound_now()
    with pytest.raises(RuntimeError, match="boom"):
        with trace.tracing():
            raise RuntimeError("boom")
    assert all(now is was for now, was in zip(_bound_now(), before))
    assert not trace.active()


def test_tracing_swaps_by_name_imports_too():
    from repro.core import convert, job

    original = convert.iter_grouped
    assert job.iter_grouped is original
    with trace.tracing():
        assert job.iter_grouped is convert.iter_grouped is not original
    assert job.iter_grouped is convert.iter_grouped is original


def test_generator_spans_count_only_time_inside_next():
    def produce():
        for item in range(2):
            _burn(0.02)
            yield item

    tracer = trace.Tracer()
    traced = tracer.wrap("producer", "produce", produce)
    with tracer.span("consumer", "consume"):
        for _ in traced():
            _burn(0.05)
    summary = tracer.summary()
    assert 0.04 <= summary.self_cpu["producer"] < 0.06
    assert 0.10 <= summary.self_cpu["consumer"] < 0.13
    # one span per resumption: two items and the final StopIteration,
    # plus the call that created the generator
    assert summary.calls["producer"] == 4
    assert abs(sum(summary.self_cpu.values()) - summary.total_cpu) < 1e-9


# -------------------------------------------------------- count.py, reps

def test_counted_rep_repeats_exactly(smoke):
    runner = run.Runner(workloads.make("wc_uniform", SEED, run.SMOKE_SCALE))
    assert runner.rep() is not None
    _, first = run.counted_rep(runner)
    _, second = run.counted_rep(runner)
    assert first.total == second.total > 0
    assert first.by_module == second.by_module
    assert first.total / runner.workload.records == \
        smoke["end_to_end"]["calls_per_record"]["value"]
    assert runner.failed == 0


def test_timed_reps_run_uninstrumented():
    workload = workloads.make("wc_uniform", SEED, run.SMOKE_SCALE)
    seen = []
    plain_run = workload.run

    def probed_run(state):
        seen.append((sys.getprofile(), tracemalloc.is_tracing(),
                     trace.active()))
        return plain_run(state)

    workload.run = probed_run
    runner = run.Runner(workload)
    assert len(runner.timed(reps=2)) == 2
    assert seen == [(None, False, False)] * 2
    # the probe does see the instruments when they are on
    run.counted_rep(runner)
    run.memory_rep(runner)
    run.traced_rep(runner)
    assert [(profile is not None, tracing, traced)
            for profile, tracing, traced in seen[2:]] == \
        [(True, False, False), (False, True, False), (False, False, True)]
    assert runner.failed == 0


def test_a_wrong_output_is_a_failed_operation_not_a_sample():
    workload = workloads.make("wc_uniform", SEED, run.SMOKE_SCALE)
    workload.verify = lambda output: False
    runner = run.Runner(workload)
    assert runner.timed(reps=2) == []
    assert (runner.attempted, runner.failed) == (2, 2)


# ------------------------------------------------------------ invariants

def test_per_layer_calls_sum_to_the_end_to_end_count(smoke):
    layer = smoke["per_layer"]
    parts = [value for key, value in layer.items()
             if key.endswith(".calls_per_record")]
    total = smoke["end_to_end"]["calls_per_record"]["value"]
    assert sum(parts) == pytest.approx(total, rel=1e-12)
    assert sum(smoke["calls_by_module"].values()) == \
        sum(smoke["calls_by_thread"]) == round(total * smoke["records"])


def test_cpu_shares_sum_to_one(smoke):
    shares = [value for key, value in smoke["per_layer"].items()
              if key.endswith(".cpu_share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert smoke["per_layer"]["perf.unattributed.cpu_share"] <= 0.10


def test_smoke_is_correct_and_complete(smoke, spec):
    assert smoke["failed"] == 0 and smoke["attempted"] >= 7
    for group in ("end_to_end", "per_layer"):
        assert set(smoke[group]) == {m["name"] for m in spec[group]}
    for metric in spec["end_to_end"]:
        assert smoke["end_to_end"][metric["name"]]["value"] > 0


# ------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert isinstance(spec["run_seconds"], int) and \
        1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ----------------------------------------------------------- compare.py

def _report(result):
    return {"meta": {}, "workloads": {"wc_uniform": result}}


def test_compare_passes_an_identical_pair(smoke, spec):
    rows, passed = compare.compare([_report(smoke)], [_report(smoke)], spec)
    assert passed
    assert len(rows) == len(spec["end_to_end"])
    assert all(row["ratio"] == 1.0 and row["verdict"] != "regressed"
               for row in rows)


def test_compare_flags_a_slowdown_beyond_the_bound(smoke, spec):
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "records_per_s")
    slow = copy.deepcopy(smoke)
    entry = slow["end_to_end"]["records_per_s"]
    for key in ("value", "q1", "q3"):
        entry[key] *= 1 - bound - 0.05
    # a steady parent: its own spread must not hide the slowdown
    steady = copy.deepcopy(smoke)
    steady["end_to_end"]["records_per_s"].update(
        q1=smoke["end_to_end"]["records_per_s"]["value"],
        q3=smoke["end_to_end"]["records_per_s"]["value"])
    rows, passed = compare.compare([_report(steady)], [_report(slow)], spec)
    assert not passed
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts.pop("records_per_s") == "regressed"
    assert "regressed" not in verdicts.values()


def test_compare_fails_a_higher_failed_share(smoke, spec):
    broken = copy.deepcopy(smoke)
    broken["failed"] = 1
    _, passed = compare.compare([_report(smoke)], [_report(broken)], spec)
    assert not passed


def test_compare_claims_a_gain_only_over_several_winning_pairs(smoke, spec):
    def scaled(factor):
        result = copy.deepcopy(smoke)
        entry = result["end_to_end"]["records_per_s"]
        for key in ("value", "q1", "q3"):
            entry[key] *= factor
        return _report(result)

    parents = [scaled(1 + 0.002 * i) for i in range(10)]
    changes = [scaled(1.2 + 0.002 * i) for i in range(10)]
    rows, passed = compare.compare(parents, changes, spec)
    assert passed
    assert {row["metric"]: row["verdict"]
            for row in rows}["records_per_s"] == "improved"
    # one pair is never enough to claim a gain
    rows, _ = compare.compare(parents[:1], changes[:1], spec)
    assert {row["metric"]: row["verdict"]
            for row in rows}["records_per_s"] in ("ok", "unresolved")


def test_cli_round_trip(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run.main(["--smoke", "--workload", "terasort", "--trace", "0",
                     "--out", str(out)])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == \
        {m["name"] for m in run.load_spec()["end_to_end"]}
    report = json.loads(out.read_text())
    assert report["meta"]["seed"] == run.DEFAULT_SEED
    assert report["workloads"]["terasort"]["samples"]["job_wall_s"]
    assert compare.main([str(out), str(out)]) == 0
