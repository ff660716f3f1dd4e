"""The repo's reference benchmark: two clocks, seven workloads.

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace 0|1] [--out FILE] [--trace-out DIR]
                        [--smoke]

One process measures the selected workloads (all seven by default) on
the simulated cluster and reports, per workload, the end-to-end
metrics and the per-layer ledger that ``BENCHMARK.json`` names, keeps
*simulated* statistics (exact) apart from *host* cost (noisy), checks
every output against a pure-Python reference and counts operations
attempted and failed.  ``perf/README.md`` explains what each number
means and how to run an A/B with ``compare.py``.

Four kinds of rep, all on the same input:

- **timed** reps (after one warm-up): process pinned to one core,
  ``gc.collect()`` first, nothing instrumented (asserted), the fixed
  calibration kernel run before the first and after every rep.  A
  rep's *calibrated seconds* are ``wall * CAL_REF_S / mean(the two
  neighbouring calibration walls)``.  With ``--seconds S`` reps repeat
  until ``S`` seconds have passed since the process started measuring
  (the engine-import probes behind ``setup_s`` come first), otherwise
  20 times (3 with ``--smoke``).
- one **counted** rep under ``count.counting`` (exact call counts),
- one **memory** rep under ``tracemalloc`` (real peak bytes),
- one **traced** rep under ``trace.tracing`` (per-layer CPU shares),
  skipped with ``--trace 0``.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``,
both without the flag (names prefixed ``<workload>:`` when more than
one workload ran).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
if not PACKAGE.is_dir():
    raise SystemExit(f"perf/run.py: nothing to measure, {PACKAGE} is missing")
sys.path.insert(0, str(PACKAGE.parent))

import calibrate  # noqa: E402 - needs the path set up above
import count  # noqa: E402
import trace  # noqa: E402 - perf/trace.py, not the stdlib module
import workloads  # noqa: E402

DEFAULT_SEED = 7
FULL_REPS = 20
SMOKE_REPS = 3
SMOKE_SCALE = 8
#: A ``--seconds`` budget never cuts the timed phase below this.
MIN_REPS = 3
#: Fresh interpreters timed importing the engine, per process.
IMPORT_PROBES = 3
#: One-rank reps behind ``cluster.single_rank_records_per_s``.
SINGLE_RANK_REPS = 5
SINGLE_RANK_WORKLOAD = "wc_uniform"


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, bounds, workloads."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pin_to_one_cpu() -> int | None:
    """Pin the process (and so every rank thread) to one core.

    Rank threads serialise on the GIL, so a second core only adds
    migrations; pinned, the same job is faster and steadier.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def engine_import_samples() -> list[float]:
    """Calibrated seconds fresh interpreters take to import the engine.

    The part of set-up a user pays once per process, and where work
    moved out of a job (tables built at import, say) would land.  Each
    probe is a child interpreter pinned like this one; numpy, which
    the engine depends on, is imported before its clock starts.
    """
    probe = ("import sys, time; sys.path[:0] = %r; import numpy; "
             "started = time.perf_counter(); import workloads; "
             "print(time.perf_counter() - started)"
             % [str(Path(__file__).resolve().parent), str(PACKAGE.parent)])
    samples = []
    before = calibrate.run()
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True, timeout=120)
        after = calibrate.run()
        samples.append(float(done.stdout) * calibrate.CAL_REF_S
                       / ((before + after) / 2))
        before = after
    return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


# ------------------------------------------------------------------ reps

class Sample:
    """One successfully executed and verified rep."""

    def __init__(self, setup_wall: float, job_wall: float, cal_wall: float,
                 rep: workloads.Rep):
        self.setup_wall = setup_wall
        self.job_wall = job_wall
        #: Mean wall of the calibration runs right before and after.
        self.cal_wall = cal_wall
        self.rep = rep

    def calibrated(self, wall: float) -> float:
        return wall * calibrate.CAL_REF_S / self.cal_wall

    @property
    def job_calibrated(self) -> float:
        return self.calibrated(self.job_wall)


class Runner:
    """Executes reps of one workload, verifying each one's output.

    The first rep's output is checked in full against the workload's
    reference; every later rep must reproduce its sha256.  A mismatch
    or an exception counts as a failed operation, never as a sample.
    The calibration kernel runs before the first and after every rep.
    """

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.cal_walls: list[float] = []
        self._digest: str | None = None

    def _verified(self, output: bytes) -> bool:
        digest = hashlib.sha256(output).hexdigest()
        if self._digest is None:
            if not self.workload.verify(output):
                return False
            self._digest = digest
        return digest == self._digest

    def rep(self, *, nprocs: int = workloads.NPROCS,
            instrument: Callable[[Callable[[], Any]], Any] | None = None,
            ) -> Sample | None:
        """Set up and run the job once; ``None`` if the rep failed.

        ``instrument(job)`` runs ``job()`` under whatever the rep kind
        observes with and returns its result; only the job itself - not
        the set-up, not the output check - is inside it.
        """
        workload = self.workload
        job_wall = 0.0

        def job():
            nonlocal job_wall
            started = time.perf_counter()
            outcome = workload.run(state)
            job_wall = time.perf_counter() - started
            return outcome

        if not self.cal_walls:
            self.cal_walls.append(calibrate.run())
        self.attempted += 1
        gc.collect()
        try:
            started = time.perf_counter()
            state = workload.setup(nprocs)
            setup_wall = time.perf_counter() - started
            outcome = job() if instrument is None else instrument(job)
            rep = workload.report(state, outcome)
            if not self._verified(rep.output):
                raise AssertionError("output does not match the reference")
        except Exception:   # noqa: BLE001 - a failed op is data, keep going
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            self.cal_walls.append(calibrate.run())
        # The output has been checked; samples live for the whole run
        # and need not hold a copy of it each.
        return Sample(setup_wall, job_wall,
                      (self.cal_walls[-2] + self.cal_walls[-1]) / 2,
                      rep._replace(output=b""))

    def timed(self, *, reps: int | None = None,
              deadline: float | None = None,
              nprocs: int = workloads.NPROCS) -> list[Sample]:
        """Uninstrumented reps: ``reps`` of them, or until ``deadline``
        (a ``perf_counter`` reading) but at least ``MIN_REPS``."""
        samples: list[Sample] = []
        done = 0

        def finished() -> bool:
            if deadline is None:
                return done >= reps
            return done >= MIN_REPS and time.perf_counter() >= deadline

        while not finished():
            assert sys.getprofile() is None and \
                not tracemalloc.is_tracing() and not trace.active(), \
                "timed reps must run uninstrumented"
            sample = self.rep(nprocs=nprocs)
            done += 1
            if sample is not None:
                samples.append(sample)
        return samples


def counted_rep(runner: Runner,
                ) -> tuple[Sample | None, count.CallCounts | None]:
    calls = None

    def instrument(job):
        nonlocal calls
        with count.counting(PACKAGE) as calls:
            return job()

    return runner.rep(instrument=instrument), calls


def memory_rep(runner: Runner) -> tuple[Sample | None, int]:
    """Real peak bytes the job allocates above its pre-job baseline."""
    peak = 0

    def instrument(job):
        nonlocal peak
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            outcome = job()
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        return outcome

    return runner.rep(instrument=instrument), peak


def traced_rep(runner: Runner) -> tuple[Sample | None, trace.Tracer | None]:
    tracer = None

    def instrument(job):
        nonlocal tracer
        with trace.tracing() as tracer:
            return job()

    return runner.rep(instrument=instrument), tracer


# --------------------------------------------------------------- metrics

def measure(name: str, *, seed: int, scale: int, with_trace: bool,
            reps: int | None = None, seconds: float | None = None,
            engine_import_s: tuple[float, ...] = (0.0,),
            trace_out: Path | None = None) -> dict[str, Any]:
    """Run every rep kind of one workload and derive its metrics.

    ``engine_import_s`` are the calibrated times fresh interpreters
    took to import the engine; ``setup_s`` is their median plus the
    median set-up of a rep (cluster construction and input staging).
    """
    workload = workloads.make(name, seed, scale)
    records = workload.records
    runner = Runner(workload)

    warmup = runner.rep()
    samples = runner.timed(
        reps=reps,
        deadline=None if seconds is None else time.perf_counter() + seconds)
    counted, calls = counted_rep(runner)
    memory, host_peak = memory_rep(runner)
    traced, tracer = traced_rep(runner) if with_trace else (None, None)
    single: list[Sample] = []
    if with_trace and name == SINGLE_RANK_WORKLOAD:
        single = runner.timed(reps=SINGLE_RANK_REPS, nprocs=1)

    result: dict[str, Any] = {
        "records": records,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "reps": len(samples),
        "end_to_end": {},
        "per_layer": {},
        "samples": {
            "job_wall_s": [s.job_wall for s in samples],
            "job_calibrated_s": [s.job_calibrated for s in samples],
            "setup_wall_s": [s.setup_wall for s in samples],
            "setup_calibrated_s": [s.calibrated(s.setup_wall)
                                   for s in samples],
            "virtual_s": [s.rep.virtual_s for s in samples],
            "tracked_peak_bytes": [s.rep.tracked_peak_bytes
                                   for s in samples],
            "calibration_wall_s": runner.cal_walls,
            "single_rank_calibrated_s": [s.job_calibrated for s in single],
        },
    }
    if not samples or None in (warmup, counted, memory) or \
            (with_trace and traced is None):
        return result       # nothing trustworthy to derive metrics from

    job_cal = result["samples"]["job_calibrated_s"]
    setup_cal = result["samples"]["setup_calibrated_s"]
    job_wall = result["samples"]["job_wall_s"]
    job_cal_median = statistics.median(job_cal)
    setup_median = statistics.median(setup_cal)
    import_median = statistics.median(engine_import_s)
    # Exact, so every rep reads the same; median_low keeps it an
    # observed value should they ever not.
    virtual_s = statistics.median_low(result["samples"]["virtual_s"])
    tracked = statistics.median_low(result["samples"]["tracked_peak_bytes"])

    def summary(value: float, values: list[float] | None = None) -> dict:
        entry: dict[str, Any] = {"value": value}
        if values is not None:
            q1, _, q3 = quartiles(values)
            entry.update(q1=q1, q3=q3, n=len(values))
        return entry

    result["end_to_end"] = {
        "records_per_s": summary(records / job_cal_median,
                                 [records / s for s in job_cal]),
        "calls_per_record": summary(calls.total / records),
        "virtual_s": summary(virtual_s),
        "tracked_peak_bytes": summary(tracked),
        "host_peak_bytes": summary(host_peak),
        "setup_s": summary(import_median + setup_median,
                           [s + setup_median for s in engine_import_s]),
    }

    layer = result["per_layer"]
    for key, events in calls.by_layer.items():
        layer[f"{key}.calls_per_record"] = events / records
    result["calls_by_module"] = calls.by_module
    result["calls_by_thread"] = [sum(table.values())
                                 for table in calls.per_thread]
    layer.update(samples[0].rep.counters)
    layer["memory.tracked_to_real"] = tracked / host_peak if host_peak else 0.0
    layer["cluster.engine_import_s"] = import_median
    layer["cluster.setup_s"] = setup_median
    layer["cluster.wall_s_median"] = statistics.median(job_wall)
    layer["cluster.wall_s_min"] = min(job_wall)
    layer["cluster.cold_start_s"] = warmup.job_calibrated - job_cal_median
    layer["cluster.single_rank_records_per_s"] = \
        records / statistics.median(
            result["samples"]["single_rank_calibrated_s"]) if single else 0.0
    layer["perf.count.overhead_ratio"] = \
        counted.job_calibrated / job_cal_median
    layer["perf.calibration.spread"] = spread(runner.cal_walls)

    if tracer is not None:
        shares = tracer.summary()
        for key in trace.BOUNDARIES:
            layer[f"{key}.cpu_share"] = shares.cpu_share(key)
        layer["core.records.scan.calls"] = \
            shares.calls.get("core.records.scan", 0)
        layer["mpi.comm.wait_share"] = \
            shares.self_off_cpu.get("mpi.comm", 0.0) / shares.thread_wall \
            if shares.thread_wall else 0.0
        codec_cpu = shares.self_cpu.get("core.codec", 0.0)
        saved = layer["core.codec.bytes_in"] - layer["core.codec.bytes_out"]
        layer["core.codec.saved_bytes_per_cpu_s"] = \
            saved / codec_cpu if codec_cpu else 0.0
        layer["perf.trace.overhead_ratio"] = \
            traced.job_calibrated / job_cal_median
        result["trace_spans"] = sum(shares.calls.values())
        if trace_out is not None:
            trace_out.mkdir(parents=True, exist_ok=True)
            tracer.write_chrome(str(trace_out / f"{name}.trace.json"))
    check_invariants(result)
    return result


def check_invariants(result: dict[str, Any]) -> None:
    """The two sums that make the per-layer ledger a ledger."""
    layer = result["per_layer"]
    per_module = sum(value for key, value in layer.items()
                     if key.endswith(".calls_per_record"))
    total = result["end_to_end"]["calls_per_record"]["value"]
    assert abs(per_module - total) <= 1e-9 * total, \
        f"per-layer calls_per_record sum to {per_module}, not {total}"
    shares = [value for key, value in layer.items()
              if key.endswith(".cpu_share")]
    assert not shares or abs(sum(shares) - 1.0) <= 0.01, \
        f"cpu shares sum to {sum(shares)}, not 1"


# ---------------------------------------------------------------- output

def _value(entry: "dict[str, Any] | float") -> float:
    """End-to-end entries carry quartiles next to the value, per-layer
    entries are the bare number."""
    return entry["value"] if isinstance(entry, dict) else entry


def print_workload(name: str, result: dict[str, Any], spec: dict[str, Any],
                   groups: tuple[str, ...]) -> None:
    print(f"== {name}: {result['records']} records, {result['reps']} timed "
          f"reps, {result['failed']} failed of {result['attempted']} "
          f"attempted operations")
    for group in groups:
        for metric in spec[group]:
            entry = result[group].get(metric["name"])
            if entry is None:       # the run failed before deriving it
                continue
            line = f"{_value(entry):.6g} {metric['unit']}"
            if isinstance(entry, dict) and "n" in entry:
                line += (f"  (quartiles {entry['q1']:.6g} .. "
                         f"{entry['q3']:.6g}, n={entry['n']})")
            print(f"  {metric['name']:<42} {line}")


def contract_line(results: dict[str, dict[str, Any]], spec: dict[str, Any],
                  groups: tuple[str, ...]) -> dict[str, Any]:
    """The one JSON object the driver reads from the last output line."""
    metrics: dict[str, dict[str, Any]] = {}
    for name, result in results.items():
        prefix = f"{name}:" if len(results) > 1 else ""
        for group in groups:
            for metric in spec[group]:
                metrics[prefix + metric["name"]] = {
                    "value": _value(result[group][metric["name"]]),
                    "unit": metric["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES,
                        help="run one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; 11 is "
                             f"the hold-out)")
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase per workload "
                             f"(default: {FULL_REPS} reps)")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end metrics only, no traced rep; "
                             "1: per-layer metrics only (default: both)")
    parser.add_argument("--out", type=Path,
                        help="write the full report (every sample) as JSON")
    parser.add_argument("--trace-out", type=Path,
                        help="write each traced rep as Chrome/Perfetto JSON")
    parser.add_argument("--smoke", action="store_true",
                        help=f"inputs / {SMOKE_SCALE}, {SMOKE_REPS} reps")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = (args.workload,) if args.workload else workloads.NAMES
    groups = {"0": ("end_to_end",), "1": ("per_layer",),
              None: ("end_to_end", "per_layer")}[args.trace]
    if args.smoke:
        reps, seconds = SMOKE_REPS, None
    elif args.seconds is not None:
        reps, seconds = None, args.seconds
    else:
        reps, seconds = FULL_REPS, None
    cpu = pin_to_one_cpu()
    # ``--seconds`` covers everything timed for the end-to-end metrics:
    # the import probes (charged to the first workload) and the reps.
    started = time.perf_counter()
    import_samples = engine_import_samples()
    probe_wall = time.perf_counter() - started

    results: dict[str, dict[str, Any]] = {}
    for name in names:
        budget = seconds
        if seconds is not None and not results:
            budget = max(seconds - probe_wall, 0.0)
        results[name] = measure(
            name, seed=args.seed, scale=SMOKE_SCALE if args.smoke else 1,
            with_trace=args.trace != "0", reps=reps, seconds=budget,
            engine_import_s=tuple(import_samples),
            trace_out=args.trace_out)
        print_workload(name, results[name], spec, groups)

    if args.out is not None:
        report = {
            "meta": {
                "seed": args.seed, "smoke": args.smoke,
                "reps": reps, "seconds": seconds,
                "python": platform.python_version(),
                "nproc": os.cpu_count(), "pinned_cpu": cpu,
                "cal_ref_s": calibrate.CAL_REF_S,
                "engine_import_calibrated_s": import_samples,
                "git_commit": git_commit(),
            },
            "workloads": results,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    incomplete = [name for name, result in results.items()
                  if not result["end_to_end"]]
    if incomplete:
        print(f"perf/run.py: no metrics for {incomplete}: every rep of a "
              f"kind failed", file=sys.stderr)
        return 1
    line = contract_line(results, spec, groups)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
