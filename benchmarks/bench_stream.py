"""Streaming benchmark: window throughput and incremental speedup.

Runs the three :mod:`repro.stream` demo scenarios end to end and
measures, in *virtual* time,

- **windows per virtual second** - how fast the tumbling-window
  wordcount closes windows against its paced document trickle;
- **incremental-vs-full speedup** - PageRank under edge insertions
  run twice (stage cache on / off); the ratio of per-update cost is
  what lineage-keyed batch reuse buys;
- **cache hit rate** - fraction of per-batch stages the incremental
  pass served from the :class:`~repro.sched.cache.StageCache`;
- **repair correctness** - sessionization with genuinely late clicks
  must repair closed windows and still match its batch twin.

``--check`` gates the run: every scenario bit-identical to its
full-batch recompute, incremental PageRank strictly fewer stage
executions than the uncached pass with cache hits > 0, and a tracked
per-update speedup of at least 2x at the default size.

Results append to ``BENCH_stream.json`` at the repo root as a tracked
trajectory.  Runs standalone (``python benchmarks/bench_stream.py
[--smoke] [--check] [--trace-out FILE]``) or under pytest.
"""

import argparse
import sys
from pathlib import Path

from figutils import append_trajectory
from repro.stream.demo import run_demo

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_stream.json"
#: The --check gate on incremental PageRank's per-update speedup.
MIN_UPDATE_SPEEDUP = 2.0


def run_scenarios(seed: int = 0, *, trace=None) -> dict:
    wc = run_demo("wordcount", seed=seed, trace=trace)
    wc_run = wc["runs"][0]
    pr = run_demo("pagerank", seed=seed)
    pr_hits = sum(r["cache_hits"] for r in pr["runs"])
    pr_misses = sum(r["cache_misses"] for r in pr["runs"])
    sz = run_demo("sessionize", seed=seed)
    return {
        "seed": seed,
        "wordcount": {
            "identical": wc["identical"],
            "windows_closed": wc_run["closed"],
            "virtual_elapsed": wc["virtual_time"],
            "windows_per_vsecond": wc_run["closed"] / wc["virtual_time"],
        },
        "pagerank": {
            "identical": pr["identical"],
            "full_identical": pr["full_identical"],
            "stages_incremental": pr["stages_incremental"],
            "stages_full": pr["stages_full"],
            "cache_hits": pr["cache_hits"],
            "cache_hit_rate": pr_hits / (pr_hits + pr_misses)
            if pr_hits + pr_misses else 0.0,
            "update_speedup": pr["update_speedup"],
        },
        "sessionize": {
            "identical": sz["identical"],
            "late_records": sz["late"],
            "windows_repaired": sz["recomputed"],
        },
    }


def check_row(row: dict) -> None:
    wc, pr, sz = row["wordcount"], row["pagerank"], row["sessionize"]
    assert wc["identical"], "streamed wordcount diverged from batch"
    assert wc["windows_per_vsecond"] > 0
    assert pr["identical"] and pr["full_identical"], \
        "streamed pagerank diverged from batch"
    assert pr["stages_incremental"] < pr["stages_full"], (
        f"incremental recompute did not save stages: "
        f"{pr['stages_incremental']} vs {pr['stages_full']}")
    assert pr["cache_hits"] > 0, "stage cache never hit"
    assert pr["update_speedup"] >= MIN_UPDATE_SPEEDUP, (
        f"per-update speedup {pr['update_speedup']:.2f}x below the "
        f"{MIN_UPDATE_SPEEDUP:.1f}x gate")
    assert sz["identical"], "sessionization diverged from batch"
    assert sz["late_records"] > 0, "late-click injection went missing"
    assert sz["windows_repaired"] > 0, "no closed window was repaired"


# ------------------------------------------------------------- trajectory

def make_entry(nseeds: int, *, smoke: bool, trace=None) -> dict:
    rows = [run_scenarios(seed, trace=trace if seed == 0 else None)
            for seed in range(nseeds)]
    speedups = [r["pagerank"]["update_speedup"] for r in rows]
    return {
        "smoke": smoke,
        "config": {"nseeds": nseeds,
                   "min_update_speedup": MIN_UPDATE_SPEEDUP},
        "sweep": rows,
        "summary": {
            "mean_windows_per_vsecond": sum(
                r["wordcount"]["windows_per_vsecond"]
                for r in rows) / len(rows),
            "mean_update_speedup": sum(speedups) / len(speedups),
            "worst_update_speedup": min(speedups),
            "mean_cache_hit_rate": sum(
                r["pagerank"]["cache_hit_rate"]
                for r in rows) / len(rows),
            "all_identical": all(
                r["wordcount"]["identical"] and r["pagerank"]["identical"]
                and r["sessionize"]["identical"] for r in rows),
        },
    }


# ------------------------------------------------------------------ pytest

def test_stream_benchmark_gates():
    row = run_scenarios(0)
    check_row(row)
    pr = row["pagerank"]
    print(f"\n== stream: incremental pagerank ==")
    print(f"  stages     : {pr['stages_incremental']} incremental vs "
          f"{pr['stages_full']} full")
    print(f"  cache      : {pr['cache_hits']} hits "
          f"({pr['cache_hit_rate']:.0%})")
    print(f"  speedup    : {pr['update_speedup']:.2f}x per update")


# ------------------------------------------------------------------ driver

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="single-seed sweep for CI")
    parser.add_argument("--seeds", type=int, default=None)
    parser.add_argument("--check", action="store_true",
                        help="fail on identity or speedup regressions")
    parser.add_argument("--no-write", action="store_true",
                        help="skip updating BENCH_stream.json")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Perfetto trace of the seed-0 "
                             "wordcount stream")
    args = parser.parse_args(argv)
    nseeds = args.seeds if args.seeds is not None else \
        (1 if args.smoke else 3)

    trace = None
    if args.trace_out:
        from repro.obs import Trace

        trace = Trace()
    print(f"stream benchmark: {nseeds} seed(s), three scenarios")
    entry = make_entry(nseeds, smoke=args.smoke, trace=trace)
    if args.check:
        for row in entry["sweep"]:
            check_row(row)
    summary = entry["summary"]
    print(f"windows/vsecond     : "
          f"{summary['mean_windows_per_vsecond']:.3f}")
    print(f"update speedup      : {summary['mean_update_speedup']:.2f}x "
          f"mean, {summary['worst_update_speedup']:.2f}x worst")
    print(f"cache hit rate      : {summary['mean_cache_hit_rate']:.0%}")
    print(f"bit-identical       : {summary['all_identical']}")
    if args.trace_out:
        from repro.obs.chrome import validate_chrome_trace, write_chrome_trace

        data = write_chrome_trace(trace, args.trace_out)
        validate_chrome_trace(data)
        print(f"wrote Perfetto trace: {args.trace_out} "
              f"({len(data['traceEvents'])} events)")
    if not args.no_write:
        append_trajectory(BENCH_PATH, entry, benchmark="stream-incremental")
        print(f"trajectory appended to {BENCH_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
