"""Core-engine benchmark: both kernel forms, codec on/off, every backend.

Runs the three core applications (WordCount on uniform and Zipf text,
PageRank, TeraSort) through every combination of

- **kernel form** - ``batch`` (``@batch_kernel`` whole-page kernels,
  bulk emits) vs ``per_record`` (the paper's per-record callbacks);
  one driver runs both, so this axis must change nothing (PageRank has
  one kernel form, so both of its cells run the same job);
- **codec** - off vs ``dedup+zlib`` (frozen container pages, framed
  spills and exchange parts).

on the stock Comet platform.  Every sweep asserts the four
configurations produce **bit-identical** outputs (word counts, PageRank
score bits, the TeraSort output file), then records
records-per-virtual-second and the hottest rank's peak bytes.  A second
sweep runs batch WordCount and TeraSort on every storage backend
(``pfs``/``kv``/``extsort``, see docs/storage.md) and asserts backend
choice never changes an answer.  What the two kernel forms cost on the
*host* clock is measured by ``perf/run.py`` (see perf/README.md), not
modelled here.  Results append to ``BENCH_core.json`` at the repo root
as a tracked trajectory; ``--check`` gates against the last committed
entry and fails if batch WordCount throughput on the default backend
regressed more than 10%.

Runs under pytest (``pytest benchmarks/bench_core_throughput.py``) or
standalone::

    python benchmarks/bench_core_throughput.py [--smoke] [--check]
        [--no-write] [--trace-out TRACE.json]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from figutils import append_trajectory
from repro.apps.pagerank import pagerank_plan
from repro.apps.terasort import generate_records, terasort_mimir
from repro.apps.wordcount import wordcount_plan
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets import edges_to_bytes, kronecker_edges
from repro.datasets.words import uniform_text, zipf_text
from repro.mpi.platforms import COMET
from repro.storage import BACKENDS

NPROCS = 4
#: Small pages so the codec's freeze-on-fill has several pages to
#: compress even at benchmark scale, and a small comm buffer so the
#: container pages (what the codec shrinks) dominate the rank peak.
PAGE_SIZE = 8 * 1024
COMM_BUFFER = 16 * 1024
CODEC = "dedup+zlib"
#: (kernel form, codec) cells of the sweep grid.
GRID = [("per_record", None), ("batch", None),
        ("per_record", CODEC), ("batch", CODEC)]

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"


def bench_config(codec):
    return MimirConfig(page_size=PAGE_SIZE, comm_buffer_size=COMM_BUFFER,
                       codec=codec)


def measure(cluster, result, digest):
    totals = cluster.metrics.totals()
    records = totals.get("core.map.records", 0)
    elapsed = result.elapsed
    return {
        "records": records,
        "virtual_elapsed": elapsed,
        "records_per_vsecond": records / elapsed if elapsed else None,
        "max_rank_peak_bytes": result.max_rank_peak_bytes,
        "codec_bytes_in": totals.get("core.codec.bytes_in", 0),
        "codec_bytes_out": totals.get("core.codec.bytes_out", 0),
        "digest": digest,
    }


# ------------------------------------------------------------------- apps

def run_wordcount(batch, codec, *, nbytes, skewed, storage=None):
    cluster = Cluster(COMET, nprocs=NPROCS, storage=storage)
    text = (zipf_text(nbytes, seed=7) if skewed
            else uniform_text(nbytes, seed=7))
    cluster.pfs.store("bench/words.txt", text)
    config = bench_config(codec)
    result = cluster.run(lambda env: wordcount_plan(
        env, "bench/words.txt", config, batch=(batch == "batch"),
        collect=True))
    counts = {}
    for rank_result in result.returns:
        counts.update(rank_result.counts)
    blob = b"".join(word + b"=%d\n" % count
                    for word, count in sorted(counts.items()))
    return measure(cluster, result, hashlib.sha256(blob).hexdigest())


def run_pagerank(_batch, codec, *, scale, iterations):
    # One kernel form: its pipeline folds with the batch kernel wherever
    # the layout fixes the score's width.
    cluster = Cluster(COMET, nprocs=NPROCS)
    edges = kronecker_edges(scale=scale, edgefactor=8, seed=11)
    cluster.pfs.store("bench/graph.bin", edges_to_bytes(edges))
    config = bench_config(codec)
    result = cluster.run(lambda env: pagerank_plan(
        env, "bench/graph.bin", config, iterations=iterations))
    scores = {}
    for rank_result in result.returns:
        scores.update(rank_result.ranks)
    # float.hex is exact: any single-bit score divergence changes it.
    blob = "".join(f"{v}:{score.hex()}\n"
                   for v, score in sorted(scores.items())).encode()
    return measure(cluster, result, hashlib.sha256(blob).hexdigest())


def run_terasort(batch, codec, *, nrecords, storage=None):
    cluster = Cluster(COMET, nprocs=NPROCS, storage=storage)
    cluster.pfs.store("bench/tera.in", generate_records(nrecords, seed=3))
    config = bench_config(codec)
    result = cluster.run(lambda env: terasort_mimir(
        env, "bench/tera.in", "bench/tera.out", config,
        batch=(batch == "batch")))
    output = cluster.pfs.fetch("bench/tera.out")
    return measure(cluster, result, hashlib.sha256(output).hexdigest())


def app_matrix(smoke: bool):
    text = 1 << 15 if smoke else 1 << 17
    return [
        ("wordcount-uniform", run_wordcount,
         {"nbytes": text, "skewed": False}),
        ("wordcount-zipf", run_wordcount,
         {"nbytes": text, "skewed": True}),
        ("pagerank", run_pagerank,
         {"scale": 5 if smoke else 6, "iterations": 2 if smoke else 3}),
        ("terasort", run_terasort,
         {"nrecords": 300 if smoke else 1500}),
    ]


# ------------------------------------------------------------------ sweep

def run_sweep(smoke: bool, verbose: bool = False):
    apps = {}
    for name, runner, kwargs in app_matrix(smoke):
        cells = {}
        for mode, codec in GRID:
            key = f"{mode}/{codec or 'raw'}"
            cells[key] = dict(runner(mode, codec, **kwargs),
                              mode=mode, codec=codec)
            if verbose:
                row = cells[key]
                print(f"  {name:<18} {key:<20} "
                      f"{row['records_per_vsecond']:>12.0f} rec/vs  "
                      f"peak {row['max_rank_peak_bytes']:>8d}")
        digests = {row["digest"] for row in cells.values()}
        assert len(digests) == 1, \
            f"{name}: outputs diverged across the sweep grid: {digests}"
        batch = cells["batch/raw"]
        zipped = cells[f"batch/{CODEC}"]
        cells["summary"] = {
            "identical": True,
            "codec_peak_reduction": (batch["max_rank_peak_bytes"]
                                     / zipped["max_rank_peak_bytes"]),
            "codec_compression_ratio": (
                zipped["codec_bytes_in"] / zipped["codec_bytes_out"]
                if zipped["codec_bytes_out"] else None),
        }
        apps[name] = cells
    return apps


def check_apps(apps):
    for name, cells in apps.items():
        summary = cells["summary"]
        assert summary["identical"], f"{name}: outputs not identical"
    zipf = apps["wordcount-zipf"]["summary"]
    assert zipf["codec_peak_reduction"] >= 1.2, \
        (f"codec trims zipf peak by only "
         f"{zipf['codec_peak_reduction']:.2f}x (need >= 1.2x)")


def run_backend_sweep(smoke: bool, verbose: bool = False):
    """Batch-mode WordCount and TeraSort on every storage backend.

    The regression gate stays pinned to the default (pfs) rows in
    ``apps``; this sweep adds the per-backend dimension - throughput on
    each substrate plus proof the answers never depend on the backend.
    """
    text = 1 << 15 if smoke else 1 << 17
    nrecords = 300 if smoke else 1500
    backends = {}
    for name, runner, kwargs in (
            ("wordcount-uniform", run_wordcount,
             {"nbytes": text, "skewed": False}),
            ("terasort", run_terasort, {"nrecords": nrecords})):
        rows = {}
        for spec in BACKENDS:
            rows[spec] = runner("batch", None, storage=spec, **kwargs)
            if verbose:
                row = rows[spec]
                print(f"  {name:<18} backend={spec:<8} "
                      f"{row['records_per_vsecond']:>12.0f} rec/vs")
        digests = {row["digest"] for row in rows.values()}
        assert len(digests) == 1, \
            f"{name}: outputs diverged across backends: {digests}"
        backends[name] = rows
    return backends


# ------------------------------------------------------------- trajectory

def make_entry(smoke: bool) -> dict:
    apps = run_sweep(smoke, verbose=True)
    check_apps(apps)
    backends = run_backend_sweep(smoke, verbose=True)
    return {
        "smoke": smoke,
        "config": {"nprocs": NPROCS, "page_size": PAGE_SIZE,
                   "codec": CODEC, "backends": list(BACKENDS)},
        "apps": apps,
        "backends": backends,
    }


def check_regression(path: Path, entry: dict, *,
                     tolerance: float = 0.10) -> list[str]:
    """Compare batch throughput against the last committed matching entry.

    Returns a list of human-readable failures (empty = gate passes).
    Virtual time is deterministic, so any drop is a real code-path
    regression, but the gate still allows ``tolerance`` slack for
    intentional cost-model adjustments.  Only entries recorded under
    the same ``config`` block are comparable.
    """
    if not path.exists():
        return []
    history = json.loads(path.read_text())["history"]
    previous = next((e for e in reversed(history)
                     if e["smoke"] == entry["smoke"]
                     and e["config"] == entry["config"]), None)
    if previous is None:
        return []
    failures = []
    for name, cells in entry["apps"].items():
        old = previous["apps"].get(name, {}).get("batch/raw")
        if not old or not old.get("records_per_vsecond"):
            continue
        new_tp = cells["batch/raw"]["records_per_vsecond"]
        floor = old["records_per_vsecond"] * (1.0 - tolerance)
        if new_tp < floor:
            failures.append(
                f"{name}: batch throughput {new_tp:.0f} rec/vs is below "
                f"{floor:.0f} (last run {old['records_per_vsecond']:.0f}, "
                f"tolerance {tolerance:.0%})")
    return failures


# ---------------------------------------------------------------- tracing

def write_batch_trace(path: str, *, nbytes: int) -> None:
    """One batch WordCount with spans attached, exported for Perfetto."""
    from repro.obs import Trace, write_chrome_trace

    trace = Trace()
    cluster = Cluster(COMET, nprocs=NPROCS, trace=trace)
    cluster.pfs.store("bench/words.txt", uniform_text(nbytes, seed=7))

    def rank_fn(env):
        with env.trace.span(env, "wordcount-batch", rank=env.comm.rank):
            return wordcount_plan(
                env, "bench/words.txt", bench_config(None),
                batch=True).unique_words

    cluster.run(rank_fn)
    write_chrome_trace(trace, path)


# ------------------------------------------------------------------ pytest

def test_backend_matrix_outputs_identical():
    backends = run_backend_sweep(True)
    for name, rows in backends.items():
        assert {row["digest"] for row in rows.values()}, name


def test_codec_reduction_and_identity(benchmark):
    apps = benchmark.pedantic(run_sweep, args=(True,), rounds=1,
                              iterations=1)
    check_apps(apps)
    print(f"\n== core throughput: {NPROCS} ranks, smoke sizes ==")
    for name, cells in apps.items():
        summary = cells["summary"]
        print(f"  {name:<18} "
              f"codec peak /{summary['codec_peak_reduction']:.2f}, "
              "outputs identical")


# ------------------------------------------------------------------ driver

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep for CI")
    parser.add_argument("--no-write", action="store_true",
                        help="skip updating BENCH_core.json")
    parser.add_argument("--check", action="store_true",
                        help="fail if batch throughput regressed >10% "
                             "vs the last committed matching entry")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="also export a Perfetto trace of one "
                             "batch wordcount run")
    args = parser.parse_args(argv)

    print(f"core benchmark: {NPROCS} ranks, page {PAGE_SIZE}, "
          f"codec {CODEC}")
    entry = make_entry(args.smoke)
    for name, cells in entry["apps"].items():
        summary = cells["summary"]
        print(f"{name:<18}: codec peak reduction "
              f"{summary['codec_peak_reduction']:.2f}x, "
              "outputs bit-identical across the grid")

    if args.check:
        failures = check_regression(BENCH_PATH, entry)
        if failures:
            for line in failures:
                print(f"REGRESSION: {line}", file=sys.stderr)
            return 1
        print("regression gate: ok")
    if args.trace_out:
        write_batch_trace(args.trace_out,
                          nbytes=1 << 14 if args.smoke else 1 << 16)
        print(f"perfetto trace written to {args.trace_out}")
    if not args.no_write:
        append_trajectory(BENCH_PATH, entry, benchmark="core-batch-throughput")
        print(f"trajectory appended to {BENCH_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
