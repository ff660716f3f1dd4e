"""Compare benchmark reports: ``compare.py A.json B.json [A2 B2 ...]``.

Every argument is a report written by ``run.py --out``; they come in
pairs, ``A`` measured on the parent commit and ``B`` on the change
(for an A/B, alternate which side runs first from pair to pair).  For
each workload and end-to-end metric the tool prints both medians, the
ratio ``B/A`` (so the base is always A), how much worse B is as a
share of A, the parent's own spread, and a verdict using the bounds in
``BENCHMARK.json``:

- ``regressed``  B is worse than A by more than the bound (and by more
  than the parent's spread);
- ``unresolved`` the parent's spread exceeds the bound, so "no
  regression" cannot be told from noise;
- ``improved``   only with several pairs: B wins at least nine tenths
  of them (ties count for neither side) and the medians differ by more
  than the parent's interquartile range - the rule for claiming a gain;
- ``ok``         otherwise.

The parent's spread is the distance between the quartiles of its run
values as a share of their median.  With a single pair there is only
one run, so the quartiles of its reps stand in, divided by ``sqrt(n)``
to make them a spread of the median; metrics measured once per run
(counts, simulated time, peaks) then have no spread and compare exactly.

Exit status is non-zero if anything regressed or if B failed a higher
share of its operations than A.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (a - b) / a if better == "higher" else (b - a) / a


def run_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def rep_spread(entry: dict[str, Any]) -> float:
    """Spread of one run's median, from the quartiles of its reps."""
    if "n" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"]) \
        / math.sqrt(entry["n"])


def judge(a_runs: list[dict[str, Any]], b_runs: list[dict[str, Any]],
          better: str, bound: float) -> dict[str, Any]:
    """Verdict for one workload x metric over the paired runs."""
    a_values = [entry["value"] for entry in a_runs]
    b_values = [entry["value"] for entry in b_runs]
    a_median = statistics.median(a_values)
    b_median = statistics.median(b_values)
    spread = run_spread(a_values) if len(a_values) > 1 \
        else rep_spread(a_runs[0])
    worse = worse_by(a_median, b_median, better)
    wins = sum(1 for a, b in zip(a_values, b_values)
               if worse_by(a, b, better) < 0)
    if worse > max(bound, spread):
        verdict = "regressed"
    elif spread > bound:
        verdict = "unresolved"
    elif len(a_values) > 1 and wins >= WIN_SHARE * len(a_values) and \
            abs(worse) > spread:
        verdict = "improved"
    else:
        verdict = "ok"
    return {"a": a_median, "b": b_median, "ratio": b_median / a_median,
            "worse": worse, "spread": spread, "wins": wins,
            "verdict": verdict}


def failed_share(reports: list[dict[str, Any]], workload: str) -> float:
    runs = [report["workloads"][workload] for report in reports]
    return sum(run["failed"] for run in runs) / \
        sum(run["attempted"] for run in runs)


def compare(a_reports: list[dict[str, Any]], b_reports: list[dict[str, Any]],
            spec: dict[str, Any]) -> tuple[list[dict[str, Any]], bool]:
    """Rows for every workload x end-to-end metric, and the pass flag."""
    rows: list[dict[str, Any]] = []
    passed = True
    shared = [w["name"] for w in spec["workloads"]
              if all(w["name"] in report["workloads"]
                     for report in a_reports + b_reports)]
    for workload in shared:
        a_failed = failed_share(a_reports, workload)
        b_failed = failed_share(b_reports, workload)
        if b_failed > a_failed:
            passed = False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = judge(
                [r["workloads"][workload]["end_to_end"][name]
                 for r in a_reports],
                [r["workloads"][workload]["end_to_end"][name]
                 for r in b_reports],
                metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"], a_failed=a_failed,
                       b_failed=b_failed)
            if row["verdict"] == "regressed":
                passed = False
            rows.append(row)
    return rows, passed


def render(rows: list[dict[str, Any]], pairs: int) -> str:
    lines = [f"{pairs} pair(s); ratio is B/A, 'worse' is B's loss as a "
             f"share of A (negative = better)",
             f"{'workload':<14} {'metric':<19} {'A median':>12} "
             f"{'B median':>12} {'B/A':>7} {'worse':>8} {'spread':>7} "
             f"{'bound':>6} {'B wins':>6}  verdict"]
    previous = None
    for row in rows:
        if row["workload"] != previous and \
                (row["a_failed"] or row["b_failed"]):
            lines.append(f"{row['workload']:<14} failed share: "
                         f"A {row['a_failed']:.3f}  B {row['b_failed']:.3f}"
                         + ("  HIGHER" if row["b_failed"] > row["a_failed"]
                            else ""))
        previous = row["workload"]
        lines.append(
            f"{row['workload']:<14} {row['metric']:<19} {row['a']:>12.6g} "
            f"{row['b']:>12.6g} {row['ratio']:>7.4f} {row['worse']:>+8.2%} "
            f"{row['spread']:>7.2%} {row['bound']:>6.1%} "
            f"{row['wins']:>3}/{pairs:<2}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("expected an even number of report files: A B [A2 B2 ...]",
              file=sys.stderr)
        return 2
    reports = [json.loads(Path(path).read_text()) for path in paths]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, passed = compare(reports[0::2], reports[1::2], spec)
    print(render(rows, len(paths) // 2))
    print("PASS" if passed else "FAIL: a metric regressed or B failed a "
                                "higher share of its operations")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
