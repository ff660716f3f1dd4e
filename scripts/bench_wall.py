#!/usr/bin/env python
"""Append the reference benchmark's wall-clock rows to ``BENCH_wall.json``.

Reads reports written by ``perf/run.py --out`` and appends one row per
workload and seed: the commit, the calibration reference and the host
(``python``, ``nproc``), ``records_per_s`` as median, quartiles and rep
count, and the run's ``calls_per_record``, ``host_peak_bytes`` and
``virtual_s``.  ``perf/`` itself stays untouched: this is the one
place its reports become a trajectory.

    python scripts/bench_wall.py REPORT.json [REPORT.json ...]
    python scripts/bench_wall.py --commit SHA REPORT.json
    python scripts/bench_wall.py --check REPORT.json

``--commit`` names the commit when the report says ``unknown`` (a run
outside a git checkout).  ``--check`` builds the rows, validates their
schema and exits non-zero on a bad one, without writing anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_wall.json"

#: Field -> type of one row; ``records_per_s`` is a dict of its own.
ROW_SCHEMA = {
    "commit": str, "workload": str, "seed": int, "smoke": bool,
    "cal_ref_s": float, "python": str, "nproc": int,
    "records_per_s": dict, "calls_per_record": float,
    "host_peak_bytes": int, "virtual_s": float,
}
RATE_SCHEMA = {"median": float, "q1": float, "q3": float, "n": int}


def rows_of(report: dict, commit: str | None = None) -> list[dict]:
    """One row per workload of a ``perf/run.py --out`` report."""
    meta = report["meta"]
    rows = []
    for name, result in report["workloads"].items():
        e2e = result["end_to_end"]
        rate = e2e["records_per_s"]
        rows.append({
            "commit": commit or meta["git_commit"], "workload": name,
            "seed": meta["seed"], "smoke": meta["smoke"],
            "cal_ref_s": meta["cal_ref_s"], "python": meta["python"],
            "nproc": meta["nproc"],
            "records_per_s": {"median": rate["value"], "q1": rate["q1"],
                              "q3": rate["q3"], "n": rate["n"]},
            "calls_per_record": e2e["calls_per_record"]["value"],
            "host_peak_bytes": int(e2e["host_peak_bytes"]["value"]),
            "virtual_s": e2e["virtual_s"]["value"],
        })
    return rows


def _is(value, kind: type) -> bool:
    """``isinstance``, where an int is a valid float and a bool is only
    a bool."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_fields(what: str, entry: dict, schema: dict) -> list[str]:
    errors = [f"{what}: unknown field {key!r}" for key in entry
              if key not in schema]
    for key, kind in schema.items():
        if key not in entry:
            errors.append(f"{what}: field {key!r} is missing")
        elif not _is(entry[key], kind):
            errors.append(f"{what}: {key} is {entry[key]!r}, not "
                          f"{kind.__name__}")
    return errors


def check_row(row: dict) -> list[str]:
    """Every schema error of one row (empty: the row is valid)."""
    what = f"{row.get('workload', '?')}/seed {row.get('seed', '?')}"
    errors = _check_fields(what, row, ROW_SCHEMA)
    if isinstance(row.get("records_per_s"), dict):
        errors += _check_fields(f"{what} records_per_s",
                                row["records_per_s"], RATE_SCHEMA)
    if not errors and (row["records_per_s"]["n"] < 1 or
                       row["calls_per_record"] <= 0 or
                       row["host_peak_bytes"] <= 0):
        errors.append(f"{what}: empty measurement")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="+", type=Path,
                        help="perf/run.py --out files")
    parser.add_argument("--check", action="store_true",
                        help="validate the rows' schema; append nothing")
    parser.add_argument("--commit", help="commit to record instead of the "
                                         "report's own")
    parser.add_argument("--out", type=Path, default=TRAJECTORY,
                        help=f"trajectory file (default {TRAJECTORY.name})")
    args = parser.parse_args(argv)

    rows = [row for path in args.reports
            for row in rows_of(json.loads(path.read_text()), args.commit)]
    errors = [error for row in rows for error in check_row(row)]
    for error in errors:
        print(f"bench_wall: {error}", file=sys.stderr)
    if errors or not rows:
        return 1
    for row in rows:
        rate = row["records_per_s"]
        print(f"{row['commit'][:10]} seed {row['seed']} "
              f"{row['workload']:<14} {rate['median']:>12,.0f} rec/s "
              f"{row['calls_per_record']:8.4f} calls/rec "
              f"{row['host_peak_bytes']:>10,} B")
    if args.check:
        return 0
    trajectory = json.loads(args.out.read_text()) if args.out.exists() \
        else {"benchmark": "perf/run.py", "rows": []}
    trajectory["rows"].extend(rows)
    args.out.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
