"""``python -m repro.stream``: run the streaming demo scenarios."""

from __future__ import annotations

import argparse
import sys

from repro.stream.demo import DEMOS, run_demo


def render_summary(summary: dict) -> str:
    lines = [f"== stream demo: {summary['scenario']} =="]
    run = summary["runs"][0]
    lines.append(f"windows closed: {run['closed']}  "
                 f"late records: {run['late']}  "
                 f"repaired: {run['recomputed']}")
    for wid, end, clock in run["timeline"]:
        lines.append(f"  window {wid} [end {end:.1f}s] closed at "
                     f"t={clock:.2f}s")
    lines.append(f"stages: incremental={summary['stages_incremental']} "
                 f"full={summary['stages_full']}  "
                 f"cache hits: {summary['cache_hits']}")
    lines.append(f"per-update speedup (full/incremental): "
                 f"{summary['update_speedup']:.2f}x")
    verdict = "bit-identical" if summary["identical"] else "MISMATCH"
    lines.append(f"vs full-batch recompute: {verdict}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream",
        description="Streaming & incremental MapReduce demos")
    parser.add_argument("scenario", nargs="*", metavar="scenario",
                        help=f"which demo(s) to run: "
                             f"{', '.join([*DEMOS, 'all'])} (default: all)")
    parser.add_argument("--nprocs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    for name in args.scenario:
        if name not in DEMOS and name != "all":
            parser.error(f"unknown scenario {name!r} "
                         f"(choose from {', '.join([*DEMOS, 'all'])})")
    wanted = args.scenario or ["all"]
    names = list(DEMOS) if "all" in wanted else wanted
    ok = True
    for name in names:
        summary = run_demo(name, nprocs=args.nprocs, seed=args.seed)
        print(render_summary(summary))
        print()
        ok = ok and summary["identical"]
    if not ok:
        print("FAILED: a streamed result diverged from its batch twin",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
