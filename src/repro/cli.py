"""Command-line interface: the one entry door to every harness.

Each subcommand is a row of :data:`COMMANDS` (name, handler, help,
argument rows); rows several subcommands share are written once.

Examples::

    python -m repro platforms
    python -m repro run wc_uniform --size 4G --framework mimir --hint --pr
    python -m repro run bfs --size 2^22 --platform mira --cps
    python -m repro compare wc_wiki --size 2G
    python -m repro pipeline wordcount pagerank
    python -m repro report wordcount pagerank --trace-out trace.json
    python -m repro stream sessionize
    python -m repro chaos --seeds 20 --storage kv
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import BenchScale, Config, Series, mimir, mrmpi, run_spec
from repro.bench.runner import APPS
from repro.bench.tables import render_memory_time_table
from repro.memory.limits import format_size
from repro.mpi.platforms import PLATFORMS
from repro.serve.catalog import SERVE_APPS
from repro.storage import BACKENDS
from repro.stream.demo import DEMOS, run_demo


def _size_label(text: str) -> str:
    """A paper size label ("4G" bytes, "2^22" or "1000" a count)."""
    try:
        BenchScale(extra_shift=0).size(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size {text!r}: {exc}")
    return text


def _demo_app(name: str) -> str:
    """A ``repro pipeline`` job: a catalog app or ``insitu``."""
    if name not in SERVE_APPS and name != "insitu":
        raise argparse.ArgumentTypeError(f"unknown app {name!r}")
    return name


def _scenario(name: str) -> str:
    """A ``repro stream`` demo: a :data:`DEMOS` row or ``all``."""
    if name not in DEMOS and name != "all":
        raise argparse.ArgumentTypeError(
            f"unknown scenario {name!r} "
            f"(choose from {', '.join([*DEMOS, 'all'])})")
    return name


def _specs(args, *configs: Config):
    """``args.app`` at ``args.size`` under each config."""
    scale = BenchScale(extra_shift=args.shift)
    platform = scale.platform(PLATFORMS[args.platform])
    return [scale.spec(platform, args.app, args.size, config,
                       nprocs=args.nprocs, seed=args.seed)
            for config in configs]


def cmd_platforms(args) -> int:
    scale = BenchScale(extra_shift=args.shift)
    print(f"benchmark scale: {scale.describe()}\n")
    for name, platform in PLATFORMS.items():
        p = scale.platform(platform)
        print(f"{name}:")
        print(f"  procs/node     : {p.procs_per_node}")
        print(f"  node memory    : {format_size(p.node_memory)}")
        print(f"  default page   : {format_size(p.default_page_size)}")
        print(f"  max MR-MPI page: {format_size(p.max_page_size)}")
        print(f"  network        : {p.network.bandwidth:.3g} B/s/link, "
              f"{p.network.latency:.3g} s latency")
        print(f"  PFS            : {p.pfs.effective_bandwidth:.3g} B/s read, "
              f"write penalty {p.pfs.write_penalty:g}x")
        print()
    return 0


def _print_record(record, nprocs: int) -> None:
    if record.oom:
        print("result       : OUT OF MEMORY")
        return
    spill = " (spilled to PFS)" if record.spilled else ""
    print(f"peak memory  : {format_size(record.peak_bytes)} across "
          f"{nprocs} ranks")
    print(f"virtual time : {record.elapsed:.3f}s{spill}")


def cmd_run(args) -> int:
    opts = [opt for opt in ("hint", "pr", "cps", "ooc") if getattr(args, opt)]
    name = f"{args.framework}" + (f" ({';'.join(opts)})" if opts else "")
    spec, = _specs(args, Config(name, args.framework, args.page,
                                hint=args.hint, partial=args.pr,
                                compress=args.cps, out_of_core=args.ooc))
    print(f"running {args.app} ({spec.label}) with {name} on "
          f"{args.platform}...")
    record = run_spec(spec)
    _print_record(record, spec.nprocs)
    return 1 if record.oom else 0


def cmd_pipeline(args) -> int:
    from repro.sched import demo

    return demo.run_demo(args.apps or None, nprocs=args.nprocs,
                         platform=args.platform, memory_limit=args.memory)


def cmd_report(args) -> int:
    from repro.obs.chrome import validate_chrome_trace, write_chrome_trace
    from repro.obs.report import load_trace_report, run_report

    if args.from_trace:
        if args.apps is not REPORT_APPS:
            print(f"error: --from-trace rebuilds a saved report; the "
                  f"app name(s) {' '.join(args.apps)} would be ignored")
            return 2
        try:
            report = load_trace_report(args.from_trace)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load {args.from_trace}: {exc}")
            return 1
    else:
        report = run_report(args.apps, nprocs=args.nprocs,
                            platform=args.platform,
                            memory_limit=args.memory)
    print(report.render())
    if args.trace_out:
        data = write_chrome_trace(report.trace, args.trace_out)
        validate_chrome_trace(data)
        print(f"\nwrote Perfetto trace: {args.trace_out} "
              f"({len(data['traceEvents'])} events) - open it at "
              "https://ui.perfetto.dev")
    return 0


def render_summary(summary: dict) -> str:
    """One streaming demo's :func:`~repro.stream.demo.run_demo` summary."""
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


def cmd_stream(args) -> int:
    names = list(DEMOS) if "all" in (args.scenario or ["all"]) \
        else args.scenario
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


def cmd_chaos(args) -> int:
    from repro.ft.chaos import run_chaos_sweep

    print(f"chaos sweep: {args.seeds} schedules x {args.procs} ranks "
          f"(intensity {args.intensity:g}, "
          f"storage {args.storage or 'default'})")
    sweep = run_chaos_sweep(args.seeds, nprocs=args.procs,
                            intensity=args.intensity,
                            storage=args.storage, verbose=True)
    faulty = [r for r in sweep.records if r.plan.counts()]
    print(f"baseline elapsed : {sweep.baseline_elapsed:.3f}s")
    print(f"schedules with faults: {len(faulty)}/{len(sweep.records)}")
    if not sweep.all_ok:
        bad = [r.seed for r in sweep.records if not r.ok]
        print(f"FAILED seeds: {bad}")
        return 1
    print("all schedules converged to bit-identical output")
    return 0


def cmd_compare(args) -> int:
    # The largest page a node takes, in paper units (see platforms.py).
    max_page = {"mira": "128M"}.get(args.platform, "512M")
    specs = _specs(args, mimir(),
                   mimir("Mimir (hint;pr;cps)", hint=True, partial=True,
                         compress=True),
                   mrmpi("64M", name="MR-MPI (64M)"),
                   mrmpi(max_page, name="MR-MPI (max page)"))
    series = Series(f"{args.app} ({specs[0].label}) on {args.platform}")
    for spec in specs:
        series.add(run_spec(spec))
    print(render_memory_time_table(series))
    return 0


def cmd_serve(args) -> int:
    import time

    from repro.cluster import Cluster
    from repro.sched import ScalingPolicy
    from repro.serve.daemon import ServeConfig, ServeDaemon
    from repro.serve.tenants import TenantManager, TenantQuota

    quotas = {}
    for spec in args.quota or []:
        try:
            tenant, bounds = spec.split("=", 1)
            queued, concurrent = bounds.split(":", 1)
            quotas[tenant] = TenantQuota(max_queued=int(queued),
                                         max_concurrent=int(concurrent))
        except ValueError as exc:
            print(f"error: bad --quota {spec!r} "
                  f"(want tenant=max_queued:max_concurrent): {exc}")
            return 2
    try:
        tenants = TenantManager(quotas, aging_rate=args.aging_rate)
    except ValueError as exc:
        print(f"error: bad --aging-rate: {exc}")
        return 2
    try:
        scaling = ScalingPolicy(max_ranks=args.autoscale_max) \
            if args.autoscale else None
    except ValueError as exc:
        print(f"error: bad --autoscale-max: {exc}")
        return 2
    platform = PLATFORMS[args.platform]
    cluster = Cluster(platform, nprocs=args.nprocs,
                      memory_limit=args.memory, storage=args.storage)
    if args.stage_demo:
        from repro.sched.demo import stage_inputs

        stage_inputs(cluster)
    daemon = ServeDaemon(
        cluster,
        tenants=tenants,
        config=ServeConfig(lease_ttl=args.lease_ttl),
        scaling=scaling)
    interrupted = daemon.recover()
    if interrupted:
        print(f"recovered {len(interrupted)} interrupted job(s): "
              f"{', '.join(interrupted)}")
    port = daemon.start(host=args.host, port=args.port)
    print(f"repro serve: listening on http://{args.host}:{port} "
          f"({args.platform}, {cluster.nprocs} ranks, "
          f"{cluster.pfs.name} storage); Ctrl-C to stop")
    try:
        deadline = time.monotonic() + args.duration if args.duration \
            else None
        while not daemon.crashed:
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.2)
    except KeyboardInterrupt:
        print("\nstopping...")
    daemon.stop()
    if daemon.crashed:
        print(f"daemon crashed: {daemon.crash_error}")
        return 1
    return 0


def _serve_client(args):
    from repro.serve.api import ServeClient

    return ServeClient(args.url, tenant=args.tenant)


def _print_json(doc) -> None:
    import json

    print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_put(args) -> int:
    with open(args.file, "rb") as fh:
        data = fh.read()
    _print_json(_serve_client(args).put_input(args.name, data))
    return 0


def cmd_submit(args) -> int:
    params = {}
    for item in args.param or []:
        if "=" not in item:
            print(f"error: bad --param {item!r} (want key=value)")
            return 2
        key, value = item.split("=", 1)
        if value.lower() in ("true", "false"):
            # The catalog wants a real bool for a flag, never the string.
            params[key] = value.lower() == "true"
            continue
        params[key] = value
        for number in (int, float):
            try:
                params[key] = number(value)
                break
            except ValueError:
                pass
    client = _serve_client(args)
    doc = client.submit(args.app, args.input, params=params,
                        priority=args.priority, footprint=args.footprint)
    if args.wait:
        doc = client.wait(doc["job_id"], timeout=args.timeout)
    _print_json(doc)
    return 0 if doc.get("state") in (None, "queued", "done") else 1


def cmd_status(args) -> int:
    client = _serve_client(args)
    if args.job_id:
        _print_json(client.status(args.job_id))
    else:
        _print_json(client.jobs())
    return 0


def cmd_cancel(args) -> int:
    _print_json(_serve_client(args).cancel(args.job_id))
    return 0


def cmd_logs(args) -> int:
    client = _serve_client(args)
    if args.follow:
        for line in client.follow_log(args.job_id, offset=args.offset,
                                      timeout=args.timeout):
            print(line, flush=True)
        return 0
    if args.offset:
        doc = client.job_log_since(args.job_id, args.offset)
        for line in doc["lines"]:
            print(line)
        print(f"# state={doc['state']} next_offset={doc['next_offset']}",
              file=sys.stderr)
        return 0
    sys.stdout.write(client.job_log(args.job_id))
    return 0


def cmd_fetch(args) -> int:
    client = _serve_client(args)
    data = client.job_log(args.job_id).encode() if args.log \
        else client.output(args.job_id)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
        print(f"wrote {len(data)} bytes to {args.output}")
    else:
        sys.stdout.write(data.decode(errors="replace"))
    return 0


# ------------------------------------------------------------ the table

def _arg(*flags: str, **kwargs):
    """One argument row: ``add_argument``'s flags and keywords."""
    return flags, kwargs


def _but(row, **kwargs):
    """``row`` with some keywords changed."""
    flags, base = row
    return flags, {**base, **kwargs}


_DEFAULT_SIZES = ", ".join(f"{size} for {app}" for app, size in APPS.items())
SHIFT = _arg("--shift", type=int, default=3,
             help="extra benchmark shrink exponent")
PLATFORM = _arg("--platform", choices=sorted(PLATFORMS), default="comet")
NPROCS = _arg("--nprocs", type=int, default=4)
MEMORY = _arg("--memory", default="512K",
              help='per-rank memory budget (e.g. "512K")')
STORAGE = _arg("--storage", choices=BACKENDS, default=None,
               help="storage backend (default: REPRO_STORAGE_BACKEND or "
                    "pfs; see docs/storage.md)")
APP_LIST = _arg("apps", nargs="*", type=_demo_app,
                help=f"jobs to submit ({' '.join(SERVE_APPS)} insitu); "
                     "default: wordcount pagerank")
#: ``repro report``'s default jobs; ``cmd_report`` tells them from an
#: app list the user typed by identity.
REPORT_APPS = ["wordcount"]
SEED = _arg("--seed", type=int, default=0)
WORKLOAD = [
    _arg("app", choices=APPS),
    _arg("--size", type=_size_label, default=None,
         help=f'dataset size: "4G" bytes or "2^22" count '
              f"(default: {_DEFAULT_SIZES})"),
    PLATFORM,
    _but(NPROCS, default=None),
    SEED,
    SHIFT,
]
CLIENT = [
    _arg("--url", default="http://127.0.0.1:8123", help="service base URL"),
    _arg("--tenant", default="default",
         help="tenant identity (X-Tenant header)"),
]
JOB_ID = _arg("job_id")
TIMEOUT = _arg("--timeout", type=float, default=120.0,
               help="timeout in seconds (--wait / --follow)")

#: ``(name, handler, help, argument rows)`` per subcommand.
COMMANDS = [
    ("platforms", cmd_platforms, "describe simulated platforms", [SHIFT]),
    ("run", cmd_run, "run one workload configuration", [
        *WORKLOAD,
        _arg("--framework", choices=["mimir", "mrmpi"], default="mimir"),
        _arg("--hint", action="store_true",
             help="enable the KV-hint optimization"),
        _arg("--pr", action="store_true", help="enable partial reduction"),
        _arg("--cps", action="store_true", help="enable KV compression"),
        _arg("--ooc", action="store_true",
             help="enable out-of-core KV containers (extension)"),
        _arg("--page", type=_size_label, default=None,
             help='MR-MPI page size in paper units (e.g. "512M")'),
    ]),
    ("compare", cmd_compare, "compare frameworks on one workload", WORKLOAD),
    ("pipeline", cmd_pipeline,
     "run a multi-job dataflow pipeline through the scheduler",
     [APP_LIST, PLATFORM, NPROCS, MEMORY]),
    ("report", cmd_report,
     "run jobs through the scheduler with full observability and "
     "render the report", [
         _but(APP_LIST, default=REPORT_APPS,
              help=f"jobs to profile ({' '.join(SERVE_APPS)} insitu); "
                   "default: wordcount"),
         PLATFORM, NPROCS, MEMORY,
         _arg("--trace-out", default=None, metavar="FILE",
              help="also write Chrome/Perfetto trace_event JSON for "
                   "ui.perfetto.dev"),
         _arg("--from-trace", default=None, metavar="FILE",
              help="skip running: rebuild the report from a "
                   "Trace.to_json() file"),
     ]),
    ("stream", cmd_stream, "run the streaming & incremental MapReduce demos",
     [_arg("scenario", nargs="*", type=_scenario,
           help=f"which demo(s) to run: {', '.join([*DEMOS, 'all'])} "
                "(default: all)"),
      _but(NPROCS, default=3),
      SEED]),
    ("chaos", cmd_chaos, "seeded chaos sweep over checkpointed WordCount", [
        _arg("--seeds", type=int, default=20,
             help="number of seeded schedules (default 20)"),
        _arg("--procs", type=int, default=4),
        _arg("--intensity", type=float, default=1.0),
        STORAGE,
    ]),
    ("serve", cmd_serve,
     "run the multi-tenant job service daemon (HTTP/JSON API)", [
         PLATFORM, NPROCS, _but(MEMORY, default="auto"), STORAGE,
         _arg("--host", default="127.0.0.1"),
         _arg("--port", type=int, default=0,
              help="listen port (0 = ephemeral, printed)"),
         _arg("--lease-ttl", type=float, default=60.0,
              help="result lease TTL in seconds"),
         _arg("--aging-rate", type=float, default=1.0,
              help="fair-share priority gain per queued round"),
         _arg("--quota", action="append", metavar="T=Q:C",
              help="per-tenant quota tenant=max_queued:max_concurrent "
                   "(repeatable)"),
         _arg("--stage-demo", action="store_true",
              help="stage the demo datasets on the PFS at boot"),
         _arg("--autoscale", action="store_true",
              help="let a ScalingPolicy resize the gang between rounds"),
         _arg("--autoscale-max", type=int, default=16,
              help="autoscaler rank ceiling (with --autoscale)"),
         _arg("--duration", type=float, default=None,
              help="exit after N seconds (CI smoke)"),
     ]),
    ("put", cmd_put, "stage an input file on the service", [
        *CLIENT,
        _arg("name", help="input name (referenced by submit)"),
        _arg("file", help="local file to upload"),
    ]),
    ("submit", cmd_submit, "submit a job to the service", [
        *CLIENT,
        _arg("app", help=f"catalog app ({' '.join(SERVE_APPS)})"),
        _arg("input", help="staged input name or shared PFS path"),
        _arg("--param", action="append", metavar="K=V",
             help="app parameter (repeatable)"),
        _arg("--priority", type=int, default=0),
        _arg("--footprint", default=None,
             help='declared per-rank footprint (e.g. "64K")'),
        _arg("--wait", action="store_true",
             help="poll until the job reaches a terminal state"),
        TIMEOUT,
    ]),
    ("status", cmd_status, "job status (or list all jobs)",
     [*CLIENT, _but(JOB_ID, nargs="?", default=None)]),
    ("cancel", cmd_cancel, "cancel a queued job", [*CLIENT, JOB_ID]),
    ("logs", cmd_logs, "fetch (or follow) a job's service-side log", [
        *CLIENT, JOB_ID,
        _arg("-f", "--follow", action="store_true",
             help="poll ?offset=N and stream new lines until the job is "
                  "terminal"),
        _arg("--offset", type=int, default=0,
             help="start the cursor at line N"),
        TIMEOUT,
    ]),
    ("fetch", cmd_fetch, "fetch a job's output artifact", [
        *CLIENT, JOB_ID,
        _arg("-o", "--output", default=None, metavar="FILE",
             help="write to FILE instead of stdout"),
        _arg("--log", action="store_true",
             help="fetch the service-side job log instead"),
    ]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mimir (IPDPS 2017) reproduction - simulated "
                    "MapReduce-over-MPI workloads")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, rows in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flags, kwargs in rows:
            command.add_argument(*flags, **kwargs)
        command.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        # Client commands surface service errors as structured JSON
        # (the 429 quota body, 409 conflicts, ...), not tracebacks.
        from repro.serve.api import ServeAPIError

        if isinstance(exc, ServeAPIError):
            _print_json(dict(exc.body, status=exc.status))
            return 1
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
