"""Command-line interface: run workloads and inspect platforms.

Examples::

    python -m repro platforms
    python -m repro run wc_uniform --size 4G --framework mimir --hint --pr
    python -m repro run bfs --size 2^22 --platform mira --cps
    python -m repro compare wc_wiki --size 2G
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import BenchScale, ExperimentSpec, Series, run_spec
from repro.bench.runner import APPS
from repro.bench.tables import render_memory_time_table
from repro.memory.limits import format_size, parse_size
from repro.mpi.platforms import PLATFORMS
from repro.storage import BACKENDS


def _parse_size_arg(scale: BenchScale, app: str, text: str) -> int:
    """Accept "4G" byte sizes for WC and "2^22" counts for OC/BFS."""
    if text.startswith("2^"):
        return scale.count(1 << int(text[2:]))
    if app in ("wc_uniform", "wc_wiki"):
        return scale.size(text)
    return scale.count(int(text))


def _spec_from_args(args, scale: BenchScale, config_name: str,
                    framework: str, *, hint=False, pr=False, cps=False,
                    mrmpi_page: int | None = None) -> ExperimentSpec:
    platform = scale.platform(PLATFORMS[args.platform])
    return ExperimentSpec(
        label=args.size, config_name=config_name, platform=platform,
        nprocs=args.nprocs or platform.procs_per_node,
        app=args.app, framework=framework,
        size=_parse_size_arg(scale, args.app, args.size),
        mrmpi_page=mrmpi_page, hint=hint, partial=pr, compress=cps,
        seed=args.seed)


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
    scale = BenchScale(extra_shift=args.shift)
    opts = []
    if args.hint:
        opts.append("hint")
    if args.pr:
        opts.append("pr")
    if args.cps:
        opts.append("cps")
    if getattr(args, "ooc", False):
        opts.append("ooc")
    name = f"{args.framework}" + (f" ({';'.join(opts)})" if opts else "")
    page = None
    if args.framework == "mrmpi":
        platform = scale.platform(PLATFORMS[args.platform])
        page = max(1, parse_size(args.page) >> scale.total_shift) \
            if args.page else platform.default_page_size
    spec = _spec_from_args(args, scale, name, args.framework,
                           hint=args.hint, pr=args.pr, cps=args.cps,
                           mrmpi_page=page)
    if getattr(args, "ooc", False):
        from dataclasses import replace

        spec = replace(spec, out_of_core=True)
    print(f"running {args.app} ({args.size}) with {name} on "
          f"{args.platform}...")
    record = run_spec(spec)
    _print_record(record, spec.nprocs)
    return 1 if record.oom else 0


def cmd_pipeline(args) -> int:
    from repro.sched.demo import run_demo

    return run_demo(args.apps or None, nprocs=args.nprocs,
                    platform=args.platform, memory_limit=args.memory)


def cmd_report(args) -> int:
    from repro.obs.chrome import validate_chrome_trace, write_chrome_trace
    from repro.obs.report import (
        load_trace_report,
        run_pipeline_report,
        run_wordcount_report,
    )

    if args.from_trace:
        try:
            report = load_trace_report(args.from_trace)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load {args.from_trace}: {exc}")
            return 1
    elif args.app == "pipeline":
        report = run_pipeline_report(nprocs=args.nprocs,
                                     platform=args.platform,
                                     memory_limit=args.memory)
    else:
        report = run_wordcount_report(nprocs=args.nprocs,
                                      platform=args.platform)
    print(report.render())
    if args.trace_out:
        data = write_chrome_trace(report.trace, args.trace_out)
        validate_chrome_trace(data)
        print(f"\nwrote Perfetto trace: {args.trace_out} "
              f"({len(data['traceEvents'])} events) - open it at "
              "https://ui.perfetto.dev")
    return 0


def cmd_compare(args) -> int:
    scale = BenchScale(extra_shift=args.shift)
    platform = scale.platform(PLATFORMS[args.platform])
    series = Series(f"{args.app} ({args.size}) on {args.platform}")
    configs = [
        ("Mimir", "mimir", {}, None),
        ("Mimir (hint;pr;cps)", "mimir",
         {"hint": True, "pr": True, "cps": True}, None),
        ("MR-MPI (64M)", "mrmpi", {}, platform.default_page_size),
        ("MR-MPI (max page)", "mrmpi", {}, platform.max_page_size),
    ]
    for name, framework, opts, page in configs:
        series.add(run_spec(_spec_from_args(
            args, scale, name, framework, mrmpi_page=page, **opts)))
    print(render_memory_time_table(series))
    return 0


def cmd_serve(args) -> int:
    import time

    from repro.cluster import Cluster
    from repro.sched import ScalingPolicy
    from repro.serve.daemon import ServeConfig, ServeDaemon
    from repro.serve.tenants import TenantManager, TenantQuota

    platform = PLATFORMS[args.platform]
    cluster = Cluster(platform, nprocs=args.nprocs,
                      memory_limit=args.memory, storage=args.storage)
    if args.stage_demo:
        from repro.sched.demo import stage_inputs

        stage_inputs(cluster)
    quotas = {}
    for spec in args.quota or []:
        try:
            tenant, bounds = spec.split("=", 1)
            queued, concurrent = bounds.split(":", 1)
            quotas[tenant] = TenantQuota(max_queued=int(queued),
                                         max_concurrent=int(concurrent))
        except ValueError:
            print(f"error: bad --quota {spec!r} "
                  f"(want tenant=max_queued:max_concurrent)")
            return 2
    daemon = ServeDaemon(
        cluster,
        tenants=TenantManager(quotas, aging_rate=args.aging_rate),
        config=ServeConfig(lease_ttl=args.lease_ttl),
        scaling=(ScalingPolicy(max_ranks=args.autoscale_max)
                 if args.autoscale else None))
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
            # The catalog takes bool() of a flag: "false" must not be truthy.
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mimir (IPDPS 2017) reproduction - simulated "
                    "MapReduce-over-MPI workloads")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plat = sub.add_parser("platforms", help="describe simulated platforms")
    p_plat.add_argument("--shift", type=int, default=3,
                        help="extra benchmark shrink exponent")
    p_plat.set_defaults(fn=cmd_platforms)

    def common(p):
        p.add_argument("app", choices=APPS)
        p.add_argument("--size", default="1G",
                       help='dataset size: "4G" bytes or "2^22" count')
        p.add_argument("--platform", choices=sorted(PLATFORMS),
                       default="comet")
        p.add_argument("--nprocs", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--shift", type=int, default=3)

    p_run = sub.add_parser("run", help="run one workload configuration")
    common(p_run)
    p_run.add_argument("--framework", choices=["mimir", "mrmpi"],
                       default="mimir")
    p_run.add_argument("--hint", action="store_true",
                       help="enable the KV-hint optimization")
    p_run.add_argument("--pr", action="store_true",
                       help="enable partial reduction")
    p_run.add_argument("--cps", action="store_true",
                       help="enable KV compression")
    p_run.add_argument("--ooc", action="store_true",
                       help="enable out-of-core KV containers (extension)")
    p_run.add_argument("--page", default=None,
                       help='MR-MPI page size in paper units (e.g. "512M")')
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="compare frameworks on one workload")
    common(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_pipe = sub.add_parser(
        "pipeline",
        help="run a multi-job dataflow pipeline through the scheduler")
    p_pipe.add_argument(
        "apps", nargs="*",
        help="jobs to submit (wordcount pagerank kmeans bfs insitu); "
             "default: wordcount pagerank")
    p_pipe.add_argument("--platform", choices=sorted(PLATFORMS),
                        default="comet")
    p_pipe.add_argument("--nprocs", type=int, default=4)
    p_pipe.add_argument("--memory", default="512K",
                        help='per-rank memory budget (e.g. "512K")')
    p_pipe.set_defaults(fn=cmd_pipeline)

    p_rep = sub.add_parser(
        "report",
        help="run a job with full observability and render the report")
    p_rep.add_argument(
        "app", nargs="?", choices=["wordcount", "pipeline"],
        default="wordcount",
        help="what to profile: the WordCount benchmark or the "
             "multi-job scheduler demo (default: wordcount)")
    p_rep.add_argument("--platform", choices=sorted(PLATFORMS),
                       default="comet")
    p_rep.add_argument("--nprocs", type=int, default=4)
    p_rep.add_argument("--memory", default="512K",
                       help='per-rank budget for the pipeline report')
    p_rep.add_argument("--trace-out", default=None, metavar="FILE",
                       help="also write Chrome/Perfetto trace_event "
                            "JSON for ui.perfetto.dev")
    p_rep.add_argument("--from-trace", default=None, metavar="FILE",
                       help="skip running: rebuild the report from a "
                            "Trace.to_json() file")
    p_rep.set_defaults(fn=cmd_report)

    p_srv = sub.add_parser(
        "serve",
        help="run the multi-tenant job service daemon (HTTP/JSON API)")
    p_srv.add_argument("--platform", choices=sorted(PLATFORMS),
                       default="comet")
    p_srv.add_argument("--nprocs", type=int, default=4)
    p_srv.add_argument("--memory", default="auto",
                       help='per-rank memory budget (e.g. "512K")')
    p_srv.add_argument("--storage", choices=BACKENDS,
                       default=None,
                       help="storage backend for the service substrate "
                            "(default: REPRO_STORAGE_BACKEND or pfs; "
                            "see docs/storage.md)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="listen port (0 = ephemeral, printed)")
    p_srv.add_argument("--lease-ttl", type=float, default=60.0,
                       help="result lease TTL in seconds")
    p_srv.add_argument("--aging-rate", type=float, default=1.0,
                       help="fair-share priority gain per queued round")
    p_srv.add_argument("--quota", action="append", metavar="T=Q:C",
                       help="per-tenant quota tenant=max_queued:"
                            "max_concurrent (repeatable)")
    p_srv.add_argument("--stage-demo", action="store_true",
                       help="stage the demo datasets on the PFS at boot")
    p_srv.add_argument("--autoscale", action="store_true",
                       help="let a ScalingPolicy resize the gang "
                            "between rounds")
    p_srv.add_argument("--autoscale-max", type=int, default=16,
                       help="autoscaler rank ceiling (with --autoscale)")
    p_srv.add_argument("--duration", type=float, default=None,
                       help="exit after N seconds (CI smoke)")
    p_srv.set_defaults(fn=cmd_serve)

    def client_common(p):
        p.add_argument("--url", default="http://127.0.0.1:8123",
                       help="service base URL")
        p.add_argument("--tenant", default="default",
                       help="tenant identity (X-Tenant header)")

    p_put = sub.add_parser("put", help="stage an input file on the service")
    client_common(p_put)
    p_put.add_argument("name", help="input name (referenced by submit)")
    p_put.add_argument("file", help="local file to upload")
    p_put.set_defaults(fn=cmd_put)

    p_sub = sub.add_parser("submit", help="submit a job to the service")
    client_common(p_sub)
    p_sub.add_argument("app", help="catalog app (wordcount pagerank "
                                   "kmeans bfs stream_wordcount)")
    p_sub.add_argument("input", help="staged input name or shared PFS path")
    p_sub.add_argument("--param", action="append", metavar="K=V",
                       help="app parameter (repeatable)")
    p_sub.add_argument("--priority", type=int, default=0)
    p_sub.add_argument("--footprint", default=None,
                       help='declared per-rank footprint (e.g. "64K")')
    p_sub.add_argument("--wait", action="store_true",
                       help="poll until the job reaches a terminal state")
    p_sub.add_argument("--timeout", type=float, default=120.0,
                       help="--wait timeout in seconds")
    p_sub.set_defaults(fn=cmd_submit)

    p_st = sub.add_parser("status", help="job status (or list all jobs)")
    client_common(p_st)
    p_st.add_argument("job_id", nargs="?", default=None)
    p_st.set_defaults(fn=cmd_status)

    p_cx = sub.add_parser("cancel", help="cancel a queued job")
    client_common(p_cx)
    p_cx.add_argument("job_id")
    p_cx.set_defaults(fn=cmd_cancel)

    p_lg = sub.add_parser(
        "logs", help="fetch (or follow) a job's service-side log")
    client_common(p_lg)
    p_lg.add_argument("job_id")
    p_lg.add_argument("-f", "--follow", action="store_true",
                      help="poll ?offset=N and stream new lines until "
                           "the job is terminal")
    p_lg.add_argument("--offset", type=int, default=0,
                      help="start the cursor at line N")
    p_lg.add_argument("--timeout", type=float, default=120.0,
                      help="--follow timeout in seconds")
    p_lg.set_defaults(fn=cmd_logs)

    p_ft = sub.add_parser("fetch", help="fetch a job's output artifact")
    client_common(p_ft)
    p_ft.add_argument("job_id")
    p_ft.add_argument("-o", "--output", default=None, metavar="FILE",
                      help="write to FILE instead of stdout")
    p_ft.add_argument("--log", action="store_true",
                      help="fetch the service-side job log instead")
    p_ft.set_defaults(fn=cmd_fetch)
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
