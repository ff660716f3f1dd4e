"""Local HTTP/JSON front end for :class:`~repro.serve.daemon.ServeDaemon`.

Stdlib only (:mod:`http.server` threading server + :mod:`urllib` on the
client side) - the service binds loopback by default and speaks plain
JSON, so ``curl`` works as documented in ``docs/serving.md``.

Routes (tenant identity asserted via the ``X-Tenant`` header):

======  ==========================  =======================================
PUT     ``/input/<name>``           stage input bytes for the tenant
POST    ``/jobs``                   submit ``{"app", "input", ...}`` -> 202
GET     ``/jobs``                   list this tenant's jobs
GET     ``/jobs/<id>``              status (renews the lease)
POST    ``/jobs/<id>/lease``        explicit lease renewal
POST    ``/jobs/<id>/cancel``       withdraw a queued job
GET     ``/jobs/<id>/output``       the merged output artifact (bytes)
GET     ``/jobs/<id>/log``          the job's service-side log
GET     ``/jobs/<id>/log?offset=N`` incremental: JSON lines from ``N``
GET     ``/healthz``                daemon health (no tenant needed)
GET     ``/metrics``                totals of the whole metric registry
======  ==========================  =======================================

Error bodies are structured JSON; a quota rejection is HTTP 429 with
:meth:`~repro.serve.tenants.QuotaExceeded.to_json` as the body.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.serve.daemon import ServeDaemon, ServeError
from repro.serve.tenants import QuotaExceeded


class ServeHTTPServer:
    """The daemon's HTTP listener; one thread per request."""

    def __init__(self, daemon: ServeDaemon, host: str = "127.0.0.1",
                 port: int = 0):
        handler = _make_handler(daemon)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: "threading.Thread | None" = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> None:
        # ``shutdown()`` waits out one poll: at the default 0.5 s every
        # stop of the daemon (tests, the CLI) idles half a second.
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.01},
                                        name="serve-http", daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None


def _make_handler(daemon: ServeDaemon):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # ------------------------------------------------------- plumbing

        def log_message(self, *args) -> None:  # silence stderr spam
            pass

        def _tenant(self) -> str:
            tenant = self.headers.get("X-Tenant")
            if not tenant:
                raise ServeError(400, "missing X-Tenant header")
            return tenant

        def _body(self) -> bytes:
            length = int(self.headers.get("Content-Length") or 0)
            return self.rfile.read(length) if length else b""

        def _json_body(self) -> dict[str, Any]:
            raw = self._body()
            if not raw:
                return {}
            try:
                doc = json.loads(raw)
            except ValueError as exc:
                raise ServeError(400, f"request body is not JSON: {exc}")
            if not isinstance(doc, dict):
                raise ServeError(400, "request body must be a JSON object")
            return doc

        def _reply(self, status: int, doc: Any, *,
                   content_type: str = "application/json") -> None:
            body = doc if isinstance(doc, bytes) else \
                (json.dumps(doc, sort_keys=True) + "\n").encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _dispatch(self, method: str) -> None:
            try:
                status, doc, ctype = self._route(method)
            except QuotaExceeded as exc:
                status, doc, ctype = 429, exc.to_json(), "application/json"
            except ServeError as exc:
                status, doc = exc.status, {"error": str(exc)}
                ctype = "application/json"
            except ValueError as exc:
                status, doc = 400, {"error": str(exc)}
                ctype = "application/json"
            except Exception as exc:  # noqa: BLE001 - surface as a 500
                status, doc = 500, {"error": f"{type(exc).__name__}: {exc}"}
                ctype = "application/json"
            self._reply(status, doc, content_type=ctype)

        # -------------------------------------------------------- routing

        def _route(self, method: str) -> tuple[int, Any, str]:
            path, _, query = self.path.partition("?")
            parts = [p for p in path.split("/") if p]
            qs = urllib.parse.parse_qs(query)
            js = "application/json"

            if method == "GET" and parts == ["healthz"]:
                return 200, daemon.health(), js
            if method == "GET" and parts == ["metrics"]:
                registry = daemon.cluster.metrics
                served = registry.totals()
                for name, hist in registry.histograms().items():
                    served[name] = {"count": hist.count, "sum": hist.total,
                                    "buckets": hist.buckets}
                return 200, {"metrics": served}, js

            if method == "PUT" and len(parts) == 2 and parts[0] == "input":
                tenant = self._tenant()
                data = self._body()
                path = daemon.put_input(tenant, parts[1], data)
                return 201, {"path": path, "bytes": len(data)}, js

            if parts and parts[0] == "jobs":
                tenant = self._tenant()
                if method == "POST" and len(parts) == 1:
                    doc = self._json_body()
                    for key in ("app", "input"):
                        if key not in doc:
                            raise ServeError(400, f"missing field {key!r}")
                    job = daemon.submit(
                        tenant, doc["app"], doc["input"],
                        params=doc.get("params") or {},
                        priority=int(doc.get("priority", 0)),
                        footprint=doc.get("footprint"),
                        ttl=doc.get("ttl"))
                    return 202, {
                        "job_id": job.job_id, "state": job.state,
                        "lease_remaining":
                            daemon.leases.remaining(job.job_id)}, js
                if method == "GET" and len(parts) == 1:
                    return 200, {"jobs": daemon.list_jobs(tenant)}, js
                if method == "GET" and len(parts) == 2:
                    return 200, daemon.status(parts[1], tenant), js
                if method == "POST" and len(parts) == 3 and \
                        parts[2] == "lease":
                    doc = self._json_body()
                    return 200, daemon.renew(parts[1], tenant,
                                             doc.get("ttl")), js
                if method == "POST" and len(parts) == 3 and \
                        parts[2] == "cancel":
                    return 200, daemon.cancel(parts[1], tenant), js
                if method == "GET" and len(parts) == 3 and \
                        parts[2] == "output":
                    data = daemon.output(parts[1], tenant)
                    return 200, data, "application/octet-stream"
                if method == "GET" and len(parts) == 3 and \
                        parts[2] == "log":
                    if "offset" in qs:
                        try:
                            offset = int(qs["offset"][0])
                        except ValueError:
                            raise ServeError(
                                400, f"offset must be an integer, got "
                                     f"{qs['offset'][0]!r}")
                        return 200, daemon.job_log_since(
                            parts[1], offset, tenant), js
                    text = daemon.job_log(parts[1], tenant)
                    return 200, text.encode(), "text/plain"

            raise ServeError(404, f"no route {method} {self.path}")

        def do_GET(self) -> None:   # noqa: N802 - http.server casing
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("POST")

        def do_PUT(self) -> None:   # noqa: N802
            self._dispatch("PUT")

    return Handler


# --------------------------------------------------------------- client

class ServeAPIError(Exception):
    """A non-2xx response; carries the status and the error body."""

    def __init__(self, status: int, body: dict[str, Any]):
        self.status = status
        self.body = body
        super().__init__(f"HTTP {status}: "
                         f"{body.get('error', body)}")


class ServeClient:
    """Thin urllib wrapper the CLI subcommands and tests use."""

    def __init__(self, base_url: str, tenant: "str | None" = None,
                 timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    def _request(self, method: str, path: str, *,
                 data: "bytes | None" = None,
                 json_body: "dict | None" = None) -> tuple[int, bytes, str]:
        headers = {}
        if self.tenant:
            headers["X-Tenant"] = self.tenant
        if json_body is not None:
            data = json.dumps(json_body).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(self.base_url + path, data=data,
                                     headers=headers, method=method)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return (resp.status, resp.read(),
                        resp.headers.get("Content-Type", ""))
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                body = json.loads(raw)
            except ValueError:
                body = {"error": raw.decode(errors="replace")}
            raise ServeAPIError(exc.code, body) from None

    def _json(self, method: str, path: str, **kwargs) -> dict[str, Any]:
        _status, raw, _ctype = self._request(method, path, **kwargs)
        return json.loads(raw)

    def health(self) -> dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._json("GET", "/metrics")["metrics"]

    def put_input(self, name: str, data: bytes) -> dict[str, Any]:
        return self._json("PUT", f"/input/{name}", data=data)

    def submit(self, app: str, input_name: str, *,
               params: "dict | None" = None, priority: int = 0,
               footprint: "int | str | None" = None,
               ttl: "float | None" = None) -> dict[str, Any]:
        doc: dict[str, Any] = {"app": app, "input": input_name}
        if params:
            doc["params"] = params
        if priority:
            doc["priority"] = priority
        if footprint is not None:
            doc["footprint"] = footprint
        if ttl is not None:
            doc["ttl"] = ttl
        return self._json("POST", "/jobs", json_body=doc)

    def jobs(self) -> list[dict[str, Any]]:
        return self._json("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def renew(self, job_id: str,
              ttl: "float | None" = None) -> dict[str, Any]:
        body = {"ttl": ttl} if ttl is not None else {}
        return self._json("POST", f"/jobs/{job_id}/lease", json_body=body)

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._json("POST", f"/jobs/{job_id}/cancel", json_body={})

    def output(self, job_id: str) -> bytes:
        _status, raw, _ctype = self._request("GET",
                                             f"/jobs/{job_id}/output")
        return raw

    def job_log(self, job_id: str) -> str:
        _status, raw, _ctype = self._request("GET", f"/jobs/{job_id}/log")
        return raw.decode()

    def job_log_since(self, job_id: str, offset: int) -> dict[str, Any]:
        """Incremental fetch: ``{"lines", "next_offset", "state"}``."""
        return self._json("GET", f"/jobs/{job_id}/log?offset={int(offset)}")

    def follow_log(self, job_id: str, *, offset: int = 0,
                   interval: float = 0.05, timeout: float = 120.0):
        """Yield log lines as they appear until the job is terminal.

        The ``repro logs --follow`` loop: poll ``?offset=N``, advance
        the cursor by ``next_offset``, and stop once a terminal-state
        response carries no new lines (nothing more can be written).
        """
        deadline = time.monotonic() + timeout
        while True:
            doc = self.job_log_since(job_id, offset)
            yield from doc["lines"]
            offset = doc["next_offset"]
            if doc["state"] not in ("queued", "running") \
                    and not doc["lines"]:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc['state']} after {timeout}s")
            if not doc["lines"]:
                time.sleep(interval)

    def wait(self, job_id: str, *, timeout: float = 60.0,
             interval: float = 0.05) -> dict[str, Any]:
        """Poll until ``job_id`` reaches a terminal state."""
        import time as _time

        deadline = _time.monotonic() + timeout
        while True:
            doc = self.status(job_id)
            if doc["state"] not in ("queued", "running"):
                return doc
            if _time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc['state']} after {timeout}s")
            _time.sleep(interval)
