#!/usr/bin/env python
"""CI smoke for the serving layer, over real HTTP.

Boots a :class:`~repro.serve.daemon.ServeDaemon` on an ephemeral port,
then from three tenants submits eight wordcount jobs through the HTTP
API and asserts:

- every job completes and its artifact is fetchable and non-trivial;
- quota enforcement works over the wire: a tenant capped at
  ``max_queued=2`` with admission stalled gets the structured 429;
- a kill + restart over the same PFS replays the journal with no
  duplicated or lost jobs.

Artifacts for upload: the raw journal (``serve_journal.bin``) and the
scheduler's Perfetto trace (``serve_trace.json``), written only once
the trace holds its invariant: per rank, event times never decrease in
emission order, across rounds.

Run from the repo root: ``PYTHONPATH=src python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import sys

from repro.cluster import Cluster
from repro.mpi import COMET
from repro.obs.chrome import validate_chrome_trace, write_chrome_trace
from repro.sched.demo import stage_inputs
from repro.serve.api import ServeAPIError, ServeClient
from repro.serve.daemon import ServeDaemon
from repro.serve.tenants import TenantManager, TenantQuota

TENANTS = ("alice", "bob", "carol")
NJOBS = 8


def main() -> int:
    cluster = Cluster(COMET, nprocs=4)
    inputs = stage_inputs(cluster)
    daemon = ServeDaemon(cluster, tenants=TenantManager(
        {"capped": TenantQuota(max_queued=2)}))
    port = daemon.start()
    url = f"http://127.0.0.1:{port}"
    print(f"serve smoke: daemon on {url}")

    # -------- 8 wordcount jobs from 3 tenants, over HTTP -------------
    submitted = []
    for i in range(NJOBS):
        tenant = TENANTS[i % len(TENANTS)]
        client = ServeClient(url, tenant=tenant)
        client.put_input("smoke.txt",
                         f"smoke run {i} the the the tenant {tenant}\n"
                         .encode())
        doc = client.submit("wordcount", "smoke.txt")
        submitted.append((client, doc["job_id"]))
    for client, job_id in submitted:
        doc = client.wait(job_id, timeout=120.0)
        assert doc["state"] == "done", (job_id, doc)
        output = client.output(job_id)
        assert b"the\t3" in output, output
    print(f"  {NJOBS} jobs from {len(TENANTS)} tenants completed "
          f"with valid artifacts")

    # -------- quota enforcement over the wire ------------------------
    daemon.scheduler.admission_filter = lambda job, batch: False
    capped = ServeClient(url, tenant="capped")
    for _ in range(2):
        capped.submit("wordcount", inputs["wordcount"])
    try:
        capped.submit("wordcount", inputs["wordcount"])
    except ServeAPIError as exc:
        assert exc.status == 429, exc.status
        assert exc.body["quota"] == "max_queued", exc.body
        print(f"  quota rejection enforced: {exc.body}")
    else:
        raise AssertionError("third submit should have been rejected")
    daemon.scheduler.admission_filter = daemon.tenants.admission_filter

    # -------- kill + replay ------------------------------------------
    before = {job_id: daemon.jobs[job_id].state
              for _, job_id in submitted}
    daemon.kill()
    successor = ServeDaemon(cluster, tenants=daemon.tenants)
    successor.recover()
    assert set(before) <= set(successor.jobs), "jobs lost in replay"
    for job_id, state in before.items():
        assert successor.jobs[job_id].state == state, \
            (job_id, state, successor.jobs[job_id].state)
    while successor.scheduler.queue_depth:
        successor.tick()
    print(f"  journal replayed {len(successor.jobs)} job(s); "
          f"no duplicates, no losses")

    # -------- artifacts ----------------------------------------------
    nbytes = successor.journal.dump("serve_journal.bin")
    latest: dict[int, float] = {}
    for event in daemon.trace.events:        # emission order
        assert event.time >= latest.get(event.rank, 0.0), \
            f"rank {event.rank} goes back in time at {event}"
        latest[event.rank] = event.time
    data = write_chrome_trace(daemon.trace, "serve_trace.json")
    validate_chrome_trace(data)
    print(f"  artifacts: serve_journal.bin ({nbytes} bytes), "
          f"serve_trace.json ({len(data['traceEvents'])} events)")
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
