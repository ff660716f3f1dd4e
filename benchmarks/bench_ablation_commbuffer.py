"""Ablation: Mimir communication-buffer size.

The send/receive buffers are Mimir's only statically allocated memory.
Small buffers mean many small exchange rounds (latency-bound); large
buffers raise the static footprint without helping once rounds are
amortised.  The paper fixes 64 MB for fairness with MR-MPI; this
ablation shows the plateau that choice sits on.
"""

from figutils import BCOMET, SCALE
from repro.apps.wordcount import wordcount_plan
from repro.bench.runner import stage_dataset
from repro.cluster import Cluster
from repro.core import MimirConfig

BUFFERS = ["16M", "64M", "256M", "1G"]
DATASET = "4G"


def _run(buffer_label: str):
    path, data = stage_dataset(SCALE.spec(BCOMET, "wc_uniform", DATASET))
    cluster = Cluster(BCOMET, nprocs=BCOMET.procs_per_node)
    cluster.pfs.store(path, data)
    config = MimirConfig(page_size=BCOMET.default_page_size,
                         comm_buffer_size=SCALE.size(buffer_label),
                         input_chunk_size=BCOMET.default_page_size)
    result = cluster.run(
        lambda env: wordcount_plan(env, path, config), allow_oom=True)
    return result


def test_ablation_comm_buffer_size(benchmark):
    def sweep():
        return {label: _run(label) for label in BUFFERS}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\n== Ablation: Mimir comm-buffer size, WC(Uniform) 4G, Comet ==")
    print(f"{'buffer':>8}  {'peak':>12}  {'time':>10}")
    for label in BUFFERS:
        r = results[label]
        cell = "OOM" if r.ran_out_of_memory else \
            f"{r.node_peak_bytes:>12}  {r.elapsed:>9.2f}s"
        print(f"{label:>8}  {cell}")

    ok = {label: r for label, r in results.items()
          if not r.ran_out_of_memory}
    assert len(ok) >= 3
    # Bigger buffers -> more static memory.
    peaks = [ok[label].node_peak_bytes for label in BUFFERS if label in ok]
    assert peaks == sorted(peaks)
    # Small buffers pay a per-round penalty relative to the default.
    if "16M" in ok and "64M" in ok:
        assert ok["64M"].elapsed <= ok["16M"].elapsed * 1.5
