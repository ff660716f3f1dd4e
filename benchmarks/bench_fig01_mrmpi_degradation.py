"""Figure 1: MR-MPI single-node WordCount degradation past memory.

The paper's motivating plot: on one Comet node, MR-MPI's execution
time grows by nearly three orders of magnitude as the dataset grows
from 1 GB to 64 GB, because everything past what the fixed pages hold
spills to the shared parallel file system.
"""

from figutils import BCOMET, print_memory_time, single_node_sweep
from repro.bench import mrmpi
from repro.bench.tables import render_time_table

LABELS = ["1G", "2G", "4G", "8G", "16G", "32G", "64G"]


def test_fig01_mrmpi_wordcount_degradation(benchmark):
    def sweep():
        return single_node_sweep(
            "Fig 1: WC(Uniform) with MR-MPI(512M), one Comet node",
            BCOMET, "wc_uniform", LABELS, (mrmpi("512M"),))

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(render_time_table(series))

    records = {r.label: r for r in series.records}
    # In-memory regime scales linearly...
    assert not records["4G"].spilled
    in_mem_rate = records["4G"].elapsed / 4
    # ...then spilling blows the per-GB cost up by well over an order
    # of magnitude (the paper shows ~3 orders across its full sweep).
    assert records["64G"].spilled
    spilled_rate = records["64G"].elapsed / 64
    assert spilled_rate > 10 * in_mem_rate
    # Monotone hockey stick.
    times = [records[label].elapsed for label in LABELS]
    assert times == sorted(times)
