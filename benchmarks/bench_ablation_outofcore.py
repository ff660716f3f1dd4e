"""Ablation: out-of-core Mimir vs MR-MPI past the memory limit.

Published Mimir fails with OOM once a dataset exceeds node memory; the
out-of-core extension spills KV containers instead.  This ablation
sweeps WordCount past the in-memory boundary and compares three
configurations: in-memory Mimir (OOMs), out-of-core Mimir, and MR-MPI
at its largest page (which has been out-of-core since far smaller
datasets).  Expected shape: Mimir(ooc) extends the processable range
with a milder time penalty than MR-MPI's spill path, because it writes
the overflow once instead of re-partitioning everything through the
PFS.
"""

from figutils import BCOMET, print_memory_time, single_node_sweep
from repro.bench import mimir, mrmpi

LABELS = ["8G", "16G", "32G", "64G"]
CONFIGS = (mimir(), mimir("Mimir (ooc)", out_of_core=True), mrmpi("512M"))


def test_ablation_out_of_core_mimir(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Ablation: out-of-core Mimir, WC(Uniform), Comet", BCOMET,
            "wc_uniform", LABELS, CONFIGS),
        rounds=1, iterations=1)
    print_memory_time(series)

    # In-memory Mimir dies past its boundary; ooc Mimir keeps going.
    assert series.get("Mimir", "32G").oom
    for label in LABELS:
        record = series.get("Mimir (ooc)", label)
        assert not record.oom

    # Past the boundary the ooc runs do spill, under the memory budget.
    big = series.get("Mimir (ooc)", "64G")
    assert big.spilled
    limit = BCOMET.memory_per_proc * BCOMET.procs_per_node
    assert big.peak_bytes <= limit

    # And the graceful degradation beats MR-MPI's out-of-core path.
    assert big.elapsed < series.get("MR-MPI(512M)", "64G").elapsed
