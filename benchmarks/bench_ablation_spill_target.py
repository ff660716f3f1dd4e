"""Ablation: spilling to node-local SSD vs the parallel file system.

The paper's architectural premise: "most large supercomputer
installations do not provide on-node persistent storage ... storage is
decoupled into a separate globally accessible parallel file system",
which is what makes MR-MPI's spill model so expensive there.  Comet
happens to carry node-local flash; this ablation runs MR-MPI's
out-of-core WordCount spilling to Lustre vs to that SSD and shows the
penalty is an artefact of the storage architecture, not of spilling
per se.
"""

from figutils import SCALE
from repro.bench import Series, mrmpi, run_spec
from repro.bench.tables import render_time_table
from repro.mpi.platforms import COMET, COMET_LOCAL_SSD

LABELS = ["4G", "8G", "16G", "32G"]


def _series():
    series = Series("Ablation: MR-MPI spill target, WC(Uniform)")
    for platform, name in ((SCALE.platform(COMET), "Lustre (shared PFS)"),
                           (SCALE.platform(COMET_LOCAL_SSD),
                            "node-local SSD")):
        for label in LABELS:
            series.add(run_spec(SCALE.spec(
                platform, "wc_uniform", label, mrmpi("512M", name=name))))
    return series


def test_ablation_spill_target(benchmark):
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    print(render_time_table(series))

    # Both spill for the large datasets...
    for label in ("8G", "16G", "32G"):
        assert series.get("Lustre (shared PFS)", label).spilled
        assert series.get("node-local SSD", label).spilled
    # ...but the SSD absorbs it with a far smaller penalty: out-of-core
    # runs are several times faster than through the contended PFS.
    for label in ("8G", "16G", "32G"):
        lustre = series.get("Lustre (shared PFS)", label).elapsed
        ssd = series.get("node-local SSD", label).elapsed
        assert ssd < lustre / 2
