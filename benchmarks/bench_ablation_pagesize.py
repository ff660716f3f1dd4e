"""Ablation: MR-MPI page size vs in-memory reach and footprint.

DESIGN.md calls out the page-size trade-off the paper's Figures 8-9
sweep at two points: larger pages extend MR-MPI's in-memory range
linearly but multiply the fixed memory footprint by the same factor,
while Mimir needs no such tuning.  This ablation sweeps four page
sizes to expose the whole frontier.
"""

from figutils import BCOMET, in_memory_reach, print_memory_time, single_node_sweep
from repro.bench import mimir, mrmpi

PAGES = ["16M", "64M", "256M", "512M"]
CONFIGS = tuple(mrmpi(page) for page in PAGES) + (mimir(),)


def test_ablation_mrmpi_page_size(benchmark):
    series = benchmark.pedantic(
        lambda: single_node_sweep(
            "Ablation: MR-MPI page size, WC(Uniform), Comet", BCOMET,
            "wc_uniform", ["256M", "1G", "4G", "16G"], CONFIGS),
        rounds=1, iterations=1)
    print_memory_time(series)

    # Larger pages strictly increase the fixed footprint...
    peaks = [series.get(f"MR-MPI({p})", "256M").peak_bytes for p in PAGES]
    assert peaks == sorted(peaks)
    assert peaks[-1] > 8 * peaks[0]
    # ...and never decrease the in-memory reach.
    reaches = [in_memory_reach(series, f"MR-MPI({p})") for p in PAGES]
    for a, b in zip(reaches, reaches[1:]):
        assert b >= a
    # Mimir beats every page size on reach without the footprint
    # (compared at the paper's default 64M page).
    assert in_memory_reach(series, "Mimir") >= max(reaches)
    assert series.get("Mimir", "256M").peak_bytes < peaks[PAGES.index("64M")]
