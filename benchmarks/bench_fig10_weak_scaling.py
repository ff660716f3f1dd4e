"""Figure 10: weak scalability of WordCount, Mimir vs MR-MPI.

512 MB/node on Comet, 256 MB/node on Mira (the largest inputs the
MR-MPI 64M configurations can hold), 2 to 64 nodes.  The paper's
shape: Mimir's weak-scaling curve is essentially flat to 64 nodes;
MR-MPI(64M) falls over early (spills), and on the skewed Wikipedia
data even MR-MPI with the large page cannot keep up because a few
ranks exceed their pages and hit the I/O subsystem.

Weak scaling uses the representative-process model (see
``figutils.weak_scaling_sweep``).
"""

from figutils import (
    BCOMET,
    BMIRA,
    print_scaling,
    weak_scaling_sweep,
)
from repro.bench import mimir, mrmpi

NODES = [2, 4, 8, 16, 32, 64]


def _check_mimir_scales(series, growth_bound=2.5):
    """Mimir stays in memory at every node count, with bounded growth.

    Uniform data weak-scales nearly flat; skewed (Wikipedia) data grows
    moderately because the hottest key's owner does disproportionate
    work - visible in the paper's Figure 10b as well - so the bound is
    looser there.
    """
    records = [series.get("Mimir", str(n)) for n in NODES]
    assert all(r.in_memory for r in records)
    times = [r.elapsed for r in records]
    assert all(t > 0 for t in times)
    assert times[-1] < growth_bound * times[0]


def _reach(series, config):
    """Largest node count this config still ran in memory at."""
    best = 0
    for n in NODES:
        record = series.get(config, str(n))
        if record is not None and record.in_memory:
            best = n
    return best


def test_fig10a_wc_uniform_comet(benchmark):
    series = benchmark.pedantic(
        lambda: weak_scaling_sweep(
            "Fig 10a: WC(Uniform) weak scaling, Comet, 512M/node",
            BCOMET, "wc_uniform", "512M", NODES,
            (mimir(), mrmpi("64M"), mrmpi("512M"))),
        rounds=1, iterations=1)
    print_scaling(series)
    _check_mimir_scales(series)
    assert _reach(series, "Mimir") == 64


def test_fig10b_wc_wikipedia_comet(benchmark):
    series = benchmark.pedantic(
        lambda: weak_scaling_sweep(
            "Fig 10b: WC(Wikipedia) weak scaling, Comet, 512M/node",
            BCOMET, "wc_wiki", "512M", NODES,
            (mimir(), mrmpi("64M"), mrmpi("512M"))),
        rounds=1, iterations=1)
    print_scaling(series)
    _check_mimir_scales(series, growth_bound=6.0)
    # Skewed data: the small-page MR-MPI hits the I/O subsystem from
    # the start while Mimir stays in memory throughout.
    assert _reach(series, "Mimir") == 64
    assert _reach(series, "MR-MPI(64M)") < 64


def test_fig10c_wc_uniform_mira(benchmark):
    series = benchmark.pedantic(
        lambda: weak_scaling_sweep(
            "Fig 10c: WC(Uniform) weak scaling, Mira, 256M/node",
            BMIRA, "wc_uniform", "256M", NODES,
            (mimir(), mrmpi("64M"), mrmpi("128M"))),
        rounds=1, iterations=1)
    print_scaling(series)
    _check_mimir_scales(series)


def test_fig10d_wc_wikipedia_mira(benchmark):
    series = benchmark.pedantic(
        lambda: weak_scaling_sweep(
            "Fig 10d: WC(Wikipedia) weak scaling, Mira, 256M/node",
            BMIRA, "wc_wiki", "256M", NODES,
            (mimir(), mrmpi("64M"), mrmpi("128M"))),
        rounds=1, iterations=1)
    print_scaling(series)
    _check_mimir_scales(series, growth_bound=6.0)
    # Both MR-MPI page sizes fall over on the imbalanced dataset well
    # before Mimir does.
    assert _reach(series, "Mimir") == 64
    assert _reach(series, "MR-MPI(64M)") < 64
    assert _reach(series, "MR-MPI(128M)") < 64
