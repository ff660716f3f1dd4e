"""The three streaming demo scenarios, validated against their twins.

Each demo's acceptance bar is *bit identity*: the streamed finals,
rendered, must equal the rendered output of a one-shot full-batch run
over the same total input - including when the stream saw late data
and repaired closed windows.  The wordcount and pagerank twins are
their serve catalog rows.
"""

import math

import pytest

from repro.serve.catalog import SERVE_APPS
from repro.stream.demo import DEMOS, run_demo


class TestCatalogTwins:
    @pytest.mark.parametrize("name", ["wordcount", "pagerank"])
    def test_demo_row_matches_its_catalog_twin(self, name):
        # The scenario names the catalog row its twin runs.
        assert DEMOS[name].scenario.name == name and name in SERVE_APPS
        summary = run_demo(name, seed=3)
        assert summary["identical"], "cached stream diverged from the row"
        assert summary["full_identical"], "uncached stream diverged"

    def test_every_summary_has_the_same_keys(self):
        keys = {name: set(run_demo(name, nbatches=2)) for name in DEMOS}
        assert len(set(map(frozenset, keys.values()))) == 1, keys


class TestWordCountDemo:
    def test_stream_matches_batch_bit_for_bit(self):
        summary = run_demo("wordcount")
        assert summary["identical"]
        assert summary["runs"][0]["closed"] == 3
        assert summary["output"].endswith(b"\n")

    def test_different_seed_still_identical(self):
        assert run_demo("wordcount", seed=7)["identical"]


@pytest.fixture(scope="class")
def pagerank_summary():
    return run_demo("pagerank")


class TestPageRankDemo:
    def test_incremental_and_full_match_batch(self, pagerank_summary):
        summary = pagerank_summary
        assert summary["identical"], "incremental stream diverged"
        assert summary["full_identical"], "uncached stream diverged"

    def test_incremental_recomputes_strictly_fewer_stages(
            self, pagerank_summary):
        summary = pagerank_summary
        assert summary["stages_incremental"] < summary["stages_full"]
        assert summary["cache_hits"] > 0
        assert summary["update_speedup"] > 1.0

    # The smallest demo size: one iteration over four batches.
    @pytest.mark.parametrize("nbatches,iterations", [(4, 1)])
    def test_incremental_beats_full_and_matches_batch(self, nbatches,
                                                      iterations):
        summary = run_demo("pagerank", nbatches=nbatches,
                           iterations=iterations)
        assert summary["identical"], "incremental stream diverged"
        assert summary["full_identical"], "uncached stream diverged"
        assert summary["stages_incremental"] < summary["stages_full"]
        assert summary["cache_hits"] > 0
        assert summary["update_speedup"] > 1.0

    def test_scores_parse_as_floats(self):
        summary = run_demo("pagerank", nbatches=4, iterations=1)
        total = 0.0
        for line in summary["output"].splitlines():
            _vertex, score = line.split(b"\t")
            total += float(score)
        assert abs(total - 1.0) < 1e-9  # scores are a distribution


class TestSessionizeDemo:
    def test_late_clicks_repair_and_match_batch(self):
        summary = run_demo("sessionize")
        assert summary["identical"]
        assert summary["late"] > 0, "demo stream lost its late clicks"
        assert summary["recomputed"] > 0, "no window was repaired"

    def test_sessions_cover_every_click(self):
        summary = run_demo("sessionize")
        clicks = sum(int(line.split(b"\t")[3])
                     for line in summary["output"].splitlines())
        # 6 batches x 10 clicks, every one sessionized exactly once.
        assert clicks == 60


class TestUpdateSpeedup:
    """The speedup times the last close the watermark made, in the
    uncached over the cached pass; the end-of-stream flush is not an
    update."""

    def test_flush_closes_are_not_timed(self):
        run = run_demo("sessionize")["runs"][0]
        # Window 5 closes only in the end-of-stream flush.
        assert run["closed"] == 6 and len(run["close_seconds"]) == 5

    def test_tumbling_windows_reuse_nothing(self):
        # Each batch belongs to one window: the cache saves no close time.
        summary = run_demo("wordcount")
        assert summary["update_speedup"] == pytest.approx(1.0, abs=0.01)

    def test_no_watermark_close_has_no_speedup(self):
        # Two 10 s batches never carry the watermark past a 20 s window.
        summary = run_demo("wordcount", nbatches=2)
        assert summary["runs"][0]["close_seconds"] == []
        assert math.isnan(summary["update_speedup"])
