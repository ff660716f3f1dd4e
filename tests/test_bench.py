"""Benchmark harness: scale, records, spec running."""

import pytest

from repro.bench import BenchScale, ExperimentSpec, RunRecord, Series, run_spec
from repro.bench.runner import stage_dataset
from repro.bench.tables import (
    render_memory_time_table,
    render_scaling_table,
    render_time_table,
)
from repro.mpi import COMET
from repro.mpi.platforms import SCALE_SHIFT


@pytest.fixture(scope="module")
def scale():
    return BenchScale(extra_shift=6)  # tiny for tests


@pytest.fixture(scope="module")
def platform(scale):
    return scale.platform(COMET)


class TestBenchScale:
    def test_total_shift(self, scale):
        assert scale.total_shift == SCALE_SHIFT + 6

    def test_size_scaling(self, scale):
        assert scale.size("64M") == (64 << 20) >> scale.total_shift

    def test_count_scaling(self, scale):
        assert scale.size("2^30") == 1 << (30 - scale.total_shift)

    def test_minimum_one(self, scale):
        assert scale.size(1) == 1
        assert scale.size("2^0") == 1

    def test_platform_rescaled(self, scale, platform):
        assert platform.node_memory == COMET.node_memory // 64
        assert platform.default_page_size == COMET.default_page_size // 64
        assert platform.compute_rate == pytest.approx(COMET.compute_rate / 64)
        assert platform.pfs.write_penalty == COMET.pfs.write_penalty

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHIFT", "2")
        assert BenchScale().extra_shift == 2

    def test_env_rejects_negative(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHIFT", "-1")
        with pytest.raises(ValueError):
            BenchScale()

    def test_describe(self, scale):
        assert "1/65536" in scale.describe()


class TestRunRecord:
    def test_in_memory_flag(self):
        assert RunRecord("1G", "Mimir").in_memory
        assert not RunRecord("1G", "Mimir", oom=True).in_memory
        assert not RunRecord("1G", "Mimir", spilled=True).in_memory

    def test_cells(self):
        r = RunRecord("1G", "Mimir", peak_bytes=1 << 20, elapsed=1.5)
        assert r.memory_cell() == "1.0M"
        assert r.time_cell() == "1.50s"
        assert RunRecord("1G", "x", oom=True).memory_cell() == "OOM"
        assert RunRecord("1G", "x", spilled=True,
                         elapsed=2.0).time_cell().endswith("*")


class TestSeries:
    def make(self):
        s = Series("t")
        s.add(RunRecord("1G", "A", peak_bytes=1, elapsed=1))
        s.add(RunRecord("1G", "B", peak_bytes=2, elapsed=2))
        s.add(RunRecord("2G", "A", peak_bytes=3, elapsed=3, spilled=True))
        s.add(RunRecord("2G", "B", oom=True))
        return s

    def test_configs_and_labels_ordered(self):
        s = self.make()
        assert s.configs == ["A", "B"]
        assert s.labels == ["1G", "2G"]

    def test_get(self):
        s = self.make()
        assert s.get("A", "2G").spilled
        assert s.get("C", "1G") is None

    def test_max_in_memory_label(self):
        s = self.make()
        assert s.max_in_memory_label("A") == "1G"
        assert s.max_in_memory_label("B") == "1G"
        s2 = Series("u")
        s2.add(RunRecord("1G", "A", oom=True))
        assert s2.max_in_memory_label("A") is None

    def test_tables_render(self):
        s = self.make()
        for renderer in (render_memory_time_table, render_scaling_table,
                         render_time_table):
            text = renderer(s)
            assert "1G" in text and "A" in text and "OOM" in text


class TestStageDataset:
    def make_spec(self, platform, app, size, **kw):
        return ExperimentSpec(label="x", config_name="c", platform=platform,
                              nprocs=2, app=app, framework="mimir",
                              size=size, **kw)

    def test_wc_uniform_cached(self, platform):
        spec = self.make_spec(platform, "wc_uniform", 5000)
        path1, data1 = stage_dataset(spec)
        path2, data2 = stage_dataset(spec)
        assert path1 == path2
        assert data1 is data2  # cache hit

    def test_wc_wiki_different_from_uniform(self, platform):
        u = stage_dataset(self.make_spec(platform, "wc_uniform", 5000))[1]
        w = stage_dataset(self.make_spec(platform, "wc_wiki", 5000))[1]
        assert u != w

    def test_oc_size_in_points(self, platform):
        path, data = stage_dataset(self.make_spec(platform, "oc", 100))
        assert len(data) == 100 * 12

    def test_bfs_size_rounds_to_power_of_two(self, platform):
        path, data = stage_dataset(
            self.make_spec(platform, "bfs", 64, edgefactor=4))
        assert len(data) == 64 * 4 * 16

    def test_invalid_app_rejected(self, platform):
        with pytest.raises(ValueError):
            self.make_spec(platform, "nope", 10)

    def test_invalid_framework_rejected(self, platform):
        with pytest.raises(ValueError):
            ExperimentSpec(label="x", config_name="c", platform=platform,
                           nprocs=2, app="oc", framework="hadoop", size=10)


class TestRunSpec:
    def test_wordcount_end_to_end(self, platform):
        spec = ExperimentSpec(label="64M", config_name="Mimir",
                              platform=platform, nprocs=4,
                              app="wc_uniform", framework="mimir",
                              size=4096)
        record = run_spec(spec)
        assert record.label == "64M"
        assert record.config == "Mimir"
        assert record.peak_bytes > 0
        assert record.elapsed > 0
        assert not record.oom

    def test_mrmpi_end_to_end(self, platform):
        spec = ExperimentSpec(label="64M", config_name="MR-MPI",
                              platform=platform, nprocs=4, app="wc_uniform",
                              framework="mrmpi", size=4096,
                              mrmpi_page=32 * 1024)
        record = run_spec(spec)
        assert record.peak_bytes >= 4 * 7 * 32 * 1024  # 7 pages x 4 ranks

    def test_oom_captured_as_record(self, platform):
        spec = ExperimentSpec(label="big", config_name="Mimir",
                              platform=platform, nprocs=2, app="wc_uniform",
                              framework="mimir", size=200_000,
                              memory_limit=20_000)
        record = run_spec(spec)
        assert record.oom
        assert not record.in_memory
