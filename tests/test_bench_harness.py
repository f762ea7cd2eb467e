"""Tests for the benchmark harness utilities (repro.bench)."""

from __future__ import annotations

import pytest

from repro.bench import (
    ascii_series,
    batched_run,
    format_seconds,
    format_table,
    profiled_run,
    results_dir,
    write_csv,
)
from repro.runtime import record


class TestProfiledRun:
    def test_captures_value_cost_and_time(self):
        def work():
            record(1000, 10, category="scan")
            return 42

        run = profiled_run(work)
        assert run.value == 42
        assert run.tracker.work == 1000
        assert run.wall_seconds >= 0.0

    def test_simulated_times_decrease_with_cores(self):
        def work():
            record(10**8, 100, category="scan")

        run = profiled_run(work)
        assert run.simulated_time(40) < run.simulated_time(1)
        assert run.speedup(40) > 1.0


class TestCsvAndResultsDir:
    def test_results_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "out"))
        path = results_dir()
        assert path.exists()
        assert path == tmp_path / "out"

    def test_write_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        path = write_csv("demo", ["a", "b"], [[1, 2], [3, 4]])
        assert path.read_text().splitlines() == ["a,b", "1,2", "3,4"]


class TestBatchedRun:
    @pytest.fixture()
    def engine_and_jobs(self):
        from repro.engine import BatchEngine, DiffusionJob
        from repro.graph import barbell_graph

        graph = barbell_graph(8)
        jobs = [DiffusionJob.make(s, params={"eps": 1e-4}) for s in (0, 15)]
        return BatchEngine(graph), jobs

    def test_stats_only_run(self, engine_and_jobs):
        engine, jobs = engine_and_jobs
        run = batched_run(engine, jobs)
        assert run.value is None
        assert run.stats.jobs == 2 and run.stats.completed == 2
        assert run.workers == 1
        assert run.wall_seconds > 0.0
        assert run.jobs_per_second == pytest.approx(2 / run.wall_seconds)

    def test_reducer_value_alongside_stats(self, engine_and_jobs):
        from repro.engine import BestClusterReducer

        engine, jobs = engine_and_jobs
        run = batched_run(engine, jobs, BestClusterReducer())
        assert run.value is not None
        assert run.value.conductance == pytest.approx(run.value.sweep.best_conductance)
        assert run.stats.jobs == 2


class TestFormatting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["x", 1.23456], ["longer", 2]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.235" in table  # 4 significant digits

    def test_format_seconds_ranges(self):
        assert format_seconds(0) == "0"
        assert format_seconds(5e-7).endswith("us")
        assert format_seconds(5e-3).endswith("ms")
        assert format_seconds(2.5).endswith("s")

    def test_ascii_series_renders(self):
        chart = ascii_series([1, 10, 100], [1.0, 0.1, 0.01], logx=True, logy=True)
        assert "*" in chart
        lines = chart.splitlines()
        assert len(lines) >= 10

    def test_ascii_series_rejects_mismatch(self):
        with pytest.raises(ValueError):
            ascii_series([1, 2], [1.0])

    def test_ascii_series_constant_values(self):
        chart = ascii_series([1, 2, 3], [5.0, 5.0, 5.0])
        assert "*" in chart
