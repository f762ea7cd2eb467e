"""Benchmark harness utilities shared by the ``benchmarks/`` scripts."""

from .harness import (
    BatchRun,
    ProfiledRun,
    ascii_series,
    batched_run,
    format_seconds,
    format_table,
    profiled_run,
    results_dir,
    write_csv,
)

__all__ = [
    "BatchRun",
    "ProfiledRun",
    "ascii_series",
    "batched_run",
    "format_seconds",
    "format_table",
    "profiled_run",
    "results_dir",
    "write_csv",
]
