"""Benchmark harness utilities used by ``benchmarks/``."""

from repro.bench.harness import (
    RESULTS_DIR,
    SMOKE_ENV,
    Table,
    save_result,
    save_tables,
    smoke_mode,
)
from repro.bench.workloads import (
    DEFAULT_K,
    PAPER_QUERY_COUNT,
    ColdWarmReport,
    ThroughputReport,
    UpdateThroughputReport,
    Workload,
    index_matches_fresh_build,
    make_edit_stream,
    make_workload,
    measure_cold_warm,
    measure_parallel_scaling,
    measure_update_throughput,
    run_service_throughput,
    run_throughput,
)

__all__ = [
    "Table",
    "smoke_mode",
    "SMOKE_ENV",
    "save_result",
    "save_tables",
    "RESULTS_DIR",
    "Workload",
    "make_workload",
    "ThroughputReport",
    "run_throughput",
    "run_service_throughput",
    "measure_parallel_scaling",
    "ColdWarmReport",
    "measure_cold_warm",
    "UpdateThroughputReport",
    "make_edit_stream",
    "index_matches_fresh_build",
    "measure_update_throughput",
    "DEFAULT_K",
    "PAPER_QUERY_COUNT",
]
