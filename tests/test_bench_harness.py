"""Tests for the benchmark harness and workload utilities."""

import json

import pytest

from repro.api import CommunityService
from repro.bench import (
    Table,
    make_workload,
    measure_cold_warm,
    run_service_throughput,
    run_throughput,
)
from repro.datasets import fig1_profiled_graph
from repro.engine import CommunityExplorer


class TestTable:
    def test_render_alignment(self):
        table = Table("Demo", ["name", "value"])
        table.add_row("alpha", 1)
        table.add_row("b", 123.456)
        text = table.render()
        assert "Demo" in text
        assert "alpha" in text
        assert "123.46" in text

    def test_row_arity_checked(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_to_dict(self):
        table = Table("Demo", ["a"])
        table.add_row(3.5)
        doc = table.to_dict()
        assert doc["title"] == "Demo"
        assert doc["rows"] == [[3.5]]

    def test_float_formatting(self):
        table = Table("Demo", ["v"])
        table.add_row(0.000123)
        table.add_row(123456.0)
        text = table.render()
        assert "0.000123" in text
        assert "1.23e+05" in text


class TestPersistence:
    def test_save_result(self, tmp_path, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        path = harness.save_result("unit", {"x": 1})
        assert json.loads(path.read_text())["x"] == 1

    def test_save_tables(self, tmp_path, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        table = Table("T", ["a"])
        table.add_row(1)
        path = harness.save_tables("unit2", [table], extra={"k": 6})
        doc = json.loads(path.read_text())
        assert doc["k"] == 6
        assert doc["tables"][0]["title"] == "T"


class TestWorkloads:
    def test_make_workload_from_core(self):
        pg = fig1_profiled_graph()
        workload = make_workload(pg, "fig1", num_queries=3, k=2, seed=1)
        assert len(workload) <= 3
        from repro.graph import core_numbers

        core = core_numbers(pg.graph)
        for q in workload:
            assert core[q] >= 2

    def test_require_profile_filter(self):
        pg = fig1_profiled_graph()
        workload = make_workload(pg, "fig1", num_queries=8, k=2, require_profile=True)
        for q in workload:
            assert len(pg.labels(q)) > 1

    def test_deterministic(self):
        pg = fig1_profiled_graph()
        a = make_workload(pg, "fig1", num_queries=4, k=2, seed=9)
        b = make_workload(pg, "fig1", num_queries=4, k=2, seed=9)
        assert a.queries == b.queries


class TestEngineMeasurements:
    """The helpers ``benchmarks/bench_engine_throughput.py`` reports with."""

    def test_cold_warm_on_fig1(self):
        pg = fig1_profiled_graph()
        workload = make_workload(pg, "fig1", num_queries=3, k=2)
        report = measure_cold_warm(pg, workload, repeat_factor=2)
        payload = report.to_dict()
        assert payload["throughput"]["queries"] == 2 * len(workload) == 6
        assert payload["throughput"]["cache_hits"] > 0
        assert report.speedup > 0

    def test_facade_overhead_on_fig1(self):
        pg = fig1_profiled_graph()
        workload = make_workload(pg, "fig1", num_queries=3, k=2)
        explorer = CommunityExplorer(pg)
        service = CommunityService(pg)
        engine = run_throughput(explorer, workload, repeat_factor=2)
        facade = run_service_throughput(service, workload, repeat_factor=2)
        assert engine.queries == facade.queries == 6
        assert facade.cache_hits == engine.cache_hits > 0
        assert facade.elapsed_seconds > 0
