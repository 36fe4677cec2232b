"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import CommunityService, Query
from repro.cli import main
from repro.datasets import simple_profiled_graph
from repro.datasets import fig1_profiled_graph
from repro.datasets.taxonomies import synthetic_taxonomy
from repro.server import CommunityGateway, ServerClient
from repro.storage import save_snapshot
from tests.test_replication import ADD_Z1, replication_tier

ROOT = Path(__file__).resolve().parents[1]


def _int_vertex_graph():
    tax = synthetic_taxonomy(30, seed=1)
    return simple_profiled_graph(tax, 20, seed=1, edge_probability=0.4)


class TestQuery:
    def test_fig1_query(self, capsys):
        assert main(["query", "--dataset", "fig1", "--query", "D", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 communities" in out
        assert "PC1" in out and "PC2" in out

    def test_fig1_query_each_method(self, capsys):
        for method in ("basic", "incre", "adv-I", "adv-D", "adv-P"):
            assert main(
                ["query", "--dataset", "fig1", "--query", "D", "--k", "2", "--method", method]
            ) == 0

    def test_auto_query_selection(self, capsys):
        assert main(["query", "--dataset", "fig1", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "picked" in out

    def test_json_envelope(self, capsys):
        assert main(
            ["query", "--dataset", "fig1", "--query", "D", "--k", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"]["vertex"] == "D"
        assert payload["returned"] == 2
        assert payload["plan"]["planned"] is True
        from repro.api import QueryResponse

        restored = QueryResponse.from_dict(payload)
        assert restored.returned == 2

    def test_limit_and_min_size_flags(self, capsys):
        assert main(
            [
                "query", "--dataset", "fig1", "--query", "D", "--k", "2",
                "--json", "--limit", "1", "--min-size", "3",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["returned"] == 1
        assert payload["query"]["limit"] == 1
        assert payload["query"]["min_size"] == 3
        assert all(c["size"] >= 3 for c in payload["communities"])

    def test_limit_truncation_notice_in_text_mode(self, capsys):
        assert main(
            ["query", "--dataset", "fig1", "--query", "D", "--k", "2", "--limit", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "showing first 1 of 2" in out
        assert out.count("PC1") == 1 and "PC2" not in out

    def test_explicit_method_skips_the_planner(self, capsys):
        assert main(
            [
                "query", "--dataset", "fig1", "--query", "D", "--k", "2",
                "--method", "adv-P", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "adv-P"
        assert payload["plan"]["planned"] is False

    def test_int_vertex_coercion(self, capsys, tmp_path):
        path = tmp_path / "g.snap"
        save_snapshot(_int_vertex_graph(), path)
        assert main(["query", "--dataset", str(path), "--query", "3", "--k", "1"]) == 0


class TestStats:
    def test_fig1_stats(self, capsys):
        assert main(["stats", "--dataset", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "vertices     : 8" in out
        assert "|GP-tree|    : 7" in out


class TestExport:
    def test_export_and_requery(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.snap"
        assert main(["snapshot", "--dataset", "fig1", "--out", str(out_path)]) == 0
        assert out_path.exists()
        assert main(["query", "--dataset", str(out_path), "--query", "D", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 communities" in out


class TestBatch:
    def _write_queries(self, tmp_path, text):
        path = tmp_path / "queries.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_batch_stdout_json(self, capsys, tmp_path):
        queries = self._write_queries(tmp_path, "D\nE\nD\n")
        assert main(
            ["batch", "--dataset", "fig1", "--queries", queries, "--k", "2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_queries"] == 3
        assert [r["query"]["vertex"] for r in payload["results"]] == ["D", "E", "D"]
        assert payload["results"][0]["returned"] == 2
        # The duplicate D is deduplicated inside the batch.
        assert payload["engine"]["queries_served"] == 2
        assert payload["engine"]["index_builds"] == 1

    def test_batch_mixed_spec_file(self, capsys, tmp_path):
        queries = self._write_queries(
            tmp_path, 'D\n{"vertex": "E", "k": 1, "method": "basic"}\n'
        )
        assert main(
            ["batch", "--dataset", "fig1", "--queries", queries, "--k", "2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][1]["k"] == 1
        assert payload["results"][1]["method"] == "basic"

    def test_batch_respects_per_query_post_filters(self, capsys, tmp_path):
        queries = self._write_queries(
            tmp_path, '{"vertex": "D", "k": 2, "limit": 1, "min_size": 2}\n'
        )
        assert main(
            ["batch", "--dataset", "fig1", "--queries", queries, "--k", "2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        result = payload["results"][0]
        assert result["returned"] == 1 and result["truncated"] is True
        assert result["matched"] == 2

    def test_batch_rejects_typo_keys(self, capsys, tmp_path):
        queries = self._write_queries(tmp_path, '{"vertex": "D", "methud": "basic"}\n')
        assert main(["batch", "--dataset", "fig1", "--queries", queries]) == 2
        assert "methud" in capsys.readouterr().err

    def test_batch_service_limit_flag(self, capsys, tmp_path):
        queries = self._write_queries(tmp_path, "D\n")
        assert main(
            [
                "batch", "--dataset", "fig1", "--queries", queries,
                "--k", "2", "--limit", "1",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["returned"] == 1

    def test_batch_to_file(self, capsys, tmp_path):
        queries = self._write_queries(tmp_path, "D\n")
        out = tmp_path / "results.json"
        assert main(
            [
                "batch", "--dataset", "fig1", "--queries", queries,
                "--k", "2", "--out", str(out),
            ]
        ) == 0
        assert json.loads(out.read_text())["num_queries"] == 1

    def test_batch_empty_file_fails(self, capsys, tmp_path):
        queries = self._write_queries(tmp_path, "# nothing here\n")
        assert main(
            ["batch", "--dataset", "fig1", "--queries", queries]
        ) == 1


class TestUpdate:
    def edits(self, tmp_path, text):
        path = tmp_path / "edits.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_update_applies_and_reports(self, capsys, tmp_path):
        edits = self.edits(
            tmp_path,
            "# warm-up edits\n"
            "remove-edge C D\n"
            "add-edge A C\n"
            "set-profile E ML,AI\n"
            "add-vertex Z ML\n"
            "add-edge Z B\n",
        )
        out = tmp_path / "update.json"
        assert main(
            [
                "update", "--dataset", "fig1", "--edits", edits,
                "--query", "D", "--k", "2", "--out", str(out),
            ]
        ) == 0
        text = capsys.readouterr().out
        assert "edits applied      : 5/5" in text
        assert "cache invalidations: 1" in text
        payload = json.loads(out.read_text())
        assert payload["receipt"]["applied"] == 5
        assert payload["receipt"]["repaired_labels"] > 0
        assert payload["engine"]["graph_version"] == 5
        assert payload["query"]["returned"] >= 1
        assert payload["query"]["graph_version"] == 5

    def test_update_removed_query_vertex(self, capsys, tmp_path):
        edits = self.edits(tmp_path, "remove-vertex D\n")
        out = tmp_path / "update.json"
        assert main(
            [
                "update", "--dataset", "fig1", "--edits", edits,
                "--query", "D", "--k", "2", "--out", str(out),
            ]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["query"]["error"] == "vertex removed"

    def test_update_empty_file_fails(self, capsys, tmp_path):
        edits = self.edits(tmp_path, "# nothing\n")
        assert main(["update", "--dataset", "fig1", "--edits", edits]) == 1
        assert "no edits" in capsys.readouterr().err

    def test_update_requires_edits_file(self):
        with pytest.raises(SystemExit):
            main(["update", "--dataset", "fig1"])


class TestServe:
    """`repro serve` end to end: a subprocess server, a real client, SIGINT."""

    def test_serve_answers_and_drains_on_sigint(self):
        import signal

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dataset", "fig1",
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        try:
            banner = proc.stdout.readline()
            assert "serving fig1 at http://127.0.0.1:" in banner
            port = int(banner.split("http://127.0.0.1:")[1].split()[0].rstrip(")"))
            from repro.api import Query
            from repro.server import ServerClient

            with ServerClient("127.0.0.1", port) as client:
                assert client.healthz()["status"] == "ok"
                assert client.query(Query(vertex="D", k=2)).returned == 2
        finally:
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "served 1 queries" in out

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.port == 8437
        assert args.coalesce_window == 0.005
        assert args.no_coalesce is False
        assert args.max_queue == 256
        assert args.func.__name__ == "cmd_serve"

    def test_serve_rejects_bad_parallel(self):
        with pytest.raises(SystemExit):
            main(["serve", "--parallel", "not-a-number"])


class TestSubscribe:
    """``repro subscribe`` prints the registration, the reset, then diffs."""

    @staticmethod
    def _follow_one_edit(capsys, server, registry):
        """Run ``repro subscribe --max-events 1`` against ``server`` while a
        thread posts one edit there once ``registry`` holds the subscription."""
        host, port = server.address

        def edit():
            deadline = time.monotonic() + 10.0
            while not len(registry) and time.monotonic() < deadline:
                time.sleep(0.01)
            with ServerClient(host, port) as client:
                client.update(ADD_Z1)

        editor = threading.Thread(target=edit)
        editor.start()
        code = main([
            "subscribe", "--url", f"http://{host}:{port}",
            "--vertex", "B", "--k", "2", "--max-events", "1",
        ])
        editor.join(timeout=10.0)
        assert not editor.is_alive()
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        subscribed, snapshot, diff = map(json.loads, captured.out.splitlines())
        assert subscribed["subscribed"]["vertex"] == "B"
        assert snapshot["reset"] and snapshot["event_id"] == 1
        assert sorted(snapshot["joined"]) == ["B", "C", "D"]
        assert not diff["reset"] and diff["event_id"] == 2
        assert diff["joined"] == ["Z1"]

    def test_against_a_gateway(self, capsys):
        with CommunityGateway(fig1_profiled_graph(), port=0, coalesce=False) as gateway:
            self._follow_one_edit(capsys, gateway, gateway.subscriptions)

    def test_through_the_router(self, capsys, tmp_path):
        with replication_tier(tmp_path) as (writer, _reps, router):
            self._follow_one_edit(capsys, router, writer.subscriptions)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            main(["query", "--method", "warp"])

    def test_batch_requires_query_file(self):
        with pytest.raises(SystemExit):
            main(["batch", "--dataset", "fig1"])


class TestSnapshotDataset:
    """``--dataset PATH`` reads a snapshot file, the one graph file format."""

    @pytest.fixture
    def snap(self, tmp_path):
        pg = _int_vertex_graph()
        path = tmp_path / "g.snap"
        save_snapshot(pg, path)
        return pg, str(path)

    @staticmethod
    def _answer(envelope):
        return envelope["returned"], [c["vertices"] for c in envelope["communities"]]

    def test_query_answers_as_the_in_memory_graph(self, capsys, snap):
        pg, path = snap
        assert main(["query", "--dataset", path, "--query", "3", "--k", "1",
                     "--json"]) == 0
        from_file = json.loads(capsys.readouterr().out)
        in_memory = CommunityService(pg).query(Query(vertex=3, k=1)).to_dict()
        assert from_file["returned"] > 0
        assert self._answer(from_file) == self._answer(in_memory)

    def test_stats_match_the_in_memory_graph(self, capsys, snap):
        pg, path = snap
        assert main(["stats", "--dataset", path]) == 0
        out = capsys.readouterr().out
        stats = pg.stats()
        assert f"vertices     : {stats.num_vertices}\n" in out
        assert f"edges        : {stats.num_edges}\n" in out
        assert f"avg |P-tree| : {stats.average_ptree_size:.2f}\n" in out
        assert f"|GP-tree|    : {stats.gp_tree_size}\n" in out

    def test_batch_answers_as_the_in_memory_graph(self, capsys, snap, tmp_path):
        pg, path = snap
        queries = tmp_path / "queries.txt"
        queries.write_text("3\n5\n3\n", encoding="utf-8")
        assert main(["batch", "--dataset", path, "--queries", str(queries),
                     "--k", "1"]) == 0
        from_file = json.loads(capsys.readouterr().out)["results"]
        expected = CommunityService(pg).batch(
            [Query(vertex=v, k=1, method="adv-P") for v in (3, 5, 3)]
        )
        assert [self._answer(r) for r in from_file] == [
            self._answer(r.to_dict()) for r in expected
        ]

    def test_json_graph_file_is_refused(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "format": "repro-profiled-graph-v1",
            "vertex_type": "str",
            "taxonomy": {"names": ["r", "a", "b"], "parents": [-1, 0, 0]},
            "edges": [["A", "B"], ["B", "C"], ["A", "C"]],
            "profiles": {"A": [1], "B": [1, 2], "C": [2]},
        }), encoding="utf-8")
        assert main(["stats", "--dataset", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a repro snapshot" in err


class TestFailsClosed:
    """Bad input prints one ``error:`` line and exits 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["stats", "--dataset", "nosuch"],
        ["snapshot", "--verify", "/nonexistent/g.snap"],
        ["query", "--dataset", "fig1", "--query", "ZZZ"],
        ["update", "--dataset", "fig1", "--edits", "{edits}"],
    ], ids=["unknown-dataset", "missing-snapshot", "missing-vertex", "bad-edit"])
    def test_bad_input_exits_2_without_traceback(self, tmp_path, argv):
        edits = tmp_path / "edits.txt"
        edits.write_text("add_edge A\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "repro",
             *(a.format(edits=edits) for a in argv)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
