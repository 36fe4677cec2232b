"""Self-test of the end-to-end benchmark at toy size (tier-1, a few seconds).

Scale 0.01 (1 076 vertices), one boot, one to three blocks of the timed
phase per workload: enough to prove that every metric named in ``BENCHMARK.json`` is
produced with its unit, that no operation fails verification, and that the
trace nests. It asserts nothing about speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SCALE = 0.01
#: Blocks of the timed phase: at least 20 operations in each workload.
MAX_BLOCKS = {"point-cold": 1, "point-hot": 1, "batch-sweep": 10, "mixed-rw": 3}


def _server_processes() -> set:
    listing = subprocess.run(["ps", "-eo", "pid,args"], capture_output=True, text=True)
    return {line.split()[0] for line in listing.stdout.splitlines()
            if "-m repro serve" in line}


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_pass(name, tmp_path):
    before = _server_processes()
    result = workloads.run_end_to_end(
        name, seed=7, seconds=5.0, repo_root=ROOT, scratch=tmp_path,
        scale=SCALE, boots=1, max_blocks=MAX_BLOCKS[name],
    )
    assert result.failures == []
    assert result.failed == 0 and result.attempted >= 20
    for metric in SPEC["end_to_end"]:
        value, unit = result.metrics[metric["name"]]
        assert value > 0 and unit == metric["unit"], metric["name"]
    assert _server_processes() <= before, "a server process outlived the run"
    assert list(tmp_path.iterdir()) == [], "a temporary data dir was left behind"


def test_corrupted_expectation_fails_the_run(tmp_path, monkeypatch):
    honest = workloads.Oracle.answer

    def one_community_short(self, vertex, k):
        answer = honest(self, vertex, k)
        if answer:
            answer.pop(next(iter(answer)))
        return answer

    monkeypatch.setattr(workloads.Oracle, "answer", one_community_short)
    result = workloads.run_end_to_end(
        "point-cold", seed=7, seconds=5.0, repo_root=ROOT, scratch=tmp_path,
        scale=SCALE, boots=1, max_blocks=1,
    )
    assert result.failed > 0
    assert any("differ" in reason for reason in result.failures)


def test_traced_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(layers, "HTTP_SECONDS", 0.5)
    result = layers.run_traced("mixed-rw", seed=7, scratch=tmp_path, scale=SCALE)
    assert result.failures == []
    for metric in SPEC["per_layer"]:
        assert metric["name"] in result.metrics, metric["name"]
        assert result.metrics[metric["name"]][1] == metric["unit"], metric["name"]
    trace = json.loads(json.dumps(result.trace))
    spans = trace["spans"]
    assert spans and trace["missing_hooks"] == []
    by_id = {span[0]: span for span in spans}
    nested = 0
    for span_id, _, start, end, parent, request_id in spans:
        assert end >= start and request_id
        if parent >= 0:
            nested += 1
            _, _, parent_start, parent_end, _, parent_request = by_id[parent]
            assert parent_start <= start and end <= parent_end
            assert parent_request == request_id
    assert nested > 0
    layers_seen = {name.split(".")[0] for name in trace["self_time_ms_by_span"]}
    assert {"server", "api", "engine", "index", "graph", "storage"} <= layers_seen
    assert list(tmp_path.iterdir()) == []
