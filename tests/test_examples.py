"""Smoke tests: the example scripts must run and print their key results.

The slow example (`social_circles.py`, ~1 min of F1 evaluation) is exercised
only for importability; the fast ones run end to end as subprocesses.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart_runs():
    out = run_example("quickstart.py")
    assert "2 communities" in out
    assert "All methods agree" in out
    assert "MISMATCH" not in out
    assert "{A, B, D, E}" in out or "'A', 'B', 'D', 'E'" in out


def test_seminar_planning_runs():
    out = run_example("seminar_planning.py")
    assert "PCS finds 2 profiled communities" in out
    assert "ACQ finds 1 community" in out
    assert "Level-diversity ratio" in out


def test_themed_exploration_runs():
    out = run_example("themed_exploration.py")
    assert "β-similarity" in out
    assert "δ-relaxed" in out
    assert "k-truss" in out


def test_serving_client_runs():
    out = run_example("serving_client.py")
    assert "gateway up at http://" in out
    assert "batch dispatches" in out
    assert "graph_version advanced: 0 -> 2" in out
    assert "prometheus agrees: repro_graph_version 2" in out
    assert "gateway drained and closed" in out


def test_index_scaling_runs():
    out = run_example("index_scaling.py", timeout=420)
    assert "CP-tree construction scaling" in out
    assert "basic" in out and "adv-P" in out


@pytest.mark.parametrize(
    "name",
    ["quickstart.py", "seminar_planning.py", "social_circles.py",
     "index_scaling.py", "themed_exploration.py", "serving_client.py",
     "dynamic_updates.py"],
)
def test_examples_importable(name):
    spec = importlib.util.spec_from_file_location(name[:-3], EXAMPLES / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module.__self__  # loader exists
    # import (executes top-level code only; main() guarded)
    spec.loader.exec_module(module)
    assert hasattr(module, "main")
