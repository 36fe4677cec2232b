"""Tier-1 enforcement of the documentation surface.

Two contracts, so the docs cannot silently rot between PRs (docstring
coverage is the ``docstring-coverage`` lint checker's, gated at zero
findings by ``tests/test_lint.py``):

* the generated API reference under ``docs/api/`` matches a fresh render
  (``scripts/gen_api_docs.py --check``);
* the hand-written guides exist, keep their load-bearing sections, and
  ``docs/experiments.md`` maps **every** ``benchmarks/bench_*.py`` file
  and names no other.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs"
SCRIPTS = ROOT / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )


class TestGeneratedApiDocs:
    def test_api_reference_is_current(self):
        result = run_script("gen_api_docs.py", "--check")
        assert result.returncode == 0, (
            result.stdout + result.stderr
            + "\n(regenerate with: PYTHONPATH=src python scripts/gen_api_docs.py)"
        )

    def test_reference_covers_api_and_server(self):
        index = (DOCS / "api" / "index.md").read_text(encoding="utf-8")
        for module in ("repro.api.query", "repro.api.service",
                       "repro.server.gateway", "repro.server.coalescer",
                       "repro.server.client"):
            assert f"`{module}`" in index, module
            assert (DOCS / "api" / f"{module}.md").exists(), module


class TestGuides:
    def test_architecture_guide(self):
        text = (DOCS / "architecture.md").read_text(encoding="utf-8")
        assert "## Layer diagram" in text
        assert "## Data flow: one query" in text
        assert "## Data flow: one mutation" in text
        # The diagram names every layer package.
        for package in ("repro.server", "repro.api", "repro.engine",
                        "repro.parallel", "repro.core"):
            assert package in text, package

    def test_serving_guide(self):
        text = (DOCS / "serving.md").read_text(encoding="utf-8")
        for heading in ("## Request coalescing", "## Backpressure",
                        "## Parallel workers", "## Observability"):
            assert heading in text, heading
        assert "curl -s -X POST localhost:8437/query" in text
        assert "Retry-After" in text

    def test_experiments_guide_maps_every_benchmark(self):
        text = (DOCS / "experiments.md").read_text(encoding="utf-8")
        bench_files = sorted(
            p.name for p in (ROOT / "benchmarks").glob("bench_*.py")
        )
        assert bench_files, "no benchmarks found?"
        unmapped = [name for name in bench_files if f"`{name}`" not in text]
        assert not unmapped, (
            f"benchmarks missing from docs/experiments.md: {unmapped}"
        )
        named = set(re.findall(r"bench_\w+\.py", text))
        stale = sorted(named - set(bench_files))
        assert not stale, (
            f"docs/experiments.md names benchmarks that do not exist: {stale}"
        )

    def test_readme_names_the_three_entry_points(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        for anchor in ("As a library", "From the command line", "As a service"):
            assert anchor in text, anchor
        assert "repro serve" in text
        assert "docs/architecture.md" in text or "docs/serving.md" in text
