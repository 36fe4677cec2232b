"""Tests for :mod:`repro.lint` — framework, checkers, suppressions, CLI.

Each checker is proven twice: it catches the seeded violation in its
fixture under ``tests/data/lint/`` and stays silent on the clean twin.
The suite also locks the JSON schema, the suppression-justification
policy, and — the point of the exercise — that ``repro lint`` is clean
on ``src/repro`` itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import Checker, LintReport, checker_ids, run_lint
from repro.lint.checkers.layers import DEFAULT_LAYERS, LayerDagChecker
from repro.lint.registry import register
from repro.lint.suppress import parse_suppressions

DATA = Path(__file__).parent / "data" / "lint"
TREE = DATA / "tree"
REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

ALL_CHECKERS = (
    "api-hygiene",
    "docstring-coverage",
    "durability-protocol",
    "layer-dag",
    "lock-discipline",
    "version-tagging",
)


def lint_one(path: Path, checker: str) -> LintReport:
    """Run a single checker over one fixture file."""
    return run_lint([path], select=[checker], base=REPO)


def finding_lines(report: LintReport, checker: str):
    """Sorted line numbers of the report's findings for ``checker``."""
    return sorted(f.line for f in report.findings if f.checker == checker)


class TestLockDiscipline:
    def test_catches_seeded_violations(self):
        report = lint_one(DATA / "locks_bad.py", "lock-discipline")
        messages = [f.message for f in report.findings]
        assert len(report.findings) == 2
        assert any("self._count" in m for m in messages)  # unguarded read
        assert any("self._data" in m for m in messages)  # unguarded subscript write
        symbols = {f.symbol for f in report.findings}
        assert symbols == {"Counter.peek", "Counter.reset"}

    def test_silent_on_clean_twin(self):
        report = lint_one(DATA / "locks_clean.py", "lock-discipline")
        assert report.findings == []


class TestLayerDag:
    def test_catches_upward_import(self):
        report = lint_one(TREE / "repro" / "graph" / "upward.py", "layer-dag")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert "repro.server" in finding.message
        assert finding.symbol == "repro.graph.upward"

    def test_silent_on_downward_and_lazy_imports(self):
        report = lint_one(TREE / "repro" / "server" / "downward.py", "layer-dag")
        assert report.findings == []

    def test_equal_rank_is_rejected(self):
        checker = LayerDagChecker(layers={"graph": 1, "ptree": 1})
        # Same-rank imports climb "its own layer" — construct via the
        # real fixture tree by giving graph and server equal ranks.
        checker = LayerDagChecker(layers={"graph": 2, "server": 2})
        report = run_lint(
            [TREE / "repro" / "graph" / "upward.py"], checkers=[checker], base=REPO
        )
        assert len(report.findings) == 1
        assert "its own layer" in report.findings[0].message

    def test_table_matches_reality(self):
        """Every package under src/repro has a rank (no silent gaps)."""
        top_level = {
            p.stem if p.is_file() else p.name
            for p in SRC.iterdir()
            if (p.is_dir() and (p / "__init__.py").exists())
            or (p.is_file() and p.suffix == ".py")
        }
        top_level -= {"__init__", "__main__"}
        missing = top_level - set(DEFAULT_LAYERS)
        assert not missing, f"packages without a layer rank: {sorted(missing)}"


class TestDurabilityProtocol:
    def test_catches_seeded_violations(self):
        report = lint_one(TREE / "repro" / "storage" / "bad_write.py", "durability-protocol")
        messages = " | ".join(f.message for f in report.findings)
        assert len(report.findings) == 4
        assert "not followed by" in messages  # naked open
        assert "preceding fsync" in messages  # replace, no fsync before
        assert "directory fsync" in messages  # replace, no fsync after
        assert "write_text" in messages  # Path helper

    def test_silent_on_clean_twin(self):
        report = lint_one(TREE / "repro" / "storage" / "clean_write.py", "durability-protocol")
        assert report.findings == []

    def test_out_of_scope_package_is_ignored(self):
        # The same shapes outside repro.storage are not this checker's
        # business (locks_bad.py is standalone: no package at all).
        report = lint_one(DATA / "locks_bad.py", "durability-protocol")
        assert report.findings == []


class TestVersionTagging:
    def test_catches_seeded_violation(self):
        report = lint_one(TREE / "repro" / "engine" / "bad_version.py", "version-tagging")
        assert len(report.findings) == 1
        assert report.findings[0].symbol == "Engine.answer"
        assert "unpinned read" in report.findings[0].message

    def test_silent_on_all_sanctioned_shapes(self):
        report = lint_one(TREE / "repro" / "engine" / "clean_version.py", "version-tagging")
        assert report.findings == []


class TestApiHygiene:
    def test_catches_seeded_violations(self):
        report = lint_one(DATA / "hygiene_bad.py", "api-hygiene")
        messages = " | ".join(f.message for f in report.findings)
        assert "'GHOST'" in messages  # exported but never defined
        assert "'PUBLIC_CONSTANT'" in messages  # defined but not exported
        assert "'swallow'" in messages  # also public-but-unlisted
        assert "mutable default" in messages
        assert messages.count("does not admit it") == 2  # int / List[str] = None
        assert "bare 'except:'" in messages
        assert "silently swallows" in messages
        assert len(report.findings) == 8

    def test_silent_on_clean_twin(self):
        report = lint_one(DATA / "hygiene_clean.py", "api-hygiene")
        assert report.findings == []


class TestDocstringCoverage:
    def test_catches_seeded_violations(self):
        report = lint_one(DATA / "docstrings_bad.py", "docstring-coverage")
        symbols = {f.symbol for f in report.findings}
        assert len(report.findings) == 3
        assert any(s.endswith("Undocumented") for s in symbols)
        assert any(s.endswith("Undocumented.method") for s in symbols)
        assert any(s.endswith("undocumented_function") for s in symbols)

    def test_silent_on_clean_twin(self):
        # __repr__ (non-init dunder) and hook (trivial override) exempt.
        report = lint_one(DATA / "docstrings_clean.py", "docstring-coverage")
        assert report.findings == []


class TestSuppressions:
    def test_the_five_behaviours(self):
        report = lint_one(DATA / "suppress_cases.py", "api-hygiene")
        # justified + justified_above: silenced.
        assert len(report.suppressed) == 2
        assert all(
            "fixture exercising" in s.justification for s in report.suppressed
        )
        # unjustified + wrong_id: the hygiene findings stay live...
        hygiene = [f for f in report.findings if f.checker == "api-hygiene"]
        assert {f.symbol for f in hygiene} == {"unjustified", "wrong_id"}
        # ...and the unjustified + stale entries are policy findings of
        # their own. The wrong-id entry names layer-dag, which did not
        # run here, so it is NOT judged stale under --select.
        policy = [f for f in report.findings if f.checker == "suppression"]
        assert len(policy) == 2
        assert any("without a justification" in f.message for f in policy)
        assert any("stale suppression" in f.message for f in policy)

    def test_unselected_checker_entries_become_stale_in_full_runs(self):
        # In a full run layer-dag is active, so the wrong-id entry IS
        # condemned as stale (3 policy findings, not 2).
        report = run_lint([DATA / "suppress_cases.py"], base=REPO)
        policy = [f for f in report.findings if f.checker == "suppression"]
        stale = [f for f in policy if "stale suppression" in f.message]
        assert len(policy) == 3
        assert len(stale) == 2
        assert any("layer-dag" in f.message for f in stale)

    def test_policy_findings_cannot_be_suppressed(self):
        source = (DATA / "suppress_cases.py").read_text(encoding="utf-8")
        entries = parse_suppressions(source)
        assert len(entries) == 5
        from repro.lint.findings import Finding
        from repro.lint.suppress import SuppressionIndex

        index = SuppressionIndex(source)
        policy_finding = Finding(
            checker="suppression", path="x.py", line=entries[0].line, message="m"
        )
        assert index.match(policy_finding) == ()

    def test_suppression_comment_parsing(self):
        entries = parse_suppressions(
            "x = 1  # repro-lint: disable=a-b,c -- two ids, one justification\n"
        )
        assert len(entries) == 1
        assert entries[0].ids == ("a-b", "c")
        assert entries[0].justification == "two ids, one justification"


class TestJsonSchema:
    def test_report_schema(self):
        report = lint_one(DATA / "hygiene_bad.py", "api-hygiene")
        doc = report.to_dict()
        assert doc["schema"] == "repro-lint/1"
        assert doc["files"] == 1
        assert doc["checkers"] == ["api-hygiene"]
        assert doc["summary"]["errors"] == len(doc["findings"]) > 0
        for finding in doc["findings"]:
            assert set(finding) == {
                "checker", "path", "line", "message", "severity", "symbol",
            }
            assert finding["severity"] in ("error", "warning")
            assert isinstance(finding["line"], int) and finding["line"] >= 1
        assert json.loads(json.dumps(doc)) == doc  # round-trips

    def test_suppressed_entries_carry_justification(self):
        report = lint_one(DATA / "suppress_cases.py", "api-hygiene")
        doc = report.to_dict()
        assert doc["summary"]["suppressed"] == 2
        for entry in doc["suppressed"]:
            assert entry["justification"]


class TestRegistry:
    def test_all_six_checkers_registered(self):
        assert tuple(checker_ids()) == ALL_CHECKERS

    def test_duplicate_and_reserved_ids_rejected(self):
        class Dupe(Checker):
            id = "api-hygiene"

        with pytest.raises(ValueError, match="duplicate"):
            register(Dupe)

        class Reserved(Checker):
            id = "suppression"

        with pytest.raises(ValueError, match="reserved"):
            register(Reserved)

        class Anonymous(Checker):
            id = ""

        with pytest.raises(ValueError, match="no id"):
            register(Anonymous)


class TestSelfRun:
    """The acceptance gate: repro lint is clean on src/repro."""

    def test_src_repro_is_clean(self):
        report = run_lint([SRC], base=REPO)
        assert report.findings == [], report.render_text()
        assert report.exit_code() == 0
        assert list(report.checkers) == list(ALL_CHECKERS)
        assert report.files > 100

    def test_every_suppression_in_src_is_justified_and_used(self):
        report = run_lint([SRC], base=REPO)
        assert all(s.justification for s in report.suppressed)
        # Stale or unjustified entries would have surfaced as findings.
        assert not [f for f in report.findings if f.checker == "suppression"]


class TestCli:
    def test_lint_clean_exits_zero(self, capsys):
        assert cli_main(["lint", str(SRC)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_findings_exit_one_and_json_out(self, tmp_path, capsys):
        out = tmp_path / "findings.json"
        code = cli_main([
            "lint", str(DATA / "hygiene_bad.py"),
            "--select", "api-hygiene",
            "--format", "json",
            "--json-out", str(out),
        ])
        assert code == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["summary"]["errors"] == 8
        stdout_doc = json.loads(capsys.readouterr().out)
        assert stdout_doc == doc

    def test_lint_list(self, capsys):
        assert cli_main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for checker_id in ALL_CHECKERS:
            assert f"{checker_id}:" in out

    def test_unknown_checker_exits_two(self, capsys):
        assert cli_main(["lint", "--select", "no-such-checker", str(SRC)]) == 2
        assert "unknown checker" in capsys.readouterr().err


class TestDocs:
    def test_static_analysis_doc_covers_every_checker(self):
        doc = (REPO / "docs" / "static-analysis.md").read_text(encoding="utf-8")
        for checker_id in ALL_CHECKERS:
            assert checker_id in doc, f"docs/static-analysis.md misses {checker_id}"
        assert "repro-lint: disable=" in doc  # suppression policy documented

    def test_readme_mentions_lint(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "repro lint" in readme
