#!/usr/bin/env python3
"""Render a markdown API reference for the public serving + lint surface.

Imports the public serving surface and walks it with :mod:`inspect`,
emitting one markdown file per module into ``docs/api/`` plus an
``index.md``. Documentation is pulled from the docstrings that the
``docstring-coverage`` lint checker gates, so the reference can never be
emptier than the gate allows.

What is documented, in source order: the module docstring, public classes
(with their public methods and properties, *defined in that class* or in
a private direct base, which has no page of its own — members inherited
from public classes are not repeated), and public module-level functions.
Signatures come from :func:`inspect.signature`.

The generated files are committed; CI regenerates and diffs them
(``--check``) so the reference cannot drift from the code. Regenerate
after changing any docstring in the covered packages::

    PYTHONPATH=src python scripts/gen_api_docs.py          # rewrite docs/api/
    PYTHONPATH=src python scripts/gen_api_docs.py --check  # CI drift gate
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "docs" / "api"

#: The modules rendered, in the order they appear in the index.
MODULES = (
    "repro.graph.csr",
    "repro.api",
    "repro.api.query",
    "repro.engine.query",
    "repro.api.response",
    "repro.api.planner",
    "repro.api.protocol",
    "repro.api.service",
    "repro.api.subscription",
    "repro.core.protocol",
    "repro.server",
    "repro.server.gateway",
    "repro.server.coalescer",
    "repro.server.app",
    "repro.server.client",
    "repro.server.metrics",
    "repro.replication",
    "repro.replication.protocol",
    "repro.replication.writer",
    "repro.replication.replica",
    "repro.replication.router",
    "repro.replication.cluster",
    "repro.storage",
    "repro.storage.snapshot",
    "repro.storage.wal",
    "repro.storage.store",
    "repro.subscribe",
    "repro.subscribe.matcher",
    "repro.subscribe.manager",
    "repro.lint",
    "repro.lint.findings",
    "repro.lint.suppress",
    "repro.lint.project",
    "repro.lint.registry",
    "repro.lint.runner",
    "repro.lint.checkers",
    "repro.lint.checkers.locks",
    "repro.lint.checkers.layers",
    "repro.lint.checkers.durability",
    "repro.lint.checkers.versions",
    "repro.lint.checkers.hygiene",
    "repro.lint.checkers.docstrings",
)

_HEADER = "<!-- generated by scripts/gen_api_docs.py; do not edit by hand -->"


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def _doc(obj) -> str:
    text = inspect.getdoc(obj)
    return text.strip() if text else "*(undocumented)*"


def _source_line(obj) -> int:
    try:
        return inspect.getsourcelines(obj)[1]
    except (OSError, TypeError):
        return 1 << 30


def _class_section(cls) -> List[str]:
    lines = [f"## class `{cls.__name__}`", "", _doc(cls), ""]
    members = []
    own = {}
    for owner in (*(b for b in cls.__bases__ if not _is_public(b.__name__)), cls):
        own.update(vars(owner))
    for name, member in own.items():
        if not _is_public(name):
            continue
        if isinstance(member, property):
            members.append((_source_line(member.fget), name, member, "property"))
        elif isinstance(member, (staticmethod, classmethod)):
            members.append((_source_line(member.__func__), name, member.__func__,
                            type(member).__name__))
        elif inspect.isfunction(member):
            members.append((_source_line(member), name, member, "method"))
    for _, name, member, kind in sorted(members, key=lambda item: item[0]):
        if kind == "property":
            lines.append(f"### `{cls.__name__}.{name}` *(property)*")
            lines.extend(["", _doc(member.fget), ""])
        else:
            suffix = f" *({kind})*" if kind != "method" else ""
            lines.append(
                f"### `{cls.__name__}.{name}{_signature(member)}`{suffix}"
            )
            lines.extend(["", _doc(member), ""])
    return lines


def render_module(module_name: str) -> str:
    """One module's markdown reference page."""
    module = importlib.import_module(module_name)
    lines = [_HEADER, "", f"# `{module_name}`", "", _doc(module), ""]
    entries = []
    for name, member in vars(module).items():
        if not _is_public(name):
            continue
        if inspect.isclass(member) and member.__module__ == module_name:
            entries.append((_source_line(member), "class", member))
        elif inspect.isfunction(member) and member.__module__ == module_name:
            entries.append((_source_line(member), "function", member))
    for _, kind, member in sorted(entries, key=lambda item: item[0]):
        if kind == "class":
            lines.extend(_class_section(member))
        else:
            lines.append(f"## `{member.__name__}{_signature(member)}`")
            lines.extend(["", _doc(member), ""])
    return "\n".join(lines).rstrip() + "\n"


def render_index() -> str:
    """The ``docs/api/index.md`` table of contents."""
    lines = [
        _HEADER,
        "",
        "# API reference",
        "",
        "Generated from docstrings by `scripts/gen_api_docs.py` "
        "(drift-checked in CI). One page per module of the public "
        "serving surface:",
        "",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        first = (inspect.getdoc(module) or "").strip().splitlines()
        summary = first[0] if first else ""
        lines.append(f"- [`{module_name}`]({module_name}.md) — {summary}")
    return "\n".join(lines) + "\n"


def generate() -> dict:
    """``{relative filename: content}`` for every page."""
    pages = {"index.md": render_index()}
    for module_name in MODULES:
        pages[f"{module_name}.md"] = render_module(module_name)
    return pages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail if docs/api/ differs from a fresh render")
    parser.add_argument("--out", type=Path, default=OUT_DIR,
                        help=f"output directory (default {OUT_DIR})")
    args = parser.parse_args(argv)

    pages = generate()
    if args.check:
        stale = []
        for name, content in pages.items():
            path = args.out / name
            if not path.exists() or path.read_text(encoding="utf-8") != content:
                stale.append(name)
        committed = {p.name for p in args.out.glob("*.md")} if args.out.exists() else set()
        orphaned = sorted(committed - set(pages))
        if stale or orphaned:
            for name in stale:
                print(f"stale: docs/api/{name}", file=sys.stderr)
            for name in orphaned:
                print(f"orphaned: docs/api/{name}", file=sys.stderr)
            print("regenerate with: PYTHONPATH=src python scripts/gen_api_docs.py",
                  file=sys.stderr)
            return 1
        print(f"docs/api/ is current ({len(pages)} pages)")
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    for name, content in pages.items():
        (args.out / name).write_text(content, encoding="utf-8")
    print(f"wrote {len(pages)} pages to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
