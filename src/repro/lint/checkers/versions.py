"""Version-tagging checker: no torn reads of the graph version.

Invariant (the linearisable-serving fix from the parallel-serving PR):
in ``repro.engine`` and ``repro.server``, a read of ``pg.version`` (or
``*.graph_version``) is only meaningful when something pins the graph —
otherwise a mutation can land between the read and the use, and the
version tags a result it does not describe (the exact torn-read class
``_run_stable`` exists to close).

A ``pg``-rooted ``.version``/``.graph_version`` read is sanctioned when:

* it happens inside ``_run_stable`` itself (the optimistic retry loop
  re-validates the read — that is its whole job);
* it happens while holding a lock (inside ``with self.<lock>:``);
* it flows into the versioned cache (argument to ``get_versioned``,
  directly or via a straight-line local) — the cache's epoch check
  makes a stale read harmless;
* it is a value in a dict literal — monitoring payloads (``/healthz``,
  ``/statz``, metrics) report a point-in-time observation and tag no
  result with it.

Anything else is a finding; either restructure the code into one of the
sanctioned shapes or add a justified suppression explaining why the
read cannot race a mutation.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.findings import Finding
from repro.lint.project import Module
from repro.lint.registry import Checker, register
from repro.lint.checkers._util import attr_path, build_parents, with_guard_paths

#: Attribute names whose read this checker audits.
TARGET_ATTRS = frozenset({"version", "graph_version"})

#: Callables whose arguments are version-safe (epoch-checked cache).
VERSIONED_SINKS = frozenset({"get_versioned"})

#: Packages under scrutiny — where version tags label query results.
SCOPED_PACKAGES = frozenset({"engine", "server"})


def _is_version_read(node: ast.AST) -> bool:
    """A ``Load`` of ``<...pg...>.version`` / ``.graph_version``."""
    if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, ast.Load):
        return False
    if node.attr not in TARGET_ATTRS:
        return False
    base = attr_path(node.value)
    return base is not None and any(seg == "pg" for seg in base)


def _sink_call_name(node: ast.AST) -> str:
    """The versioned-sink name a call targets, or ``""``."""
    if isinstance(node, ast.Call):
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if attr in VERSIONED_SINKS:
            return attr
    return ""


@register
class VersionTaggingChecker(Checker):
    """Flag unpinned graph-version reads in engine/server code."""

    id = "version-tagging"
    description = (
        "pg.version reads in engine/server must be pinned: _run_stable, "
        "a lock block, the versioned cache, or a monitoring dict"
    )

    def check(self, module: Module, modules: List[Module]) -> Iterator[Finding]:
        """Audit every version read in the module against the sanctions."""
        if module.package not in SCOPED_PACKAGES:
            return
        parents = build_parents(module.tree)
        for func in (
            n
            for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ):
            if func.name == "_run_stable":
                continue
            yield from self._check_function(module, func, parents)

    def _check_function(
        self,
        module: Module,
        func: ast.FunctionDef,
        parents: dict,
    ) -> Iterator[Finding]:
        locals_into_sinks = self._locals_flowing_into_sinks(func)
        for node, depth in self._version_reads(func):
            if depth > 0:
                continue
            if self._inside_sink_call(node, func, parents):
                continue
            if self._assigned_local(node, parents) in locals_into_sinks:
                continue
            if self._inside_dict_literal(node, func, parents):
                continue
            class_name = self._enclosing_class(func, parents)
            symbol = f"{class_name}.{func.name}" if class_name else func.name
            yield Finding(
                checker=self.id,
                path=module.relpath,
                line=node.lineno,
                message=(
                    f"unpinned read of '{ast.unparse(node)}': a mutation can "
                    "land between this read and its use — move it under "
                    "_run_stable, a lock, or the versioned cache"
                ),
                symbol=symbol,
            )

    def _version_reads(self, func: ast.FunctionDef):
        """``(node, guard_depth)`` for each version read directly in ``func``."""

        def visit(node: ast.AST, depth: int):
            if isinstance(node, ast.With):
                inner = depth + (1 if with_guard_paths(node) else 0)
                for item in node.items:
                    yield from visit(item.context_expr, depth)
                for stmt in node.body:
                    yield from visit(stmt, inner)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return  # nested defs are audited as their own functions
            if _is_version_read(node):
                yield node, depth
            for child in ast.iter_child_nodes(node):
                yield from visit(child, depth)

        for stmt in func.body:
            yield from visit(stmt, 0)

    @staticmethod
    def _locals_flowing_into_sinks(func: ast.FunctionDef) -> Set[str]:
        """Local names used as arguments of a versioned-sink call."""
        names: Set[str] = set()
        for node in ast.walk(func):
            if _sink_call_name(node):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if isinstance(arg, ast.Name):
                        names.add(arg.id)
        return names

    @staticmethod
    def _inside_sink_call(node: ast.AST, func: ast.FunctionDef, parents: dict) -> bool:
        """Whether the read sits inside a versioned-sink call's arguments."""
        cursor = node
        while cursor is not func:
            parent = parents.get(cursor)
            if parent is None:
                return False
            if isinstance(parent, ast.Call) and _sink_call_name(parent) and (
                cursor is not parent.func
            ):
                return True
            cursor = parent
        return False

    @staticmethod
    def _assigned_local(node: ast.AST, parents: dict) -> Optional[str]:
        """The local name when the read is the whole RHS of an assignment."""
        parent = parents.get(node)
        if isinstance(parent, ast.Assign) and parent.value is node:
            targets = parent.targets
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                return targets[0].id
        if isinstance(parent, ast.AnnAssign) and parent.value is node:
            if isinstance(parent.target, ast.Name):
                return parent.target.id
        return None

    @staticmethod
    def _inside_dict_literal(node: ast.AST, func: ast.FunctionDef, parents: dict) -> bool:
        """Whether the read is (part of) a dict-literal value."""
        cursor = node
        while cursor is not func:
            parent = parents.get(cursor)
            if parent is None:
                return False
            if isinstance(parent, ast.Dict):
                return True
            cursor = parent
        return False

    @staticmethod
    def _enclosing_class(func: ast.FunctionDef, parents: dict) -> str:
        """Name of the class a method belongs to, or ``""``."""
        parent = parents.get(func)
        return parent.name if isinstance(parent, ast.ClassDef) else ""
