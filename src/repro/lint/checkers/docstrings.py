"""Docstring-coverage checker: the public surface stays documented.

The rules:

* every module has a docstring;
* every public class has one;
* every public function/method has one — dunders other than
  ``__init__`` are exempt (protocol-documented), ``__init__`` itself is
  exempt (the class documents construction), and an undocumented
  *trivial override* (a body of at most one ``pass``/``return``/
  ``raise``) inside a class is tolerated.

The checker is per-item, not a percentage: each undocumented public item
is its own finding, so the lint baseline stays exactly at zero rather
than drifting under a threshold.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.findings import Finding
from repro.lint.project import Module
from repro.lint.registry import Checker, register


def is_public(name: str) -> bool:
    """Public means no leading underscore (``__init__`` counts as public)."""
    return not name.startswith("_") or name == "__init__"


def is_trivial_override(node: ast.FunctionDef) -> bool:
    """A body of at most one simple ``pass``/``return``/``raise`` statement."""
    body = [
        n
        for n in node.body
        if not isinstance(n, ast.Expr) or not isinstance(n.value, ast.Constant)
    ]
    return len(body) <= 1 and all(
        isinstance(n, (ast.Pass, ast.Return, ast.Raise)) for n in body
    )


def iter_undocumented(module: Module) -> Iterator[tuple]:
    """Yield ``(qualname, lineno)`` for each undocumented public item."""
    tree = module.tree
    prefix = module.name or module.relpath
    if ast.get_docstring(tree) is None:
        yield prefix, 1

    def walk(nodes: List[ast.stmt], qual: str, in_class: bool) -> Iterator[tuple]:
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                if not is_public(node.name):
                    continue
                qualname = f"{qual}.{node.name}"
                if ast.get_docstring(node) is None:
                    yield qualname, node.lineno
                yield from walk(node.body, qualname, in_class=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not is_public(node.name):
                    continue
                if node.name.startswith("__") and node.name != "__init__":
                    continue  # non-init dunders are protocol-documented
                if node.name == "__init__" and in_class:
                    continue  # construction is documented on the class
                if ast.get_docstring(node) is not None:
                    continue
                if in_class and is_trivial_override(node):
                    continue  # pass-through hook with no new contract
                yield f"{qual}.{node.name}", node.lineno
                # Nested defs are implementation detail: do not recurse.

    yield from walk(tree.body, prefix, in_class=False)


@register
class DocstringCoverageChecker(Checker):
    """One finding per undocumented public module/class/function."""

    id = "docstring-coverage"
    description = (
        "every public module, class, and function carries a docstring "
        "(non-init dunders and trivial overrides exempt)"
    )

    def check(self, module: Module, modules: List[Module]) -> Iterator[Finding]:
        """Emit a finding for each undocumented public item."""
        for qualname, lineno in iter_undocumented(module):
            yield Finding(
                checker=self.id,
                path=module.relpath,
                line=lineno,
                message=f"public item {qualname!r} has no docstring",
                symbol=qualname,
            )
