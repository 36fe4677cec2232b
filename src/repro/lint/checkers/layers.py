"""Layer-DAG checker: imports under ``src/repro`` flow strictly downward.

Invariant (the import-order story PR 3 established and CI smoke-tested
with ad-hoc triangle checks): the package graph is a DAG —

====  =====================================================
rank  packages (a package may eagerly import only lower ranks)
====  =====================================================
0     ``errors``, ``version``, ``lint``
1     ``graph``, ``ptree``
2     ``index``
3     ``core``
4     ``baselines``, ``datasets``, ``dynamic``, ``metrics``
5     ``engine``
6     ``storage``
7     ``api``, ``parallel``
8     ``bench``, ``subscribe``
9     ``server``
10    ``replication``
11    ``cli``
12    ``repro`` (the root ``__init__``/``__main__``)
====  =====================================================

Only *eager* imports count: module-level ``import``/``from`` statements,
including those inside module-level ``if``/``try`` blocks. Imports under
``if TYPE_CHECKING:`` and imports local to a function body are the
sanctioned cycle-breaking idioms (e.g. the engine's lazy
``QueryResponse`` import) and are exempt. Intra-package imports are likewise exempt —
which is why the CSR backend lives at ``graph/csr.py`` (rank 1 with the
rest of ``graph``) instead of as a new top-level package: ``graph.core``
dispatches to it eagerly and ``graph.graph`` reaches back lazily, a
cycle the DAG only tolerates inside one package.

Note the measured order differs from the issue's sketch in one place:
``storage`` sits *below* ``api``/``parallel`` (both eagerly import it),
not beside ``server``. The table above is the order the code actually
has; see docs/static-analysis.md for the derivation.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.findings import Finding
from repro.lint.project import ROOT_PACKAGE, Module
from repro.lint.registry import Checker, register

#: The enforced partial order: first path segment under ``repro`` (or
#: ``"repro"`` itself for root modules) → rank. Lower may not import
#: higher or equal (other packages).
DEFAULT_LAYERS: Dict[str, int] = {
    "errors": 0,
    "version": 0,
    "lint": 0,
    "graph": 1,
    "ptree": 1,
    "index": 2,
    "core": 3,
    "baselines": 4,
    "datasets": 4,
    "dynamic": 4,
    "metrics": 4,
    "engine": 5,
    "storage": 6,
    "api": 7,
    "parallel": 7,
    "bench": 8,
    "subscribe": 8,
    "server": 9,
    "replication": 10,
    "cli": 11,
    "repro": 12,
}


def _segment(dotted: str) -> Optional[str]:
    """Layer key for a dotted module name, or ``None`` if not internal."""
    parts = dotted.split(".")
    if parts[0] != ROOT_PACKAGE:
        return None
    if len(parts) == 1:
        return ROOT_PACKAGE
    return parts[1]


def _is_type_checking_test(test: ast.expr) -> bool:
    """Recognise ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def eager_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """Yield ``(dotted_target, lineno)`` for each eager import.

    Walks module-level statements, descending into ``if``/``try``/
    ``with`` blocks (still import-time) but not into function or class
    bodies, and skipping ``if TYPE_CHECKING:`` branches.
    """

    def walk(body: List[ast.stmt]) -> Iterator[Tuple[str, int]]:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, node.lineno
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative == intra-package, never crosses layers
                if node.module:
                    yield node.module, node.lineno
            elif isinstance(node, ast.If):
                if not _is_type_checking_test(node.test):
                    yield from walk(node.body)
                yield from walk(node.orelse)
            elif isinstance(node, ast.Try):
                yield from walk(node.body)
                for handler in node.handlers:
                    yield from walk(handler.body)
                yield from walk(node.orelse)
                yield from walk(node.finalbody)
            elif isinstance(node, ast.With):
                yield from walk(node.body)

    yield from walk(tree.body)


@register
class LayerDagChecker(Checker):
    """Flag eager imports that climb (or tie) the package layer order."""

    id = "layer-dag"
    description = (
        "src/repro packages may eagerly import only strictly lower layers "
        "(function-local and TYPE_CHECKING imports are exempt)"
    )

    def __init__(self, layers: Optional[Dict[str, int]] = None) -> None:
        """Use ``layers`` in place of :data:`DEFAULT_LAYERS` (for tests)."""
        self.layers = dict(DEFAULT_LAYERS if layers is None else layers)

    def check(self, module: Module, modules: List[Module]) -> Iterator[Finding]:
        """Compare every eager internal import against the layer table."""
        if not module.name:
            return
        own_key = _segment(module.name) if module.name != ROOT_PACKAGE else ROOT_PACKAGE
        if module.name in (ROOT_PACKAGE, f"{ROOT_PACKAGE}.__main__"):
            own_key = ROOT_PACKAGE
        own_rank = self.layers.get(own_key or "")
        if own_rank is None:
            yield Finding(
                checker=self.id,
                path=module.relpath,
                line=1,
                message=(
                    f"package {own_key!r} has no rank in the layer table — "
                    "add it to DEFAULT_LAYERS in repro/lint/checkers/layers.py "
                    "and document the choice in docs/static-analysis.md"
                ),
            )
            return
        for target, lineno in eager_imports(module.tree):
            target_key = _segment(target)
            if target_key is None or target_key == own_key:
                continue
            target_rank = self.layers.get(target_key)
            if target_rank is None:
                continue  # the unranked-package finding fires on that package
            if target_rank >= own_rank:
                relation = "its own layer" if target_rank == own_rank else "a higher layer"
                yield Finding(
                    checker=self.id,
                    path=module.relpath,
                    line=lineno,
                    message=(
                        f"eager import of {target} ({target_key}, rank "
                        f"{target_rank}) from {own_key} (rank {own_rank}) climbs "
                        f"{relation}; defer it into the function that needs it "
                        "or move the shared code down"
                    ),
                    symbol=module.name,
                )
