"""Spans recorded from the benchmark's side of each layer boundary.

The program has no instrumentation of its own yet (ROADMAP item 2), so the
traced pass wraps the layers' public callables with a timing decorator
inside the benchmark process. Real call nesting then gives each span a
parent, and a layer's self time is its spans' duration minus the part
their child spans cover. Spans stay in memory and are written once, when
the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``span name -> (module, attribute path)`` of the public callables the
#: traced pass wraps. A name the program no longer has is skipped and
#: listed under ``missing_hooks`` in the trace file, so a refactor cannot
#: break the benchmark.
HOOKS: Dict[str, Tuple[str, str]] = {
    "server.handle_request": ("repro.server.app", "handle_request"),
    "api.Query.from_dict": ("repro.api.query", "Query.from_dict"),
    "api.QueryPlanner.plan": ("repro.api.planner", "QueryPlanner.plan"),
    "api.QueryResponse.from_result": ("repro.api.response", "QueryResponse.from_result"),
    "api.QueryResponse.to_dict": ("repro.api.response", "QueryResponse.to_dict"),
    "engine.explore_query": ("repro.engine.explorer", "CommunityExplorer.explore_query"),
    "engine.explore": ("repro.engine.explorer", "CommunityExplorer.explore"),
    "engine.explore_many": ("repro.engine.explorer", "CommunityExplorer.explore_many"),
    "engine.apply_updates": ("repro.engine.explorer", "CommunityExplorer.apply_updates"),
    "engine.cache.get_versioned": ("repro.engine.cache", "LRUCache.get_versioned"),
    "engine.cache.put_versioned": ("repro.engine.cache", "LRUCache.put_versioned"),
    "core.pcs": ("repro.core.search", "pcs"),
    "core.feasibility.community": ("repro.core.feasibility", "FeasibilityOracle.community"),
    "core.feasibility.community_from_parent": (
        "repro.core.feasibility", "FeasibilityOracle.community_from_parent"),
    "index.CPTree.get": ("repro.index.cptree", "CPTree.get"),
    "index.repair_cptree": ("repro.index.maintenance", "repair_cptree"),
    "ptree.addable_nodes": ("repro.ptree.enumeration", "addable_nodes"),
    "ptree.rightmost_extensions": ("repro.ptree.enumeration", "rightmost_extensions"),
    "graph.k_core_within": ("repro.graph.core", "k_core_within"),
    "graph.core_numbers_within": ("repro.graph.core", "core_numbers_within"),
    "graph.csr_view": ("repro.graph.csr", "csr_view"),
    "storage.wal.append": ("repro.storage.wal", "WriteAheadLog.append"),
    "subscribe.matcher.decide": ("repro.subscribe.matcher", "SubscriptionMatcher.decide"),
}


class Tracer:
    """In-memory span recorder with install/remove for the hooks above."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, request id]`` per span.
        self.spans: List[list] = []
        self.enabled = False
        self.missing: List[str] = []
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        #: Set by the caller before each operation; spans copy it.
        self.request_id: Optional[str] = None

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, func: Callable) -> Callable:
        spans, stack_of = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            stack = stack_of()
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                      self.request_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    # -- hooks ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every hook that still exists; remember how to undo it."""
        for name, (module_name, path) in HOOKS.items():
            try:
                module = importlib.import_module(module_name)
                owner = module
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if parents else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if parents:
                self._wrap_attribute(owner, attr, raw, name)
            else:
                self._wrap_function(raw, name)

    def _wrap_attribute(self, owner, attr: str, raw, name: str) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._timed(name, raw.__func__))
        else:
            wrapped = self._timed(name, raw)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def _wrap_function(self, func, name: str) -> None:
        """Rebind every ``repro`` module global that is ``func``.

        ``from x import f`` copies the binding, so patching only the
        defining module would miss the callers that matter.
        """
        wrapped = self._timed(name, func)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is func:
                    setattr(module, key, wrapped)
                    self._undo.append(
                        lambda module=module, key=key: setattr(module, key, func))

    def remove(self) -> None:
        self.enabled = False
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        """Hooks installed for the block; recording starts with ``enabled``."""
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """``span name -> summed self time in ms`` (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            totals[name] += (end - start - covered) * 1000.0
        return dict(totals)

    def total_ms(self, name: str, under: Optional[str] = None) -> float:
        """Summed duration of spans called ``name`` (with an ancestor ``under``)."""
        total = 0.0
        for span_name, start, end, parent, _ in self.spans:
            if span_name != name:
                continue
            if under is not None:
                while parent >= 0 and self.spans[parent][0] != under:
                    parent = self.spans[parent][3]
                if parent < 0:
                    continue
            total += (end - start) * 1000.0
        return total

    def to_json(self) -> dict:
        """The trace file body: spans in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        by_span = self.self_times()
        by_layer: Dict[str, float] = defaultdict(float)
        for name, ms in by_span.items():
            by_layer[name.split(".", 1)[0]] += ms
        return {
            "span_fields": ["id", "name", "start_us", "end_us", "parent", "request_id"],
            "spans": [
                [i, name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1),
                 parent, request_id]
                for i, (name, start, end, parent, request_id) in enumerate(self.spans)
            ],
            "self_time_ms_by_span": {k: round(v, 3) for k, v in sorted(by_span.items())},
            "self_time_ms_by_layer": {k: round(v, 3) for k, v in sorted(by_layer.items())},
            "missing_hooks": self.missing,
        }
