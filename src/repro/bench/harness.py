"""Benchmark harness utilities: smoke mode, tables, result persistence.

Every benchmark in ``benchmarks/`` regenerates one of the paper's tables or
figures. The harness renders results as aligned text tables (printed to the
terminal, mirroring the paper's rows/series) and persists them as JSON under
``results/`` so docs/experiments.md can reference concrete numbers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Repository-level results directory (created on demand).
RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"

#: Environment flag that puts the whole bench suite in smoke mode
#: (seconds-not-minutes budgets; set by ``pytest --smoke`` or CI).
SMOKE_ENV = "REPRO_BENCH_SMOKE"


def smoke_mode() -> bool:
    """True when the benchmark suite runs in the CI fast path."""
    return os.environ.get(SMOKE_ENV, "").strip().lower() in ("1", "true", "yes", "on")


@dataclass
class Table:
    """An aligned text table with a title (one per paper table/figure)."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append one row (cell count must match the columns)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(values)

    def render(self) -> str:
        """The table as aligned text (title, header, rows)."""
        cells = [[str(c) for c in self.columns]] + [
            [_fmt(v) for v in row] for row in self.rows
        ]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        lines = [self.title, "=" * max(len(self.title), 8)]
        header, *body = cells
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        """Print :meth:`render` with a leading blank line."""
        print()
        print(self.render())

    def to_dict(self) -> Dict:
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(map(_jsonable, row)) for row in self.rows],
        }


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def _jsonable(value: object) -> object:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def save_result(name: str, payload: Dict) -> Path:
    """Persist a benchmark payload under ``results/<name>.json``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=_jsonable), encoding="utf-8")
    return path


def save_tables(name: str, tables: Sequence[Table], extra: Optional[Dict] = None) -> Path:
    """Persist several tables as one results document."""
    payload: Dict = {"tables": [t.to_dict() for t in tables]}
    if extra:
        payload.update(extra)
    return save_result(name, payload)
