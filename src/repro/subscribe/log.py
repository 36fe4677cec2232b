"""The durable subscription journal: registrations and diffs as JSONL.

Standing queries must survive a server restart — a subscriber that
reconnects with its ``Last-Event-ID`` after a crash expects the missed
diffs, not a blank slate. The graph itself already has the WAL/snapshot
path (:mod:`repro.storage`); this log is the subscription tier's sidecar
in the same data directory: one JSON object per line, appended and
fsync'd *inside* the update hook (which runs under the engine's mutation
lock, after the graph WAL fsync'd the batch), so an acknowledged update
implies its diffs are on disk.

Entry shapes (``op`` discriminates)::

    {"op": "register",   "subscription": {...}, "snapshot": {...diff...}}
    {"op": "diff",       "diff": {...}}
    {"op": "unregister", "id": "..."}

A crash can tear the final line (the write that was racing it). Like the
WAL, replay ignores an unterminated tail and opening the log for append
truncates it, so the next entry starts on a line of its own. Compaction
— on a clean checkpoint — rewrites the file as one ``register`` entry per
live subscription whose snapshot carries the current membership, then
atomically replaces the old log.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, List, Optional

from repro.errors import ReproError

__all__ = ["SubscriptionLog", "SubscriptionLogError"]


class SubscriptionLogError(ReproError):
    """The subscription journal could not be written."""


class SubscriptionLog:
    """Append-only JSONL journal at ``path`` (see module docstring)."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            data = self.path.read_bytes()
            complete = data.rfind(b"\n") + 1
            if complete < len(data):  # torn tail: don't let the next entry fuse onto it
                with open(self.path, "r+b") as fh:
                    fh.truncate(complete)
                    fh.flush()
                    os.fsync(fh.fileno())
        self._fh = open(self.path, "a", encoding="utf-8")
        self._entries_appended = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, entry: dict) -> None:
        """Append one entry and fsync it — durable before the caller returns."""
        try:
            self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except (OSError, ValueError) as exc:
            raise SubscriptionLogError(
                f"appending to subscription log {self.path} failed: {exc}"
            ) from exc
        self._entries_appended += 1

    def compact(self, entries: List[dict]) -> None:
        """Atomically replace the log's contents with ``entries``."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        """Release the append handle (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    @property
    def entries_appended(self) -> int:
        """Entries written through this handle (not counting replayed ones)."""
        return self._entries_appended

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @staticmethod
    def iter_entries(path) -> Iterator[dict]:
        """Yield decoded entries from ``path``; a torn tail is not an entry.

        A missing file yields nothing (a fresh data directory). An
        unterminated final line is the write torn by the crash this log
        exists to survive — never yielded, and truncated by the next open
        for append; a malformed complete line is a real error.
        """
        path = Path(path)
        if not path.exists():
            return
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        if lines and not text.endswith("\n"):
            lines.pop()  # torn tail: the entry never fully landed
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SubscriptionLogError(
                    f"corrupt subscription log {path} at line {i + 1}: {exc}"
                ) from exc
            if not isinstance(entry, dict) or "op" not in entry:
                raise SubscriptionLogError(
                    f"corrupt subscription log {path} at line {i + 1}: "
                    f"expected an object with an 'op' field"
                )
            yield entry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SubscriptionLog({self.path})"
