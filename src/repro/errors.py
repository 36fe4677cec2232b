"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch one
base class. Input-validation problems raise subclasses of
:class:`InvalidInputError`; structural inconsistencies detected inside data
structures raise :class:`IntegrityError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidInputError(ReproError, ValueError):
    """A caller supplied an argument that violates a documented contract."""


class VertexNotFoundError(InvalidInputError):
    """A vertex id was referenced that is not present in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class LabelNotFoundError(InvalidInputError):
    """A taxonomy label id or name was referenced that does not exist."""

    def __init__(self, label: object) -> None:
        super().__init__(f"label {label!r} is not in the taxonomy")
        self.label = label


class NotAncestorClosedError(InvalidInputError):
    """A label set that is supposed to form a P-tree is not ancestor-closed."""


class IntegrityError(ReproError, RuntimeError):
    """An internal data-structure invariant was violated."""
