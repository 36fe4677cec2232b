"""Dynamic maintenance: incrementally maintained core numbers."""

from repro.dynamic.core_maintenance import DynamicCoreIndex

__all__ = ["DynamicCoreIndex"]
