"""Tests for the error hierarchy of :mod:`repro.errors`."""

import pytest

from repro import errors
from repro.graph import Graph


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "InvalidInputError",
            "VertexNotFoundError",
            "LabelNotFoundError",
            "NotAncestorClosedError",
            "IntegrityError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_input_errors_are_value_errors(self):
        assert issubclass(errors.InvalidInputError, ValueError)
        assert issubclass(errors.VertexNotFoundError, ValueError)

    def test_payloads(self):
        err = errors.VertexNotFoundError("x")
        assert err.vertex == "x"
        err3 = errors.LabelNotFoundError(5)
        assert err3.label == 5

    def test_catchable_as_base(self):
        g = Graph()
        with pytest.raises(errors.ReproError):
            g.remove_vertex("missing")
