"""Unit tests for repro.graph.graph (the undirected container)."""

import pytest

from repro.errors import InvalidInputError, VertexNotFoundError
from repro.graph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_edges_in_constructor(self):
        g = Graph([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex("a")
        g.add_vertex("a")
        assert g.num_vertices == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge(1, 2)
        assert 1 in g and 2 in g

    def test_duplicate_edge_ignored(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(InvalidInputError):
            g.add_edge(3, 3)

    def test_add_vertices_bulk(self):
        g = Graph()
        g.add_vertices(range(5))
        assert g.num_vertices == 5
        assert g.num_edges == 0


class TestMutation:
    def test_remove_edge(self):
        g = Graph([(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1

    def test_remove_edge_absent_noop(self):
        g = Graph([(0, 1)])
        g.remove_edge(0, 2)
        assert g.num_edges == 1

    def test_remove_vertex(self):
        g = Graph([(0, 1), (1, 2), (0, 2)])
        g.remove_vertex(1)
        assert 1 not in g
        assert g.num_edges == 1
        assert g.has_edge(0, 2)

    def test_remove_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.remove_vertex(9)


class TestQueries:
    def test_degree_and_neighbors(self):
        g = Graph([(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.neighbors(0) == {1, 2, 3}
        assert g.degree(1) == 1

    def test_neighbors_missing_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.neighbors("nope")

    def test_average_degree(self):
        g = Graph([(0, 1), (1, 2)])
        assert g.average_degree() == pytest.approx(4 / 3)
        assert Graph().average_degree() == 0.0

    def test_edges_yields_each_once(self):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        edges = {frozenset(e) for e in g.edges()}
        assert edges == {frozenset((0, 1)), frozenset((1, 2)), frozenset((2, 0))}
        assert len(list(g.edges())) == 3

    def test_len_and_iter(self):
        g = Graph([(0, 1)])
        assert len(g) == 2
        assert set(iter(g)) == {0, 1}

    def test_vertex_set_frozen(self):
        g = Graph([(0, 1)])
        assert g.vertex_set() == frozenset({0, 1})


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = Graph([(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_subgraph_induced(self):
        g = Graph([(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = g.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        assert not sub.has_edge(3, 0)

    def test_subgraph_ignores_unknown(self):
        g = Graph([(0, 1)])
        sub = g.subgraph([0, 1, 99])
        assert sub.num_vertices == 2


class TestTraversal:
    def test_component_of(self):
        g = Graph([(0, 1), (1, 2), (5, 6)])
        assert g.component_of(0) == frozenset({0, 1, 2})
        assert g.component_of(5) == frozenset({5, 6})

    def test_component_of_within(self):
        g = Graph([(0, 1), (1, 2), (2, 3)])
        assert g.component_of(0, within=[0, 1, 3]) == frozenset({0, 1})

    def test_component_of_missing_source_raises(self):
        g = Graph([(0, 1)])
        with pytest.raises(VertexNotFoundError):
            g.component_of(9)
