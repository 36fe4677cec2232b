"""Pluggable structure-cohesiveness models.

The paper (§1): "the minimum degree metric can be replaced by other useful
metrics, e.g., k-truss and k-clique, to fit in other possible application
scenarios". This module makes that substitution a one-argument change: every
model answers the same question — *the cohesive subgraph containing q inside
G[candidates] for parameter k* — which is the only structural primitive the
PCS machinery uses.

``KCoreCohesion`` is the paper's default (minimum degree ≥ k). Only the
k-core model can be accelerated by the CL-tree/CP-tree index; the others run
index-free candidate filtering, which the feasibility oracle handles
transparently.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Hashable, Iterable, Type

from repro.errors import InvalidInputError
from repro.graph.clique import k_clique_within
from repro.graph.core import k_core_within
from repro.graph.graph import Graph
from repro.graph.truss import k_truss_within

Vertex = Hashable


class CohesionModel(ABC):
    """Strategy interface for structure cohesiveness."""

    #: Registry key and display name.
    name: str = "abstract"

    #: Whether the CL-tree (k-core) index answers this model exactly.
    supports_core_index: bool = False

    @abstractmethod
    def within(
        self, graph: Graph, candidates: Iterable[Vertex], k: int, q: Vertex
    ) -> FrozenSet[Vertex]:
        """The cohesive community containing ``q`` inside ``G[candidates]``.

        Must return a frozenset (empty when ``q`` does not qualify).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class KCoreCohesion(CohesionModel):
    """Minimum degree ≥ k (the paper's default; Definition 1)."""

    name = "k-core"
    supports_core_index = True

    def within(
        self, graph: Graph, candidates: Iterable[Vertex], k: int, q: Vertex
    ) -> FrozenSet[Vertex]:
        return k_core_within(graph, candidates, k, q=q)


class KTrussCohesion(CohesionModel):
    """Every edge in ≥ k−2 triangles (Huang et al., the paper's [10])."""

    name = "k-truss"

    def within(
        self, graph: Graph, candidates: Iterable[Vertex], k: int, q: Vertex
    ) -> FrozenSet[Vertex]:
        return k_truss_within(graph, candidates, k, q=q)


class KCliqueCohesion(CohesionModel):
    """k-clique percolation community (Cui et al., the paper's [22])."""

    name = "k-clique"

    def within(
        self, graph: Graph, candidates: Iterable[Vertex], k: int, q: Vertex
    ) -> FrozenSet[Vertex]:
        return k_clique_within(graph, candidates, k, q=q)


_REGISTRY: Dict[str, Type[CohesionModel]] = {
    KCoreCohesion.name: KCoreCohesion,
    KTrussCohesion.name: KTrussCohesion,
    KCliqueCohesion.name: KCliqueCohesion,
}


def get_cohesion(name_or_model) -> CohesionModel:
    """Resolve a cohesion model from a name, class or instance.

    >>> get_cohesion("k-core").name
    'k-core'
    """
    if isinstance(name_or_model, CohesionModel):
        return name_or_model
    if isinstance(name_or_model, type) and issubclass(name_or_model, CohesionModel):
        return name_or_model()
    if isinstance(name_or_model, str):
        try:
            return _REGISTRY[name_or_model]()
        except KeyError:
            raise InvalidInputError(
                f"unknown cohesion model {name_or_model!r}; "
                f"available: {sorted(_REGISTRY)}"
            ) from None
    raise InvalidInputError(f"cannot interpret {name_or_model!r} as a cohesion model")
