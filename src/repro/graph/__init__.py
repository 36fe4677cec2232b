"""Graph substrate: containers, cohesive-subgraph decompositions, generators.

Public surface:

* :class:`repro.graph.Graph` — the container;
* core decomposition (:func:`core_numbers`, :func:`connected_k_core`,
  :func:`k_core_within`) — the structure-cohesiveness primitive of PCS;
* truss / clique decompositions — alternative cohesion metrics the paper
  proposes as future work;
* seeded random generators used by the dataset suite.
"""

from repro.graph.clique import (
    k_clique_communities,
    k_clique_community_of,
    k_clique_within,
    maximal_cliques,
)
from repro.graph.core import (
    connected_k_core,
    core_numbers,
    k_core_vertices,
    k_core_within,
    minimum_degree,
)
from repro.graph.generators import (
    gnp_graph,
    planted_community_graph,
    preferential_attachment_graph,
    random_queries,
    ring_of_cliques,
)
from repro.graph.graph import Graph
from repro.graph.truss import (
    connected_k_truss,
    edge_supports,
    k_truss_edges,
    k_truss_subgraph,
    k_truss_within,
    truss_numbers,
)

__all__ = [
    "Graph",
    "core_numbers",
    "k_core_vertices",
    "connected_k_core",
    "k_core_within",
    "minimum_degree",
    "truss_numbers",
    "edge_supports",
    "k_truss_edges",
    "k_truss_subgraph",
    "connected_k_truss",
    "k_truss_within",
    "maximal_cliques",
    "k_clique_communities",
    "k_clique_community_of",
    "k_clique_within",
    "gnp_graph",
    "preferential_attachment_graph",
    "planted_community_graph",
    "ring_of_cliques",
    "random_queries",
]
