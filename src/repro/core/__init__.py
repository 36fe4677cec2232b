"""The PCS problem and its query algorithms."""

from repro.core.advanced import (
    advanced_query,
    expand_ptree,
    find_initial_cut_decre,
    find_initial_cut_incre,
    find_initial_cut_path,
)
from repro.core.apriori import TraversalOutcome, apriori_traverse
from repro.core.basic import basic_query
from repro.core.cohesion import (
    CohesionModel,
    KCliqueCohesion,
    KCoreCohesion,
    KTrussCohesion,
    get_cohesion,
)
from repro.core.closed import closed_query
from repro.core.community import PCSResult, ProfiledCommunity, as_vertex_subtree_map
from repro.core.feasibility import FeasibilityOracle
from repro.core.incre import incre_query
from repro.core.keywords import keyword_communities, maximal_feasible_keyword_sets
from repro.core.profiled_graph import DatasetStats, ProfiledGraph
from repro.core.protocol import Engine
from repro.core.relaxed import FractionalKCoreCohesion, similarity_filtered_graph
from repro.core.search import ALL_METHODS, PCS_METHODS, pcs
from repro.core.variants import (
    METRIC_VARIANTS,
    variant_common_nodes,
    variant_common_paths,
    variant_common_subtree,
    variant_similarity,
)

__all__ = [
    "Engine",
    "ProfiledGraph",
    "DatasetStats",
    "ProfiledCommunity",
    "PCSResult",
    "as_vertex_subtree_map",
    "FeasibilityOracle",
    "CohesionModel",
    "KCoreCohesion",
    "KTrussCohesion",
    "KCliqueCohesion",
    "get_cohesion",
    "apriori_traverse",
    "TraversalOutcome",
    "basic_query",
    "incre_query",
    "advanced_query",
    "expand_ptree",
    "find_initial_cut_incre",
    "find_initial_cut_decre",
    "find_initial_cut_path",
    "pcs",
    "PCS_METHODS",
    "ALL_METHODS",
    "closed_query",
    "keyword_communities",
    "maximal_feasible_keyword_sets",
    "similarity_filtered_graph",
    "FractionalKCoreCohesion",
    "METRIC_VARIANTS",
    "variant_common_nodes",
    "variant_common_paths",
    "variant_common_subtree",
    "variant_similarity",
]
