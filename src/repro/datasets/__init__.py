"""Dataset suite: the paper's Fig. 1 example, Table 2 and Table 4 analogues.

All datasets are generated deterministically from seeds (DESIGN.md §4
documents the substitution of the paper's proprietary dumps). A graph is
written to and read from a file in one format, the snapshot image of
:mod:`repro.storage` (``repro snapshot --out`` writes one; ``--dataset
PATH`` reads it back).
"""

from repro.datasets.ego import EGO_SPECS, EgoSpec, load_ego_network
from repro.datasets.fig1 import fig1_profiled_graph, fig1_taxonomy
from repro.datasets.registry import (
    DATASET_SPECS,
    DEFAULT_SCALE,
    DatasetSpec,
    dataset_names,
    dataset_taxonomy,
    load_dataset,
)
from repro.datasets.synthetic import (
    SyntheticConfig,
    hash_token_to_leaf,
    simple_profiled_graph,
    synthetic_profiled_graph,
)
from repro.datasets.taxonomies import (
    ccs_fragment,
    ccs_like_taxonomy,
    mesh_like_taxonomy,
    synthetic_taxonomy,
)

__all__ = [
    "fig1_profiled_graph",
    "fig1_taxonomy",
    "ccs_fragment",
    "synthetic_taxonomy",
    "ccs_like_taxonomy",
    "mesh_like_taxonomy",
    "SyntheticConfig",
    "synthetic_profiled_graph",
    "simple_profiled_graph",
    "hash_token_to_leaf",
    "DatasetSpec",
    "DATASET_SPECS",
    "DEFAULT_SCALE",
    "dataset_names",
    "dataset_taxonomy",
    "load_dataset",
    "EgoSpec",
    "EGO_SPECS",
    "load_ego_network",
]
