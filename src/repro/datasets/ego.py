"""Facebook-style ego networks with ground-truth circles (paper Table 4).

The F1 experiment (§5.2, Fig. 11) uses three Facebook ego-networks whose
overlapping "friendship circles" are ground truth, with real profile
attributes hashed onto CCS subjects ("Similar to Flickr, we build each
P-tree by using a hash function to map the real profiles to CCS subjects").
The SNAP dumps are not available offline, so we generate ego-nets at the
paper's exact sizes with planted overlapping circles and hashed profile
attributes — the same substitution logic as the synthetic co-authorship
datasets (DESIGN.md §4).

=======  ========  =======  =====  =====
network  vertices  edges    d̂      P̂
=======  ========  =======  =====  =====
FB1        1,233   11,972   19.41  34.54
FB2        1,447   17,533   24.23  29.12
FB3          982   10,112   20.59  31.10
=======  ========  =======  =====  =====
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.profiled_graph import ProfiledGraph
from repro.datasets.registry import dataset_taxonomy
from repro.datasets.synthetic import SyntheticConfig, synthetic_profiled_graph
from repro.errors import InvalidInputError


@dataclass(frozen=True)
class EgoSpec:
    """Paper statistics plus circle calibration for one ego-network."""

    name: str
    paper_vertices: int
    paper_edges: int
    paper_avg_degree: float
    paper_avg_ptree: float
    num_circles: int
    avg_circle_size: int
    p_in: float
    noise_degree: float
    overlap: float
    theme_size: int
    theme_anchor_depth: int
    tokens_per_vertex: int

    def paper_row(self) -> Tuple:
        """(n, m, d̂, P̂) exactly as printed in Table 4."""
        return (
            self.paper_vertices,
            self.paper_edges,
            self.paper_avg_degree,
            self.paper_avg_ptree,
        )


EGO_SPECS: Dict[str, EgoSpec] = {
    "fb1": EgoSpec(
        name="fb1",
        paper_vertices=1_233,
        paper_edges=11_972,
        paper_avg_degree=19.41,
        paper_avg_ptree=34.54,
        num_circles=38,
        avg_circle_size=40,
        p_in=0.36,
        noise_degree=2.0,
        overlap=0.25,
        theme_size=14,
        theme_anchor_depth=1,
        tokens_per_vertex=4,
    ),
    "fb2": EgoSpec(
        name="fb2",
        paper_vertices=1_447,
        paper_edges=17_533,
        paper_avg_degree=24.23,
        paper_avg_ptree=29.12,
        num_circles=28,
        avg_circle_size=60,
        p_in=0.28,
        noise_degree=2.4,
        overlap=0.25,
        theme_size=12,
        theme_anchor_depth=1,
        tokens_per_vertex=3,
    ),
    "fb3": EgoSpec(
        name="fb3",
        paper_vertices=982,
        paper_edges=10_112,
        paper_avg_degree=20.59,
        paper_avg_ptree=31.10,
        num_circles=18,
        avg_circle_size=60,
        p_in=0.27,
        noise_degree=2.2,
        overlap=0.25,
        theme_size=13,
        theme_anchor_depth=1,
        tokens_per_vertex=3,
    ),
}


def load_ego_network(
    name: str, seed: int = 20190116
) -> Tuple[ProfiledGraph, List[Set[int]]]:
    """Generate one ego network at paper scale plus its ground-truth circles.

    Returns
    -------
    (profiled_graph, circles):
        ``circles`` are the planted overlapping friendship circles.
    """
    try:
        spec = EGO_SPECS[name.lower()]
    except KeyError:
        raise InvalidInputError(
            f"unknown ego network {name!r}; available: {sorted(EGO_SPECS)}"
        ) from None
    taxonomy = dataset_taxonomy("ccs", 1908)
    config = SyntheticConfig(
        num_vertices=spec.paper_vertices,
        num_communities=spec.num_circles,
        avg_community_size=spec.avg_circle_size,
        p_in=spec.p_in,
        noise_degree=spec.noise_degree,
        overlap=spec.overlap,
        theme_size=spec.theme_size,
        theme_anchor_depth=spec.theme_anchor_depth,
        tokens_per_vertex=spec.tokens_per_vertex,
        # Circle overlap blocks (~15 members at these p_in values) are not
        # cohesive enough to satisfy k = 6 on combined themes; profiles stay
        # single-circle-themed so queries keep tractable search spaces.
        multi_theme_block_min=10_000,
        # Spread private deepenings over all theme leaves: large circles
        # would otherwise share chain prefixes below one anchor, splitting
        # every circle into chain subgroups and depressing F1 for all
        # profile-aware methods.
        deepen_at_deepest=False,
    )
    return synthetic_profiled_graph(taxonomy, config, seed=seed)
