"""Community-search baselines the paper compares against (§5.2).

* ``Global`` — Sozio & Gionis max-min-degree search [8];
* ``Local`` — Cui et al. local expansion [25];
* ``ACQ`` — Fang et al. keyword-cohesive attributed search [11];
* k-truss search — Huang et al. [10] (also the §6 future-work substrate).
"""

from repro.baselines.acq import acq_query, acq_shared_keywords
from repro.baselines.global_search import (
    global_community,
    global_community_k,
    global_community_peel,
)
from repro.baselines.local_search import local_community
from repro.baselines.truss_search import truss_community, truss_community_k

__all__ = [
    "acq_query",
    "acq_shared_keywords",
    "global_community",
    "global_community_k",
    "global_community_peel",
    "local_community",
    "truss_community",
    "truss_community_k",
]
