"""Community-search baselines the paper compares against (§5.2).

* ``Global`` — Sozio & Gionis max-min-degree search [8];
* ``Local`` — Cui et al. local expansion [25];
* ``ACQ`` — Fang et al. keyword-cohesive attributed search [11].
"""

from repro.baselines.acq import acq_query
from repro.baselines.global_search import (
    global_community,
    global_community_k,
    global_community_peel,
)
from repro.baselines.local_search import local_community

__all__ = [
    "acq_query",
    "global_community",
    "global_community_k",
    "global_community_peel",
    "local_community",
]
