"""repro — reproduction of "Exploring Communities in Large Profiled Graphs".

The package implements Profiled Community Search (PCS) end to end:

* :mod:`repro.graph` — the graph container and cohesive-subgraph decompositions
  (k-core, k-truss, k-clique);
* :mod:`repro.ptree` — taxonomy (GP-tree), P-trees, subtree enumeration,
  the subtree lattice and tree edit distance;
* :mod:`repro.index` — the CL-tree and CP-tree indexes;
* :mod:`repro.core` — the PCS problem, the ``basic`` / ``incre`` /
  ``adv-I`` / ``adv-D`` / ``adv-P`` query algorithms, and extensions;
* :mod:`repro.baselines` — the Global, Local and ACQ community searches the
  paper compares against;
* :mod:`repro.metrics` — CPS, LDR, CPF, F1 and the mean community count;
* :mod:`repro.datasets` — seeded synthetic profiled graphs calibrated to the
  paper's datasets (a graph file is a :mod:`repro.storage` snapshot);
* :mod:`repro.bench` — benchmark harness utilities;
* :mod:`repro.engine` — the batched query engine (:class:`CommunityExplorer`)
  with index reuse, a version-checked LRU result cache and mutation-safe
  serving (:class:`GraphUpdate` batches with incremental index
  maintenance);
* :mod:`repro.api` — the unified public surface: :class:`Query` (fluent,
  validated, serialisable requests), :class:`QueryResponse` (the JSON wire
  envelope), :class:`QueryPlanner` (method selection) and
  :class:`CommunityService` (the serving session every front end targets).

Quickstart::

    from repro import CommunityService, Query, datasets

    pg = datasets.fig1_profiled_graph()
    service = CommunityService(pg)
    response = service.query(Query.vertex("D").k(2))
    for community in response:
        print(list(community.vertices), list(community.theme))

The one-shot functional entry point remains::

    from repro import pcs
    result = pcs(pg, q="D", k=2)
"""

from repro.version import __version__

__all__ = ["__version__"]


def __getattr__(name: str):
    # Lazy re-exports keep `import repro` light while letting users reach the
    # main entry points directly from the package root.
    if name in ("pcs", "PCSResult", "ProfiledCommunity", "ProfiledGraph"):
        from repro.core import PCSResult, ProfiledCommunity, ProfiledGraph, pcs

        return {
            "pcs": pcs,
            "PCSResult": PCSResult,
            "ProfiledCommunity": ProfiledCommunity,
            "ProfiledGraph": ProfiledGraph,
        }[name]
    if name in ("CommunityExplorer", "GraphUpdate"):
        from repro.engine import CommunityExplorer, GraphUpdate

        return {"CommunityExplorer": CommunityExplorer, "GraphUpdate": GraphUpdate}[name]
    if name in (
        "Query",
        "QueryBuilder",
        "QueryResponse",
        "CommunityView",
        "CommunityService",
        "QueryPlanner",
        "PlanDecision",
        "Engine",
    ):
        import repro.api as api

        return getattr(api, name)
    if name == "api":
        import repro.api as api

        return api
    if name == "datasets":
        import repro.datasets as datasets

        return datasets
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
