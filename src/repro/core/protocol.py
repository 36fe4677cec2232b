"""The :class:`Engine` protocol — the structural contract of a query engine.

Anything that serves PCS queries on behalf of :func:`repro.core.search.pcs`
must look like an engine: own a profiled graph (``pg``), answer single
queries (``explore``), answer batches (``explore_many``) and report serving
counters (``stats``). :class:`~repro.engine.explorer.CommunityExplorer` is
the canonical implementation and :class:`~repro.parallel.ParallelExplorer`
the process-sharded one; any further engine (async, remote, multi-backend)
implements the same protocol and becomes a drop-in ``engine=`` argument.

The protocol is ``runtime_checkable`` so call sites can *verify* conformance
instead of silently duck-typing (``isinstance(obj, Engine)`` checks member
presence). It deliberately lives in a dependency-free module **inside
core** — :mod:`repro.core.search` consumes it, and the layer DAG forbids
core from importing the api package (which sits four layers up); the
historical :mod:`repro.api.protocol` location re-exports it unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, List, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.community import PCSResult
    from repro.core.profiled_graph import ProfiledGraph

Vertex = Hashable


@runtime_checkable
class Engine(Protocol):
    """Structural interface of a PCS query engine.

    Implementations must expose:

    ``pg``
        The :class:`~repro.core.profiled_graph.ProfiledGraph` the engine
        serves. ``pcs(..., engine=e)`` verifies ``e.pg is pg`` so a query
        can never silently run against the wrong graph.
    ``explore(q, k=None, method=None, cohesion=None)``
        Serve one query, returning a
        :class:`~repro.core.community.PCSResult`.
    ``explore_many(specs)``
        Serve a batch; results align with the input order.
    ``stats()``
        A snapshot of serving counters.
    """

    pg: "ProfiledGraph"

    def explore(
        self,
        q: Vertex,
        k: Optional[int] = None,
        method: Optional[str] = None,
        cohesion: Optional[object] = None,
    ) -> "PCSResult": ...

    def explore_many(self, specs: Iterable[object]) -> List["PCSResult"]: ...

    def stats(self) -> object: ...
