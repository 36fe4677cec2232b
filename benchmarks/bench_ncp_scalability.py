"""Million-vertex NCP sweep — CSR backend vs object backend.

The CSR PR's acceptance benchmark. A network-community-profile sweep in
the style of Leskovec et al. (arXiv:0810.1355) is the canonical
peel-dominated workload: one full core decomposition, then for every
``k`` up to the degeneracy the size of the ``k``-core and the connected
``k``-core communities of deterministic query vertices. At full scale the
sweep runs over a scale-free graph with **one million vertices** (the
paper-scale stress the object backend was never sized for); under
``REPRO_BENCH_SMOKE`` the graph shrinks so CI finishes in seconds.

The same sweep runs under the ``object`` reference backend and the
``csr`` serving backend. Answers — core sizes and every community — are
asserted identical **before** any timing is trusted; the CI gate then
requires the CSR backend to be at least :data:`MIN_NCP_SPEEDUP`× faster
cold (the CSR build is inside the timed region). Below
:data:`MIN_GATE_VERTICES` vertices timings are noise, so the gate skips —
loudly — instead of asserting.

Records per-backend seconds, the speedup and the per-``k`` profile under
``results/ncp_scalability*.json``. Runs two ways, exactly like the other
benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_ncp_scalability.py --smoke
    PYTHONPATH=src python benchmarks/bench_ncp_scalability.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import pytest

from repro.bench import Table, save_tables, smoke_mode
from repro.graph import Graph, core_numbers, k_core_within, preferential_attachment_graph
from repro.graph.csr import backend_override

#: Acceptance floor: CSR sweep vs object sweep on identical queries.
MIN_NCP_SPEEDUP = 3.0

#: Below this many vertices the timings are scheduler noise — the gate
#: skips (loudly) rather than asserting on a meaningless ratio.
MIN_GATE_VERTICES = 5_000

#: Vertex counts: paper-scale stress vs the CI fast path.
FULL_VERTICES = 1_000_000
SMOKE_VERTICES = 20_000

#: Attachments per vertex — also the graph's degeneracy, i.e. the number
#: of points on the NCP profile.
ATTACH = 5

#: Deterministic queries per k: the smallest and largest member ids.
QUERIES_PER_K = 2

#: The one fixed seed: both backends must see the identical graph.
SEED = 20190116


def sweep_vertices() -> int:
    """Effective vertex count (env override > smoke default > full)."""
    override = os.environ.get("REPRO_NCP_VERTICES")
    if override:
        return int(override)
    return SMOKE_VERTICES if smoke_mode() else FULL_VERTICES


def build_graph(n: int):
    """The scale-free subject graph (~``ATTACH * n`` edges), string ids.

    Vertices are relabelled ``u0000042``-style: real networks key vertices
    by strings (author names, user ids), which is precisely the case the
    CSR intern table exists for — the object backend hashes a string per
    edge visit, the CSR kernels hash each id exactly once. Zero-padding
    keeps lexicographic order equal to numeric order, so the deterministic
    min/max query picks are scale-stable.
    """
    width = len(str(n - 1))
    base = preferential_attachment_graph(n, ATTACH, seed=SEED)
    graph = Graph()
    for v in range(n):
        graph.add_vertex(f"u{v:0{width}d}")
    for u, v in base.edges():
        graph.add_edge(f"u{u:0{width}d}", f"u{v:0{width}d}")
    return graph


def ncp_sweep(graph):
    """One full NCP sweep; returns comparable rows.

    Each row is ``(k, core_size, (community, ...))`` with communities as
    frozensets — directly comparable across backends. Queries are the
    smallest/largest member ids, so they never depend on dict iteration
    order (which *does* differ between backends).
    """
    cores = core_numbers(graph)
    members = list(cores)
    rows = []
    for k in range(1, max(cores.values(), default=0) + 1):
        members = [v for v in members if cores[v] >= k]
        if not members:
            break
        queries = sorted({min(members), max(members)})[:QUERIES_PER_K]
        communities = tuple(
            frozenset(k_core_within(graph, members, k, q=q)) for q in queries
        )
        rows.append((k, len(members), communities))
    return rows


def _timed_sweep(graph, backend):
    """(seconds, rows) for one cold sweep under ``backend``."""
    with backend_override(backend):
        graph._csr = None  # cold: the CSR build is part of the query cost
        start = time.perf_counter()
        rows = ncp_sweep(graph)
        return time.perf_counter() - start, rows


def measure(n: int) -> dict:
    """Build one graph, sweep it under every backend, compare, time."""
    graph = build_graph(n)
    seconds = {}
    reference = None
    for backend in ("object", "csr"):
        best = float("inf")
        rows = None
        for _ in range(2 if smoke_mode() else 1):
            elapsed, rows = _timed_sweep(graph, backend)
            best = min(best, elapsed)
        seconds[backend] = best
        # Equivalence first, timings second: a backend that answers
        # differently would make its speedup meaningless.
        if reference is None:
            reference = rows
        else:
            assert rows == reference, f"{backend} diverged from object answers"

    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "profile": [
            {"k": k, "core_size": size, "community_sizes": [len(c) for c in comms]}
            for k, size, comms in reference
        ],
        "seconds": seconds,
        "speedup": seconds["object"] / seconds["csr"] if seconds["csr"] else float("inf"),
    }


def _render(payload: dict) -> Table:
    table = Table(
        "NCP sweep — object vs CSR backend (identical answers asserted)",
        ["n", "m", "profile points", "object s", "csr s", "speedup"],
    )
    table.add_row(
        payload["num_vertices"],
        payload["num_edges"],
        len(payload["profile"]),
        round(payload["seconds"]["object"], 3),
        round(payload["seconds"]["csr"], 3),
        round(payload["speedup"], 1),
    )
    return table


@pytest.mark.smoke
def test_ncp_sweep_speedup():
    """CSR must beat the object backend by ≥ 3× on the cold NCP sweep."""
    n = sweep_vertices()
    payload = measure(n)
    table = _render(payload)
    table.show()
    save_tables("ncp_scalability", [table], extra={"measurements": payload})

    if n < MIN_GATE_VERTICES:
        pytest.skip(
            f"SCALE TOO SMALL FOR THE GATE: {n} < {MIN_GATE_VERTICES} vertices "
            "— timings recorded but the speedup assertion is skipped"
        )
    assert payload["speedup"] >= MIN_NCP_SPEEDUP, (
        f"CSR sweep only {payload['speedup']:.1f}x faster than the object "
        f"backend at n={n} (need >= {MIN_NCP_SPEEDUP}x)"
    )


def main(argv=None) -> int:
    """Standalone entry point (used by the CI benchmark-smoke job)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI fast path")
    parser.add_argument("--vertices", type=int, default=None,
                        help="override the swept vertex count")
    parser.add_argument("--out", default=None,
                        help="results name (default ncp_scalability[_smoke])")
    args = parser.parse_args(argv)

    if args.smoke:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    if args.vertices:
        os.environ["REPRO_NCP_VERTICES"] = str(args.vertices)

    n = sweep_vertices()
    payload = measure(n)
    table = _render(payload)
    table.show()
    result_name = args.out or (
        "ncp_scalability_smoke" if smoke_mode() else "ncp_scalability"
    )
    path = save_tables(result_name, [table], extra={"measurements": payload})
    print(f"\nwrote {path}")

    if n < MIN_GATE_VERTICES:
        print(
            f"SKIP: n={n} is below the {MIN_GATE_VERTICES}-vertex floor — "
            "speedup recorded but not gated",
            file=sys.stderr,
        )
        return 0
    if payload["speedup"] < MIN_NCP_SPEEDUP:
        print(
            f"FAIL: CSR sweep speedup {payload['speedup']:.1f}x below "
            f"{MIN_NCP_SPEEDUP}x at n={n}",
            file=sys.stderr,
        )
        return 1
    print(f"OK: CSR sweep >= {MIN_NCP_SPEEDUP}x faster at n={n}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
