"""Shared fixtures for the benchmark suite.

Each benchmark file regenerates one table or figure of the paper. Datasets
are generated once per session at `BENCH_SCALES` (a few thousand vertices —
pure-Python budgets; see DESIGN.md §4 for the calibration) and reused.

Environment knobs:

* ``REPRO_BENCH_QUERIES`` — queries per workload (default 5; the paper uses
  100 on a Java implementation);
* ``REPRO_BENCH_SCALE``   — multiplier applied to every dataset scale;
* ``REPRO_BENCH_SMOKE``   — CI fast path (also set by ``pytest --smoke``):
  halves dataset scales, caps workloads at 2 queries, single repeats.
"""

from __future__ import annotations

import gc
import os
import time

import pytest

from repro.bench import make_workload, smoke_mode
from repro.datasets import load_dataset, load_ego_network

#: Smoke-mode budgets (seconds-scale total runtime under CI).
SMOKE_QUERY_CAP = 2
SMOKE_SCALE_MULT = 0.5

#: Default generation scales (fraction of the paper's vertex counts).
BENCH_SCALES: dict = {
    "acmdl": 0.02,
    "flickr": 0.005,
    "pubmed": 0.005,
    "dblp": 0.003,
}

#: The paper's default structure parameter (§5.1).
DEFAULT_K = 6

#: Fewest timed runs behind one :func:`best_of` reading.
BEST_OF_RUNS = 3

#: A :func:`best_of` reading also keeps running until its runs add up to
#: this many seconds: a run of a few milliseconds is shorter than one
#: scheduler hiccup, and three such runs can all land in one.
BEST_OF_SECONDS = 1.0


def best_of(fn) -> float:
    """Best wall time of ``fn()`` over at least :data:`BEST_OF_RUNS` runs
    and at least :data:`BEST_OF_SECONDS` of runs, each started from a
    fresh garbage collection."""
    best = float("inf")
    done = 0
    spent = 0.0
    while done < BEST_OF_RUNS or spent < BEST_OF_SECONDS:
        gc.collect()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        spent += elapsed
        done += 1
    return best


def bench_queries() -> int:
    queries = int(os.environ.get("REPRO_BENCH_QUERIES", "5"))
    return min(queries, SMOKE_QUERY_CAP) if smoke_mode() else queries


def bench_scale(name: str) -> float:
    mult = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    if smoke_mode():
        mult *= SMOKE_SCALE_MULT
    return min(1.0, BENCH_SCALES[name] * mult)


@pytest.fixture(scope="session")
def datasets():
    """name → ProfiledGraph with a pre-built CP-tree index."""
    loaded = {}
    for name in BENCH_SCALES:
        pg = load_dataset(name, scale=bench_scale(name))
        pg.index()
        loaded[name] = pg
    return loaded


@pytest.fixture(scope="session")
def workloads(datasets):
    """name → Workload of query vertices from the 6-core (paper §5.1)."""
    return {
        name: make_workload(pg, name, num_queries=bench_queries(), k=DEFAULT_K, seed=7)
        for name, pg in datasets.items()
    }


@pytest.fixture(scope="session")
def ego_networks():
    """name → (ProfiledGraph, ground-truth circles) for FB1–FB3."""
    loaded = {}
    for name in ("fb1", "fb2", "fb3"):
        pg, circles = load_ego_network(name, seed=7)
        pg.index()
        loaded[name] = (pg, [frozenset(c) for c in circles])
    return loaded
