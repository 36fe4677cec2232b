"""Command-line interface: run PCS queries and dataset utilities.

Every command serves traffic through :class:`repro.api.CommunityService`,
so the CLI, the benchmarks and library callers share one code path and one
wire format (the :class:`repro.api.QueryResponse` envelope).

Examples
--------
Query the paper's Fig. 1 example (``--method auto`` is the default: the
query planner picks the execution method and records why)::

    python -m repro query --dataset fig1 --query D --k 2

The same query as a machine-readable envelope, paginated::

    python -m repro query --dataset fig1 --query D --k 2 --json --limit 5 --min-size 3

Query a synthetic dataset analogue (generated on the fly)::

    python -m repro query --dataset acmdl --scale 0.01 --k 6 --method adv-P

Show a dataset's Table-2 statistics::

    python -m repro stats --dataset dblp --scale 0.005

Write a generated dataset to a snapshot file, then query the file (a
path given as ``--dataset`` is read as a snapshot)::

    python -m repro snapshot --dataset acmdl --scale 0.01 --out acmdl.snap
    python -m repro query --dataset acmdl.snap --k 6

Serve a whole query file through the batched engine (JSON on stdout)::

    python -m repro batch --dataset fig1 --queries queries.txt --k 2

The same, sharded across 4 worker processes (batches past the planner's
threshold fan out; the emitted ``batch_plan`` records the decision)::

    python -m repro batch --dataset acmdl --queries queries.txt --parallel 4

Apply a graph-edit file through the mutation pipeline (incremental index
maintenance + cache invalidation), then optionally re-query::

    python -m repro update --dataset fig1 --edits edits.txt --query D --k 2

Serve a dataset over HTTP (request coalescing on by default; port 0 binds
an ephemeral port and prints it; Ctrl-C drains and exits)::

    python -m repro serve --dataset acmdl --scale 0.01 --port 8437 --parallel 4

then, from any HTTP client::

    curl -s localhost:8437/healthz
    curl -s -X POST localhost:8437/query -d '{"vertex": 17, "k": 6}'

Watch a community continuously — a standing subscription whose pushed
diffs (joined/left members, tagged with the exact graph version) print
as JSON lines until Ctrl-C::

    python -m repro subscribe --url http://localhost:8437 --vertex 17 --k 6
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.api import CommunityService, Query
from repro.core import ALL_METHODS
from repro.core.profiled_graph import ProfiledGraph
from repro.datasets import (
    dataset_names,
    fig1_profiled_graph,
    load_dataset,
)
from repro.engine import (
    coerce_query_vertices,
    coerce_update_vertices,
    load_queries,
    load_update_file,
    retype_vertex,
)
from repro.errors import InvalidInputError, ReproError
from repro.graph.generators import random_queries
from repro.storage import load_snapshot


def _load(args: argparse.Namespace) -> ProfiledGraph:
    """``--dataset``: ``fig1``, a generated dataset's name or a snapshot file."""
    if args.dataset == "fig1":
        return fig1_profiled_graph()
    if args.dataset.lower() in dataset_names():
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    try:
        return load_snapshot(args.dataset)
    except FileNotFoundError:
        raise InvalidInputError(
            f"--dataset {args.dataset!r} is neither fig1, a dataset "
            f"({', '.join(dataset_names())}) nor a snapshot file"
        ) from None


def _method_arg(method: Optional[str]) -> Optional[str]:
    """``--method auto`` means "let the planner decide" (``None``)."""
    return None if method in (None, "auto") else method


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: one PCS query, text or JSON envelope."""
    pg = _load(args)
    if args.query is None:
        candidates = random_queries(pg.graph, 1, args.k, seed=args.seed)
        if not candidates:
            print("no query vertex available in the k-core", file=sys.stderr)
            return 1
        vertex = candidates[0]
        if not args.json:
            print(f"(no --query given; picked {vertex!r} from the {args.k}-core)")
    else:
        vertex = retype_vertex(pg, args.query)
    service = CommunityService(pg, one_shot=True)
    query = Query(
        vertex=vertex,
        k=args.k,
        method=_method_arg(args.method),
        limit=args.limit,
        min_size=args.min_size,
    )
    response = service.query(query)
    if args.json:
        print(json.dumps(response.to_dict(), indent=2))
        return 0
    result = response.result
    print(result.summary())
    if response.plan is not None and response.plan.planned:
        print(f"(planner chose {response.plan.method}: {response.plan.reason})")
    if response.matched < response.total_communities:
        print(f"({response.total_communities - response.matched} communities "
              f"below --min-size {response.query.min_size} hidden)")
    if response.truncated:
        print(f"(showing first {response.returned} of {response.matched} "
              f"communities; raise --limit for more)")
    for i, community in enumerate(response.page(), start=1):
        print(f"\nPC{i}: {sorted(map(str, community.vertices))}")
        print(community.subtree.pretty(indent="  "))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: Table-2 statistics of a dataset."""
    pg = _load(args)
    stats = pg.stats()
    print(f"dataset      : {args.dataset}")
    print(f"vertices     : {stats.num_vertices}")
    print(f"edges        : {stats.num_edges}")
    print(f"avg degree   : {stats.average_degree:.2f}")
    print(f"avg |P-tree| : {stats.average_ptree_size:.2f}")
    print(f"|GP-tree|    : {stats.gp_tree_size}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    """``repro batch``: serve a query file through one service session."""
    pg = _load(args)
    queries = load_queries(
        args.queries, default_k=args.k, default_method=_method_arg(args.method)
    )
    if not queries:
        print(f"no queries found in {args.queries}", file=sys.stderr)
        return 1
    queries = coerce_query_vertices(pg, queries)
    service = CommunityService(pg, max_limit=args.limit, parallel=args.parallel)
    batch_plan = service.plan_batch(len(queries))
    responses = service.batch(queries)
    stats = service.stats()
    service.close()
    payload = {
        "dataset": args.dataset,
        "num_queries": len(queries),
        "batch_plan": batch_plan.to_dict(),
        "results": [r.to_dict() for r in responses],
        "engine": {
            "queries_served": stats.queries_served,
            "cache_hits": stats.cache.hits,
            "cache_misses": stats.cache.misses,
            "cache_hit_rate": stats.cache_hit_rate,
            "index_builds": stats.index_builds,
            "index_build_seconds": stats.index_build_seconds,
        },
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out} ({len(queries)} queries)")
    else:
        print(text)
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """``repro update``: apply an edit file through the mutation pipeline."""
    pg = _load(args)
    updates = load_update_file(args.edits)
    if not updates:
        print(f"no edits found in {args.edits}", file=sys.stderr)
        return 1
    updates = coerce_update_vertices(pg, updates)
    service = CommunityService(pg)
    method = _method_arg(args.method)
    if not args.no_warm:
        service.warm()  # exercise the incremental patch path, not a rebuild
        if args.query is not None:
            # Pre-query so the stats demonstrate cache invalidation. Skipped
            # under --no-warm: an indexed pre-query would eagerly build the
            # full index, defeating the flag.
            service.query(retype_vertex(pg, args.query), k=args.k, method=method)
    receipt = service.apply_updates(updates)
    payload = {
        "dataset": args.dataset,
        "receipt": receipt.to_dict(),
        "graph": {"vertices": pg.num_vertices, "edges": pg.num_edges},
    }
    if args.query is not None:
        query = retype_vertex(pg, args.query)
        if query in pg:
            # The re-query is what detects (and counts) the stale entry.
            response = service.query(query, k=args.k, method=method)
            payload["query"] = response.to_dict()
        else:
            payload["query"] = {"query": str(query), "error": "vertex removed"}
    stats = service.stats()
    payload["engine"] = {
        "updates_applied": stats.updates_applied,
        "maintenance_seconds": stats.maintenance_seconds,
        "invalidations": stats.invalidations,
        "index_builds": stats.index_builds,
        "graph_version": pg.version,
    }
    print(f"dataset            : {args.dataset}")
    print(f"edits applied      : {receipt.applied}/{receipt.requested} "
          f"(graph now v{receipt.version})")
    print(f"labels repaired    : {receipt.repaired_labels}")
    print(f"maintenance        : {receipt.seconds * 1000:.2f} ms")
    print(f"cache invalidations: {stats.invalidations}")
    print(f"graph              : n={pg.num_vertices}, m={pg.num_edges}")
    if "query" in payload and "error" not in payload["query"]:
        print(f"\nre-query {args.query!r}: "
              f"{payload['query']['returned']} communities")
    if args.out:
        text = json.dumps(payload, indent=2)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_subscribe(args: argparse.Namespace) -> int:
    """``repro subscribe``: a standing query against a server, diffs on stdout.

    Registers the query (or resumes an existing subscription with
    ``--id``/``--last-event-id``) and prints one JSON line per
    :class:`~repro.api.subscription.CommunityDiff` its long-polls return,
    until interrupted or ``--max-events`` is reached. ``--url`` may name
    any serving role, the replication router included. The subscription
    itself stays registered on exit — it is *standing*; drop it with
    ``--drop ID``.
    """
    from repro.replication.replica import parse_http_url
    from repro.server.client import ServerClient, ServerError

    host, port = parse_http_url(args.url)
    client = ServerClient(host, port, retries=args.retries)
    try:
        if args.drop:
            client.unsubscribe(args.drop)
            print(f"unsubscribed {args.drop}", flush=True)
            return 0
        if args.id:
            sub_id = args.id
            cursor = args.last_event_id or 0
        else:
            if args.vertex is None:
                print("error: --vertex (or --id / --drop) is required",
                      file=sys.stderr)
                return 2
            token = args.vertex
            # Remote graphs are not loadable here; mirror the int-vertex
            # convention of the generated datasets by heuristic.
            vertex = int(token) if token.lstrip("-").isdigit() else token
            sub, snapshot = client.subscribe(
                vertex,
                k=args.k,
                method=_method_arg(args.method),
                cohesion=args.cohesion,
            )
            print(json.dumps({"subscribed": sub.to_dict()}), flush=True)
            print(json.dumps(snapshot.to_dict()), flush=True)
            sub_id = sub.id
            cursor = snapshot.event_id
        delivered = 0
        try:
            for diff in client.subscribe_stream(sub_id, last_event_id=cursor):
                print(json.dumps(diff.to_dict()), flush=True)
                delivered += 1
                if args.max_events and delivered >= args.max_events:
                    break
        except KeyboardInterrupt:
            print(f"\nstream closed; resume with --id {sub_id}",
                  file=sys.stderr, flush=True)
        return 0
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _build_serving_role(args: argparse.Namespace):
    """The server ``repro serve`` runs: a gateway role, or the router."""
    from repro.server import CommunityGateway

    if args.role == "router":
        from repro.replication import ReplicationRouter

        return ReplicationRouter(
            args.writer_url,
            args.replica,
            host=args.host,
            port=args.port,
            min_version_deadline=args.min_version_deadline,
        )
    gateway_opts = dict(
        host=args.host,
        port=args.port,
        coalesce=not args.no_coalesce,
        coalesce_window=args.coalesce_window,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        warm=not args.no_warm,
        log_requests=args.log_requests,
    )
    if args.role == "replica":
        from repro.replication import ReplicaGateway

        if not args.writer_url or not args.data_dir:
            raise SystemExit(
                "serve --role replica needs --writer-url and --data-dir"
            )
        return ReplicaGateway(
            args.writer_url,
            args.data_dir,
            service_opts=dict(max_limit=args.limit),
            **gateway_opts,
        )
    service = CommunityService(
        _load(args),
        parallel=args.parallel,
        max_limit=args.limit,
        storage_dir=args.data_dir,
    )
    if args.role == "writer":
        from repro.replication import WriterGateway

        if not args.data_dir:
            raise SystemExit("serve --role writer needs --data-dir (the WAL "
                             "is the replication stream source)")
        return WriterGateway(
            service, heartbeat_interval=args.heartbeat_interval, **gateway_opts
        )
    return CommunityGateway(service, **gateway_opts)


def _announce_serving(server, args: argparse.Namespace) -> None:
    """Print the lines a supervisor reads as "ready" (the first carries the URL)."""
    if args.role == "router":
        print(f"routing at {server.url} "
              f"(writer: {args.writer_url}, replicas: {len(args.replica)}, "
              f"min-version deadline: {args.min_version_deadline:.1f}s)",
              flush=True)
        print("endpoints: POST /query /batch /update · GET /healthz /stats",
              flush=True)
        return
    mode = "off" if args.no_coalesce else f"{args.coalesce_window * 1000:.1f} ms window"
    what = (f"replica of {args.writer_url}" if args.role == "replica"
            else args.dataset)
    print(f"serving {what} at {server.url} "
          f"(role: {server.role}, coalescing: {mode}, "
          f"workers: {args.parallel or 1})", flush=True)
    print("endpoints: POST /query /batch /update /subscribe · "
          "GET /healthz /stats /metrics", flush=True)
    report = server.service.boot_report
    if report is not None:
        print(f"data-dir {args.data_dir}: booted from {report.source} at "
              f"graph version {report.graph_version} "
              f"(replayed {report.replayed_records} WAL record(s), index "
              f"{'loaded' if report.index_loaded else 'cold'}, "
              f"{report.seconds:.2f}s)", flush=True)


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run one serving role over HTTP until interrupted."""
    router = args.role == "router"
    if router and not (args.writer_url and args.replica):
        print("serve --role router needs --writer-url and at least one --replica",
              file=sys.stderr)
        return 2
    server = _build_serving_role(args)
    with server:
        # A supervisor may interrupt as soon as it has read the first
        # announced line, so the announcement drains as cleanly as wait().
        try:
            _announce_serving(server, args)
            server.wait()
        except KeyboardInterrupt:
            print("\nshutting down (draining in-flight requests)...", flush=True)
    if router:
        counters = server.stats()["server"]["counters"]
        print(f"proxied {counters['reads_proxied']} read(s), "
              f"{counters['writes_proxied']} write(s)", flush=True)
    else:
        stats = server.service.stats()
        print(f"served {stats.queries_served} queries "
              f"(cache hit rate {stats.cache_hit_rate:.0%})", flush=True)
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """``repro cluster``: a whole replication fleet as local subprocesses."""
    import time

    from repro.replication import LocalCluster

    cluster = LocalCluster(
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        replicas=args.replicas,
        data_root=args.data_root,
        coalesce_window=args.coalesce_window,
        heartbeat_interval=args.heartbeat_interval,
        min_version_deadline=args.min_version_deadline,
    )
    with cluster:
        print(f"cluster up: router at {cluster.router_url}", flush=True)
        print(f"  writer:   {cluster.writer_url}", flush=True)
        for index, url in enumerate(cluster.replica_urls):
            print(f"  replica-{index}: {url}", flush=True)
        print("point clients at the router; Ctrl-C stops the fleet", flush=True)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("\nstopping cluster...", flush=True)
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """``repro snapshot``: write, verify or compact on-disk snapshots."""
    from repro.storage import SnapshotError, save_snapshot, verify_digest

    if args.verify is not None:
        try:
            info = verify_digest(args.verify)
        except SnapshotError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"ok": True, **info.to_dict()}, indent=2))
        return 0
    if args.data_dir is not None:
        # A durable server's boot (subscriptions included), the index, one checkpoint.
        with CommunityService(lambda: _load(args), storage_dir=args.data_dir) as service:
            service.warm()
            info = service.snapshot()
        print(json.dumps(
            {"compacted": str(service.storage.snapshot_path),
             "boot": service.boot_report.to_dict(), **info.to_dict()},
            indent=2,
        ))
        return 0
    if args.out is not None:
        pg = _load(args)
        if not args.no_index:
            pg.index()
        info = save_snapshot(pg, args.out, include_index=not args.no_index)
        print(json.dumps({"written": args.out, **info.to_dict()}, indent=2))
        return 0
    print("snapshot: one of --out, --data-dir or --verify is required",
          file=sys.stderr)
    return 2


#: Import pairs proven order-independent by ``repro lint --ci`` — each is
#: imported "upper layer first" in a fresh interpreter so a latent cycle
#: (only visible under one import order) cannot land. Historically the CI
#: api-surface job ran these as ad-hoc shell one-liners.
_IMPORT_ORDER_PAIRS = (
    ("repro.api.service", "repro.cli"),
    ("repro.engine", "repro.api"),
    ("repro.core.search", "repro.api.service"),
    ("repro.server", "repro.api"),
    ("repro.storage", "repro.api"),
    ("repro.replication", "repro.server"),
)


def _import_order_smoke() -> int:
    """Run the import-order independence checks in fresh interpreters.

    Returns the number of failing pairs (0 == pass). The static
    layer-DAG checker proves eager imports are acyclic; this dynamic
    smoke additionally exercises the lazy edges (``__getattr__`` hubs,
    function-local imports) that static analysis deliberately exempts.
    """
    import os
    import subprocess

    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    failures = 0
    for first, second in _IMPORT_ORDER_PAIRS:
        proc = subprocess.run(
            [sys.executable, "-c", f"import {first}, {second}"],
            env=env,
            capture_output=True,
            text=True,
        )
        status = "ok" if proc.returncode == 0 else "FAIL"
        print(f"import-order: {first} before {second}: {status}")
        if proc.returncode != 0:
            failures += 1
            sys.stderr.write(proc.stderr)
    return failures


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: run the AST-based invariant checkers (repro.lint)."""
    from repro.lint import all_checkers, run_lint

    if args.list:
        for checker in all_checkers():
            print(f"{checker.id}: {checker.description}")
        return 0
    select = [s for s in (args.select or "").split(",") if s] or None
    ignore = [s for s in (args.ignore or "").split(",") if s] or None
    paths = [Path(p) for p in args.paths] or None
    try:
        report = run_lint(paths, select=select, ignore=ignore)
    except KeyError as exc:
        print(f"lint: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json_out:
        out = Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    code = report.exit_code()
    if args.ci:
        failures = _import_order_smoke()
        if failures:
            print(f"lint --ci: {failures} import-order pair(s) failed", file=sys.stderr)
            code = code or 1
    return code


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (one subcommand per workflow)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Profiled community search (PCS) — ICDE'19 reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dataset",
            default="fig1",
            help=f"fig1, a snapshot file, or one of {', '.join(dataset_names())}",
        )
        p.add_argument("--scale", type=float, default=0.01, help="generation scale")
        p.add_argument("--seed", type=int, default=20190116)

    method_choices = ("auto",) + ALL_METHODS

    q = sub.add_parser("query", help="run a PCS query")
    add_dataset_args(q)
    q.add_argument("--query", help="query vertex (default: sampled from the k-core)")
    q.add_argument("--k", type=int, default=6, help="minimum degree (default 6)")
    q.add_argument("--method", default="auto", choices=method_choices,
                   help="execution method (auto = query planner decides)")
    q.add_argument("--json", action="store_true",
                   help="emit the full QueryResponse envelope as JSON")
    q.add_argument("--limit", type=int, default=None,
                   help="return at most this many communities")
    q.add_argument("--min-size", type=int, default=1, dest="min_size",
                   help="hide communities smaller than this (default 1)")
    q.set_defaults(func=cmd_query)

    s = sub.add_parser("stats", help="show Table-2 statistics of a dataset")
    add_dataset_args(s)
    s.set_defaults(func=cmd_stats)

    b = sub.add_parser("batch", help="serve a query file through the engine")
    add_dataset_args(b)
    b.add_argument("--queries", required=True, help="query file (text/JSON/JSONL)")
    b.add_argument("--k", type=int, default=6, help="default k for bare vertices")
    b.add_argument("--method", default="adv-P", choices=method_choices,
                   help="default method for queries that don't pin one "
                        "(auto = query planner decides)")
    b.add_argument("--limit", type=int, default=None,
                   help="cap communities per response (service max_limit)")
    b.add_argument("--parallel", type=int, default=None,
                   help="worker *process* count: batches past the planner "
                        "threshold shard across a process pool "
                        "(see repro.parallel)")
    b.add_argument("--out", help="write JSON here instead of stdout")
    b.set_defaults(func=cmd_batch)

    u = sub.add_parser("update", help="apply a graph-edit file through the engine")
    add_dataset_args(u)
    u.add_argument("--edits", required=True,
                   help="edit file (text or JSONL; see repro.engine.updates)")
    u.add_argument("--query", help="vertex to re-query after the edits")
    u.add_argument("--k", type=int, default=6, help="k for --query (default 6)")
    u.add_argument("--method", default="adv-P", choices=ALL_METHODS)
    u.add_argument("--no-warm", action="store_true",
                   help="skip the eager index build (edits first, index built "
                        "lazily; also skips the pre-edit --query pass)")
    u.add_argument("--out", help="write a JSON report here")
    u.set_defaults(func=cmd_update)

    sv = sub.add_parser("serve", help="serve a dataset over HTTP (repro.server)")
    add_dataset_args(sv)
    sv.add_argument("--host", default="127.0.0.1", help="bind address")
    sv.add_argument("--port", type=int, default=8437,
                    help="bind port (0 = ephemeral; the bound port is printed)")
    sv.add_argument("--parallel", type=int, default=None,
                    help="worker process count (coalesced batches past the "
                         "planner threshold shard across a fleet booted from "
                         "this process's graph + index image)")
    sv.add_argument("--limit", type=int, default=None,
                    help="cap communities per response (service max_limit)")
    sv.add_argument("--no-coalesce", action="store_true",
                    help="serve each request individually (no batching window)")
    sv.add_argument("--coalesce-window", type=float, default=0.005,
                    dest="coalesce_window", metavar="SECONDS",
                    help="how long a batch waits for company (default 5 ms)")
    sv.add_argument("--max-batch", type=int, default=64, dest="max_batch",
                    help="dispatch immediately at this queue depth (default 64)")
    sv.add_argument("--max-queue", type=int, default=256, dest="max_queue",
                    help="admission bound; beyond it requests get 429 (default 256)")
    sv.add_argument("--no-warm", action="store_true",
                    help="skip the eager index build at startup")
    sv.add_argument("--log-requests", action="store_true",
                    help="one access-log line per request on stderr")
    sv.add_argument("--data-dir", dest="data_dir", default=None, metavar="DIR",
                    help="durable storage directory (snapshot + write-ahead "
                         "log): boot replays it, updates are fsync'd to it, "
                         "drain checkpoints it; without it, applied updates "
                         "are lost on shutdown (a warning says so)")
    sv.add_argument("--role", default="standalone",
                    choices=("standalone", "writer", "replica", "router"),
                    help="serving role (repro.replication): 'writer' accepts "
                         "updates and streams its WAL (needs --data-dir), "
                         "'replica' follows a writer and serves reads only "
                         "(needs --writer-url and --data-dir), 'router' is "
                         "the proxying front-end over a fleet (needs "
                         "--writer-url and --replica)")
    sv.add_argument("--writer-url", dest="writer_url", default=None,
                    metavar="URL", help="the writer gateway's base URL "
                                        "(replica and router roles)")
    sv.add_argument("--replica", action="append", default=[], metavar="URL",
                    help="a replica gateway's base URL (router role; repeat "
                         "once per replica)")
    sv.add_argument("--heartbeat-interval", dest="heartbeat_interval",
                    type=float, default=1.0, metavar="SECONDS",
                    help="writer role: idle-stream heartbeat cadence "
                         "(default 1s)")
    sv.add_argument("--min-version-deadline", dest="min_version_deadline",
                    type=float, default=2.0, metavar="SECONDS",
                    help="router role: longest a read with X-Repro-Min-Version "
                         "waits for a caught-up replica before 503 "
                         "(default 2s)")
    sv.set_defaults(func=cmd_serve)

    sb = sub.add_parser(
        "subscribe",
        help="standing query against a running server; pushed diffs on stdout",
    )
    sb.add_argument("--url", default="http://127.0.0.1:8437",
                    help="base URL of a serving gateway or the replication router")
    sb.add_argument("--vertex", help="query vertex to watch (registers a new "
                                     "subscription)")
    sb.add_argument("--k", type=int, default=None, help="minimum degree bound")
    sb.add_argument("--method", default="auto",
                    choices=("auto",) + tuple(ALL_METHODS))
    sb.add_argument("--cohesion", default=None,
                    help="cohesion model name (server default when omitted)")
    sb.add_argument("--id", default=None,
                    help="resume an existing subscription instead of "
                         "registering one")
    sb.add_argument("--last-event-id", dest="last_event_id", type=int,
                    default=None, metavar="N",
                    help="resume cursor for --id (default 0 = from the start "
                         "of the retained window)")
    sb.add_argument("--drop", default=None, metavar="ID",
                    help="unsubscribe this id and exit")
    sb.add_argument("--max-events", dest="max_events", type=int, default=None,
                    metavar="N", help="exit after N pushed diffs")
    sb.add_argument("--retries", type=int, default=5,
                    help="retry budget per poll (default 5)")
    sb.set_defaults(func=cmd_subscribe)

    cl = sub.add_parser(
        "cluster",
        help="run writer + replicas + router as local subprocesses "
             "(repro.replication)",
    )
    add_dataset_args(cl)
    cl.add_argument("--replicas", type=int, default=2,
                    help="read-replica count (default 2)")
    cl.add_argument("--data-root", dest="data_root", default=None, metavar="DIR",
                    help="parent directory for every member's store "
                         "(default: a temp dir, removed on exit)")
    cl.add_argument("--coalesce-window", type=float, default=0.0,
                    dest="coalesce_window", metavar="SECONDS",
                    help="coalescing window on writer/replicas (default 0 = off)")
    cl.add_argument("--heartbeat-interval", dest="heartbeat_interval",
                    type=float, default=0.2, metavar="SECONDS",
                    help="writer idle-stream heartbeat cadence (default 0.2s)")
    cl.add_argument("--min-version-deadline", dest="min_version_deadline",
                    type=float, default=5.0, metavar="SECONDS",
                    help="router read-your-writes wait bound (default 5s)")
    cl.set_defaults(func=cmd_cluster)

    sp = sub.add_parser(
        "snapshot", help="write, inspect, verify or compact on-disk snapshots"
    )
    add_dataset_args(sp)
    sp.add_argument("--out", help="write a fresh snapshot of the dataset here")
    sp.add_argument("--data-dir", dest="data_dir", metavar="DIR",
                    help="compact a storage directory: boot from its "
                         "snapshot+WAL (the dataset args are the cold seed) "
                         "and fold everything, standing subscriptions "
                         "included, into a fresh snapshot")
    sp.add_argument("--verify", metavar="PATH",
                    help="check an existing snapshot's digest and structure")
    sp.add_argument("--no-index", action="store_true",
                    help="omit the CP-tree index section (smaller file, "
                         "cold index on load)")
    sp.set_defaults(func=cmd_snapshot)

    li = sub.add_parser(
        "lint",
        help="run the AST invariant checkers over src/repro (repro.lint)",
    )
    li.add_argument("paths", nargs="*", default=[],
                    help="files/directories to lint (default: the installed repro package)")
    li.add_argument("--format", choices=("text", "json"), default="text",
                    help="report format on stdout")
    li.add_argument("--json-out",
                    help="also write the JSON report to this file (CI artifact)")
    li.add_argument("--select", help="comma-separated checker ids to run")
    li.add_argument("--ignore", help="comma-separated checker ids to skip")
    li.add_argument("--list", action="store_true",
                    help="list registered checkers and exit")
    li.add_argument("--ci", action="store_true",
                    help="also run the dynamic import-order smoke pairs")
    li.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Bad input fails closed: a :class:`~repro.errors.ReproError` or an
    ``OSError`` from a command prints one ``error: <message>`` line on
    stderr and exits 2, the code argparse uses for a bad argument.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
