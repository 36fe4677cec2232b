"""The four HTTP workloads and the end-to-end pass that times them.

Every workload runs on the same graph (``acmdl`` at scale 0.1, 10 765
vertices, generated from ``GRAPH_SEED``) and takes its query vertices from
``make_workload(pg, "acmdl", k=6, seed)`` and its hot-set draws from a
seeded RNG; the hot set, the edit stream and the watched vertices are
fixed with the graph. The server receives only the generated requests. All loops are closed: a
connection sends its next request when the previous answer has arrived.
The timed phase is a sequence of short blocks of requests with the
reference loop of :mod:`reference` timed between them, so every time can
be read as on the reference host.

Why these four (the README has the long form):

``point-cold``
    One connection, distinct vertices, every request a cache miss. The
    index, core, ptree and graph layers do the work; server and cache
    almost none.
``point-hot``
    Two connections drawing from 32 cached vertices; hit rate 1. Server
    (HTTP, 5 ms coalescer window, envelope) and engine cache do all the
    work; core and graph none. The bypass workload for a kernel change.
``batch-sweep``
    One ``POST /batch`` of 12 queries per request: 2 vertices x k in 3..8,
    the NCP size-sweep shape. Same kernels, used differently: many k per
    vertex, one round trip and no coalescer window per 12 answers, large
    envelopes.
``mixed-rw``
    Durable server booted from a snapshot, 8 standing subscriptions;
    rounds of one 4-edit ``/update``, one ``/subscribe/poll`` and 5 cold
    reads. WAL, index repair, subscriptions and CSR rebuild do the work.
"""

from __future__ import annotations

import itertools
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.workloads import make_edit_stream, make_workload
from repro.datasets import load_dataset

from oracle import Oracle
from reference import HostSpeed
from serving import Connection, ServerProcess

DATASET = "acmdl"
SCALE = 0.1
#: The graph is part of the system under test, like the scale: one graph
#: for every run. ``--seed`` picks the requests sent to it. (Two graphs
#: from different seeds differ by 10-25 % in median query latency, which
#: would be read as noise.)
GRAPH_SEED = 20190116
K = 6
METHOD = "adv-P"
#: Boots per run; ``setup_s`` is their median.
BOOTS = 3
WARMUP_QUERIES = 30
HOT_SET = 32
SWEEP_KS = (3, 4, 5, 6, 7, 8)
SWEEP_VERTICES = 2
SUBSCRIPTIONS = 8
EDITS_PER_UPDATE = 4
READS_PER_ROUND = 5
#: Answers checked against the oracle per run (``point-hot`` checks all 32).
VERIFY_ANSWERS = 24
#: ``peak_rss_mb`` is read when this many blocks have completed (60, 1200,
#: 8 and 70 operations), so that it reflects the same work on a fast and on
#: a slow host: at most a third of what a quiet run completes.
RSS_AFTER_BLOCKS = {"point-cold": 3, "point-hot": 6, "batch-sweep": 4, "mixed-rw": 10}
#: Query vertices drawn per run: more than a run can consume.
VERTEX_POOL = 4000
EDIT_POOL = 1200


def query_payload(vertex, k: int = K) -> dict:
    return {"vertex": vertex, "k": k, "method": METHOD}


@dataclass
class Sample:
    """One HTTP operation: what was sent, when, and what came back."""

    kind: str  # "read", "update", "poll", "other"
    phase: str  # "setup", "warmup", "timed", "after"
    start: float
    end: float
    body: object
    answers: int = 0
    key: object = None
    failure: Optional[str] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Recorder:
    """Sends operations, keeps every sample, and knows when time is up."""

    def __init__(self, seconds: float, max_ops: Optional[int] = None) -> None:
        self.seconds = seconds
        self.max_ops = max_ops
        self.samples: List[Sample] = []
        self.phase = "setup"
        self.t0 = 0.0
        self._timed_ops = 0

    def begin_timed(self, ops: Optional[int] = None) -> None:
        """Start a timed stretch; with ``ops``, one of that many operations."""
        self.phase = "timed"
        self.t0 = time.perf_counter()
        if ops is not None:
            self.max_ops = self._timed_ops + ops

    def expired(self) -> bool:
        if self.max_ops is not None and self._timed_ops >= self.max_ops:
            return True
        return time.perf_counter() - self.t0 >= self.seconds

    def call(self, conn: Connection, kind: str, path: str, payload,
             answers: int = 0, key=None) -> Sample:
        start = time.perf_counter()
        status, body = conn.post(path, payload)
        end = time.perf_counter()
        sample = Sample(kind, self.phase, start, end, body, answers, key)
        if status != 200:
            sample.failure = f"HTTP {status} on {path}: {body}"
        self.samples.append(sample)  # list.append is atomic across lanes
        if self.phase == "timed":
            self._timed_ops += 1
        return sample

    def timed(self, kind: str) -> List[Sample]:
        return [s for s in self.samples if s.phase == "timed" and s.kind == kind]


def evenly_spaced(items: Sequence, count: int) -> List:
    """``count`` items evenly spaced through ``items`` (all when fewer)."""
    if len(items) <= count:
        return list(items)
    step = len(items) / count
    return [items[int(i * step)] for i in range(count)]


def envelopes(read: Sample) -> List[dict]:
    """The answer envelopes of one read: a ``/batch`` carries several."""
    return read.body["results"] if "results" in read.body else [read.body]


class Workload:
    """Base: plan from the seed, warm up, drive, finish, verify."""

    name = ""
    connections = 1
    durable = False
    expect_cache_hit = False
    #: Operations in one block of the timed phase, all lanes together:
    #: 0.4 to 0.8 s of work, so the reference loop is timed that often.
    block_ops = 1

    def __init__(self, pg, seed: int) -> None:
        self.seed = seed
        vertices = list(make_workload(pg, DATASET, VERTEX_POOL, k=K, seed=seed).queries)
        #: The fixed query whose first correct answer ends set-up.
        self.probe_vertex = vertices[0]
        self.vertices = vertices[1:]
        self._unseen = iter(self.vertices)
        # One edit stream and one set of watched vertices for every run,
        # like the graph: an update costs what it touches and what the
        # subscriptions re-evaluate, and two seeds' worth differ by a
        # factor of two in their median update.
        self.edits = [e.to_dict() for e in make_edit_stream(pg, EDIT_POOL, seed=GRAPH_SEED)]
        self.watched = list(make_workload(pg, DATASET, SUBSCRIPTIONS, k=K, seed=GRAPH_SEED).queries)

    def take(self, count: int) -> List:
        """The next ``count`` query vertices no request has used yet."""
        return list(itertools.islice(self._unseen, count))

    # -- phases --------------------------------------------------------
    def prepare(self, rec: Recorder, conn: Connection) -> None:
        """Untimed: fill caches and finish lazy set-up before timing."""

    def drive(self, rec: Recorder, conn: Connection, lane: int) -> None:
        """Timed: issue requests on one connection until time is up."""
        raise NotImplementedError

    def finish(self, rec: Recorder, conn: Connection) -> None:
        """Untimed: collect what verification still needs from the server."""

    def verify(self, rec: Recorder, oracle: Oracle) -> None:
        """Mark samples whose answers the oracle rejects."""
        raise NotImplementedError

    # -- shared checks -------------------------------------------------
    def check_cache_flags(self, rec: Recorder) -> None:
        for sample in rec.timed("read"):
            if sample.failure is not None:
                continue
            if any(e["cache_hit"] is not self.expect_cache_hit for e in envelopes(sample)):
                sample.failure = (
                    f"cache_hit is not {self.expect_cache_hit} for {sample.key!r}"
                )

    def check_reads(self, samples: Sequence[Sample], oracle: Oracle) -> None:
        for sample in samples:
            if sample.failure is None:
                vertex, k = sample.key
                sample.failure = oracle.mismatch(sample.body, vertex, k)


class PointCold(Workload):
    name = "point-cold"
    block_ops = 20

    def prepare(self, rec, conn):
        for vertex in self.take(WARMUP_QUERIES):
            rec.call(conn, "read", "/query", query_payload(vertex))

    def drive(self, rec, conn, lane):
        while not rec.expired():
            for vertex in self.take(1):
                rec.call(conn, "read", "/query", query_payload(vertex),
                         answers=1, key=(vertex, K))

    def verify(self, rec, oracle):
        self.check_cache_flags(rec)
        self.check_reads(evenly_spaced(rec.timed("read"), VERIFY_ANSWERS), oracle)


class PointHot(Workload):
    name = "point-hot"
    connections = 2
    expect_cache_hit = True
    block_ops = 200

    def __init__(self, pg, seed):
        super().__init__(pg, seed)
        # The hot set is fixed, like the graph: its 32 answers are 1-150 KB,
        # and 32 others move the rate by a tenth. The seed orders the draws.
        self._hot = list(make_workload(pg, DATASET, HOT_SET, k=K, seed=GRAPH_SEED).queries)

    def prepare(self, rec, conn):
        for vertex in self._hot:  # misses that fill the cache
            rec.call(conn, "read", "/query", query_payload(vertex))
        for vertex in self._hot[:WARMUP_QUERIES]:
            rec.call(conn, "read", "/query", query_payload(vertex))

    def drive(self, rec, conn, lane):
        rng = random.Random(self.seed * 1000 + lane)
        while not rec.expired():
            vertex = rng.choice(self._hot)
            rec.call(conn, "read", "/query", query_payload(vertex),
                     answers=1, key=(vertex, K))

    def verify(self, rec, oracle):
        self.check_cache_flags(rec)
        first: Dict[object, Sample] = {}
        for sample in rec.timed("read"):
            first.setdefault(sample.key, sample)
        self.check_reads(list(first.values()), oracle)


class BatchSweep(Workload):
    name = "batch-sweep"
    block_ops = 2

    def _send(self, rec, conn) -> None:
        keys = [(v, k) for v in self.take(SWEEP_VERTICES) for k in SWEEP_KS]
        payload = {"queries": [query_payload(v, k) for v, k in keys]}
        rec.call(conn, "read", "/batch", payload, answers=len(keys), key=keys)

    def prepare(self, rec, conn):
        self._send(rec, conn)
        self._send(rec, conn)

    def drive(self, rec, conn, lane):
        while not rec.expired():
            self._send(rec, conn)

    def verify(self, rec, oracle):
        self.check_cache_flags(rec)
        batches = [s for s in rec.timed("read") if s.failure is None]
        for i, sample in enumerate(evenly_spaced(batches, VERIFY_ANSWERS)):
            slot = i % len(sample.key)
            vertex, k = sample.key[slot]
            sample.failure = oracle.mismatch(sample.body["results"][slot], vertex, k)


@dataclass
class _Round:
    batch: List[dict]
    update: Sample
    reads: List[Sample] = field(default_factory=list)


@dataclass
class _Watch:
    """One standing subscription as the client sees it."""

    vertex: object
    members: frozenset  # the registration snapshot with every polled diff applied
    cursor: int
    last: Sample  # the last operation on it; a wrong composition fails this one


class MixedRW(Workload):
    name = "mixed-rw"
    durable = True
    block_ops = 1 + 1 + READS_PER_ROUND  # one round: update, poll, reads

    def __init__(self, pg, seed):
        super().__init__(pg, seed)
        self._edit_at = 0
        self._rounds: List[_Round] = []
        self._watches: Dict[str, _Watch] = {}

    def _round(self, rec, conn) -> None:
        batch = self.edits[self._edit_at:self._edit_at + EDITS_PER_UPDATE]
        self._edit_at += EDITS_PER_UPDATE
        this = _Round(batch, rec.call(conn, "update", "/update", {"updates": batch}))
        self._rounds.append(this)
        self._poll(rec, conn, list(self._watches)[len(self._rounds) % len(self._watches)])
        for vertex in self.take(READS_PER_ROUND):
            if rec.phase == "timed" and rec.expired():
                return
            this.reads.append(rec.call(conn, "read", "/query", query_payload(vertex),
                                       answers=1, key=(vertex, K)))

    def _poll(self, rec, conn, sub_id: str) -> None:
        watch = self._watches[sub_id]
        watch.last = rec.call(conn, "poll", "/subscribe/poll",
                              {"id": sub_id, "last_event_id": watch.cursor, "timeout": 0})
        if watch.last.failure is not None:
            return
        for event in watch.last.body["events"]:
            joined, left = frozenset(event["joined"]), frozenset(event["left"])
            watch.members = joined if event["reset"] else (watch.members | joined) - left
            watch.cursor = event["event_id"]

    def prepare(self, rec, conn):
        for vertex in self.watched:
            sample = rec.call(conn, "other", "/subscribe", query_payload(vertex))
            if sample.failure is None:
                snapshot = sample.body["snapshot"]
                self._watches[sample.body["subscription"]["id"]] = _Watch(
                    vertex, frozenset(snapshot["joined"]), snapshot["event_id"], sample)
        self._round(rec, conn)  # one untimed round: first repair, first fsync

    def drive(self, rec, conn, lane):
        while not rec.expired():
            self._round(rec, conn)

    def finish(self, rec, conn):
        for sub_id in self._watches:
            self._poll(rec, conn, sub_id)

    def verify(self, rec, oracle):
        self.check_cache_flags(rec)
        timed_reads = [s for s in rec.timed("read") if s.failure is None]
        chosen = {id(s) for s in evenly_spaced(timed_reads, VERIFY_ANSWERS)}
        for this in self._rounds:  # the shadow replay, one batch at a time
            if this.update.failure is not None:
                continue
            oracle.apply(this.batch)
            if this.update.body["graph_version"] != oracle.version:
                this.update.failure = (
                    f"update acknowledged version {this.update.body['graph_version']}"
                    f", shadow replay is at {oracle.version}"
                )
            self.check_reads([s for s in this.reads if id(s) in chosen], oracle)
        for watch in self._watches.values():  # a failed /subscribe already counts
            if watch.last.failure is None and watch.members != oracle.members(watch.vertex, K):
                watch.last.failure = (
                    f"composed subscription diffs for vertex {watch.vertex!r} differ "
                    f"from the final recompute"
                )


WORKLOADS = {cls.name: cls for cls in (PointCold, PointHot, BatchSweep, MixedRW)}


# ----------------------------------------------------------------------
# the end-to-end pass
# ----------------------------------------------------------------------
@dataclass
class EndToEndResult:
    metrics: Dict[str, Tuple[float, str]]
    #: Printed, not gated: numbers only some workloads have.
    informational: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    failures: List[str]
    #: Sample counts behind the medians, for the printed report.
    counts: Dict[str, int]
    #: Wall seconds per phase of the run (plan, boots, warmup, timed, ...).
    phase_seconds: Dict[str, float]


def drive_lanes(workload: Workload, rec: Recorder, lanes: Sequence,
                ops: Optional[int] = None) -> None:
    """One closed loop per connection until time is up or, with ``ops``,
    until that many more operations have completed."""
    rec.begin_timed(ops)
    threads = [threading.Thread(target=workload.drive, args=(rec, conn, lane))
               for lane, conn in enumerate(lanes)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rec.phase = "after"


@dataclass
class Block:
    """One block of the timed phase."""

    start: float
    end: float
    samples: List[Sample]


def drive_blocks(workload: Workload, rec: Recorder, lanes: Sequence, seconds: float,
                 server: ServerProcess, max_blocks: Optional[int] = None,
                 after_block: Optional[Callable[[int], None]] = None,
                 ) -> Tuple[List[Block], HostSpeed]:
    """The timed phase: blocks of ``workload.block_ops`` operations until
    ``seconds`` have passed, the reference loop timed between them (the
    server is idle then: every lane has its answer)."""
    blocks: List[Block] = []
    host = HostSpeed()
    began = time.perf_counter()
    host.sample()
    while time.perf_counter() - began < seconds and len(blocks) != max_blocks:
        first, start = len(rec.samples), time.perf_counter()
        cpu = server.cpu_seconds() + time.process_time()
        drive_lanes(workload, rec, lanes, workload.block_ops)
        cpu = server.cpu_seconds() + time.process_time() - cpu
        blocks.append(Block(start, time.perf_counter(), rec.samples[first:]))
        host.busy(cpu, sum(s.end - s.start for s in blocks[-1].samples))
        host.sample()
        if after_block is not None:
            after_block(len(blocks))
    return blocks, host


def _boot(repo_root: Path, scale: float, data_dir: Optional[Path],
          rec: Recorder, probe, expected, oracle: Oracle, host: HostSpeed):
    """One boot: spawn -> first correct answer. ``(server, conn, seconds)``."""
    host.sample()
    server = ServerProcess(repo_root, scale, GRAPH_SEED, data_dir).start()
    try:
        conn = Connection(server.port)
        sample = rec.call(conn, "other", "/query", query_payload(probe))
        elapsed = sample.end - server.spawned_at
        host.busy(server.cpu_seconds(), elapsed)
        host.sample()
        if sample.failure is None:
            sample.failure = oracle.mismatch(sample.body, probe, K, expected)
        return server, conn, elapsed
    except BaseException:
        server.stop()
        raise


def summarise(blocks: Sequence[Block], host: HostSpeed) -> Tuple[
        Dict[str, Tuple[float, str]], Dict[str, Tuple[float, str]]]:
    """``request_p50_ms`` and ``answers_per_s`` from the timed blocks, and
    what the clock read.

    ``request_p50_ms`` is the median latency over every timed read,
    ``answers_per_s`` the median over the blocks of answers per second of
    block; both as on the reference host (:mod:`reference`). Medians, so
    the second or two a shared host stalls for moves neither; corrected by
    the reference loop, so the minutes it runs slow for move them little.
    """
    reads = [[s for s in b.samples if s.kind == "read" and s.failure is None]
             for b in blocks]
    if not any(reads):
        return {}, {}
    p50 = statistics.median(s.ms for block_reads in reads for s in block_reads)
    rate = statistics.median(sum(s.answers for s in block_reads) / (b.end - b.start)
                             for b, block_reads in zip(blocks, reads))
    gated = {
        "request_p50_ms": (p50 * host.factor, "ms"),
        "answers_per_s": (rate / host.factor, "1/s"),
    }
    as_clocked = {
        "request_p50_ms as clocked": (p50, "ms"),
        "answers_per_s as clocked": (rate, "1/s"),
        "host speed": (host.speed, "x reference"),
        "busy share": (host.busy_share, "ratio"),
    }
    return gated, as_clocked


def run_end_to_end(name: str, seed: int, seconds: float, repo_root: Path,
                   scratch: Path, scale: float = SCALE, boots: int = BOOTS,
                   max_blocks: Optional[int] = None) -> EndToEndResult:
    """Boot the real server, drive ``name`` for ``seconds``, verify, summarise."""
    marks = [("start", time.perf_counter())]
    pg = load_dataset(DATASET, scale=scale, seed=GRAPH_SEED)
    workload = WORKLOADS[name](pg, seed)
    oracle = Oracle(pg)
    probe_expected = oracle.answer(workload.probe_vertex, K)
    rec = Recorder(float("inf"))
    scratch.mkdir(parents=True, exist_ok=True)
    data_dir = Path(tempfile.mkdtemp(prefix="data-", dir=scratch)) if workload.durable else None
    server = None
    lanes: List[Connection] = []
    peak_rss: List[float] = []
    try:
        if data_dir is not None:
            # Untimed: a cold boot plus drain leaves the snapshot that the
            # timed boots decode, so set-up here is snapshot boot.
            with ServerProcess(repo_root, scale, GRAPH_SEED, data_dir):
                pass
        marks.append(("plan", time.perf_counter()))
        boot_seconds = []
        boot_host = HostSpeed()
        for i in range(boots):
            server, conn, elapsed = _boot(repo_root, scale, data_dir, rec,
                                          workload.probe_vertex, probe_expected, oracle,
                                          boot_host)
            boot_seconds.append(elapsed)
            if i < boots - 1:
                conn.close()
                server.stop()
        lanes = [conn] + [Connection(server.port) for _ in range(workload.connections - 1)]
        marks.append(("boots", time.perf_counter()))

        rec.phase = "warmup"
        workload.prepare(rec, conn)
        marks.append(("warmup", time.perf_counter()))

        def read_rss(done: int) -> None:
            if done == RSS_AFTER_BLOCKS[name]:
                peak_rss.append(server.peak_rss_mb())

        blocks, host = drive_blocks(workload, rec, lanes, seconds, server,
                                    max_blocks, read_rss)
        marks.append(("timed", time.perf_counter()))
        if not peak_rss:  # a run too short to get that far
            peak_rss.append(server.peak_rss_mb())
        workload.finish(rec, conn)
    finally:
        for lane_conn in lanes:
            lane_conn.close()
        if server is not None:
            server.stop()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)

    workload.verify(rec, oracle)
    marks.append(("verify", time.perf_counter()))
    reads = [s for s in rec.timed("read") if s.failure is None]
    updates = [s for s in rec.timed("update") if s.failure is None]
    failures = [s.failure for s in rec.samples if s.failure is not None]
    setup = statistics.median(boot_seconds)
    metrics: Dict[str, Tuple[float, str]] = {"setup_s": (setup * boot_host.factor, "s")}
    gated, informational = summarise(blocks, host)
    metrics.update(gated)
    metrics["peak_rss_mb"] = (peak_rss[0], "MiB")
    informational["setup_s as clocked"] = (setup, "s")
    if updates:
        informational["update_p50_ms"] = (
            statistics.median(s.ms for s in updates) * host.factor, "ms")
    return EndToEndResult(
        metrics=metrics,
        informational=informational,
        attempted=len(rec.samples),
        failed=len(failures),
        failures=failures,
        counts={"reads": len(reads), "answers": sum(s.answers for s in reads),
                "updates": len(updates), "boots": len(boot_seconds),
                "blocks": len(blocks)},
        phase_seconds={b[0]: b[1] - a[1] for a, b in zip(marks, marks[1:])},
    )
