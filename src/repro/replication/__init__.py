"""Single-writer / N-read-replica serving tier with WAL streaming.

The replication tier composes the existing serving pieces across process
boundaries — nothing in the engine or storage layers changes shape:

* :class:`~repro.replication.writer.WriterGateway` — the one gateway
  accepting ``POST /update``; every durable batch its write-ahead log
  fsyncs is streamed, framed, to subscribed replicas over a long-lived
  chunked HTTP response, with resume-from-version on reconnect.
* :class:`~repro.replication.replica.ReplicaGateway` — boots from the
  writer's shipped snapshot (or its own local store), applies the stream
  through the same durable
  :meth:`~repro.api.service.CommunityService.apply_updates` path the
  writer uses, serves reads, and answers writes with ``307`` → writer.
* :class:`~repro.replication.router.ReplicationRouter` — the front-end,
  served by the same HTTP layer as the gateways; writes go
  to the writer, reads fan out over the least-loaded caught-up replica,
  and a client-sent ``X-Repro-Min-Version`` floor buys read-your-writes
  with a bounded wait.
* :class:`~repro.replication.cluster.LocalCluster` — a dev/test
  launcher running the whole fleet as real subprocesses.

Consistency model (documented in ``docs/replication.md``): replication
is asynchronous; a replica answer reflects some *prefix* of the writer's
history and says which one (``graph_version`` in every envelope and
response header). Monotonic clients pass their highest seen version as
``min_version`` to never read backwards.
"""

from repro.replication.cluster import ClusterError, ClusterProcess, LocalCluster
from repro.replication.protocol import (
    CLOSE,
    HEARTBEAT,
    HELLO,
    MIN_VERSION_HEADER,
    RECORD,
    RESYNC,
    SNAPSHOT_PATH,
    STREAM_PATH,
    FrameError,
    FrameReader,
    decode_frame,
    encode_frame,
    record_frame,
    record_from_frame,
)
from repro.replication.replica import ReplicaGateway, ReplicationError, parse_http_url
from repro.replication.router import BackendState, ReplicationRouter
from repro.replication.writer import WriterGateway

__all__ = [
    "CLOSE",
    "BackendState",
    "ClusterError",
    "ClusterProcess",
    "FrameError",
    "FrameReader",
    "HEARTBEAT",
    "HELLO",
    "LocalCluster",
    "MIN_VERSION_HEADER",
    "RECORD",
    "RESYNC",
    "ReplicaGateway",
    "ReplicationError",
    "ReplicationRouter",
    "SNAPSHOT_PATH",
    "STREAM_PATH",
    "WriterGateway",
    "decode_frame",
    "encode_frame",
    "parse_http_url",
    "record_frame",
    "record_from_frame",
]
