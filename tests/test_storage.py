"""Unit tests for repro.storage: snapshot codec, WAL, store, wiring.

The golden-file format-compatibility gate lives at the bottom
(``TestGoldenSnapshot``): it pins the version-1 byte encoding against a
checked-in artifact, so any byte-level format change must bump
``FORMAT_VERSION`` (and add a new golden) or fail CI.
"""

import hashlib
import random
import struct
from pathlib import Path

import pytest

from repro.core.profiled_graph import ProfiledGraph
from repro.api.service import CommunityService
from repro.bench import index_matches_fresh_build
from repro.datasets import fig1_profiled_graph, load_dataset
from repro.engine.explorer import CommunityExplorer
from repro.engine.updates import GraphUpdate, apply_update
from repro.errors import InvalidInputError, VertexNotFoundError
from repro.graph.graph import Graph
from repro.index.cltree import CLTree
from repro.index.cptree import CPTree
from repro.ptree.taxonomy import Taxonomy
from repro.server.gateway import CommunityGateway
from repro.storage import (
    FORMAT_VERSION,
    MAGIC,
    GraphStore,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
    StorageError,
    WalCorruptError,
    WalError,
    WalReplayError,
    WriteAheadLog,
    encode_payload,
    load_snapshot,
    load_snapshot_bytes,
    preview_updates,
    save_snapshot,
    snapshot_bytes,
    verify_digest,
)

GOLDEN = Path(__file__).parent / "data" / "snapshot_v1.bin"


@pytest.fixture
def fig1():
    return fig1_profiled_graph()


def assert_graphs_equal(a: ProfiledGraph, b: ProfiledGraph) -> None:
    """Topology, labels, taxonomy and version must all agree."""
    assert a.version == b.version
    assert a.graph.vertex_set() == b.graph.vertex_set()
    assert a.num_edges == b.num_edges
    for v in a.vertices():
        assert a.graph.adjacency()[v] == b.graph.adjacency()[v]
        assert a.labels(v) == b.labels(v)
    assert a.taxonomy.num_nodes == b.taxonomy.num_nodes
    for node in range(a.taxonomy.num_nodes):
        assert a.taxonomy.name(node) == b.taxonomy.name(node)
        assert a.taxonomy.parent(node) == b.taxonomy.parent(node)


def assert_index_equivalent(index: CPTree, reference: ProfiledGraph) -> None:
    """``index`` must answer exactly like a fresh build over ``reference``."""
    fresh = CPTree(reference.graph, reference.all_labels(),
                   reference.taxonomy, validate=False)
    assert set(index.labels()) == set(fresh.labels())
    for label in fresh.labels():
        mine, theirs = index.node(label), fresh.node(label)
        assert mine.vertices == theirs.vertices, label
        for q in sorted(mine.vertices, key=repr)[:4]:
            for k in (1, 2, 3):
                assert mine.cltree.kcore_vertices(q, k) == \
                    theirs.cltree.kcore_vertices(q, k), (label, q, k)


# ----------------------------------------------------------------------
# snapshot codec
# ----------------------------------------------------------------------
class TestSnapshotRoundTrip:
    def test_graph_and_index_round_trip(self, fig1, tmp_path):
        fig1.index()
        path = tmp_path / "snap.bin"
        info = save_snapshot(fig1, path)
        assert info.format_version == FORMAT_VERSION
        assert info.has_index and info.index_labels > 0
        loaded = load_snapshot(path)
        assert_graphs_equal(fig1, loaded)
        assert loaded.has_index()
        assert_index_equivalent(loaded.index(), fig1)

    def test_round_trip_without_index(self, fig1, tmp_path):
        path = tmp_path / "snap.bin"
        info = save_snapshot(fig1, path, include_index=False)
        assert not info.has_index and info.index_labels == 0
        loaded = load_snapshot(path)
        assert not loaded.has_index()
        assert_graphs_equal(fig1, loaded)

    def test_built_but_excluded_index(self, fig1, tmp_path):
        fig1.index()
        path = tmp_path / "snap.bin"
        save_snapshot(fig1, path, include_index=False)
        assert not load_snapshot(path).has_index()

    def test_version_travels(self, fig1, tmp_path):
        fig1.add_edge("A", "Z")
        fig1.remove_edge("A", "Z")
        assert fig1.version == 2  # add (one bump incl. new vertex) + remove
        path = tmp_path / "snap.bin"
        save_snapshot(fig1, path)
        assert load_snapshot(path).version == 2

    def test_int_vertices_round_trip(self, tmp_path):
        pg = load_dataset("acmdl")
        pg.index()
        path = tmp_path / "snap.bin"
        save_snapshot(pg, path)
        loaded = load_snapshot(path)
        assert_graphs_equal(pg, loaded)
        assert_index_equivalent(loaded.index(), pg)

    def test_empty_profile_and_isolated_vertices(self, tmp_path):
        tax = Taxonomy()
        tax.add("X", parent=0)
        g = Graph()
        g.add_vertex("lonely")
        g.add_edge("a", "b")
        pg = ProfiledGraph(g, tax, {"a": [1]})
        path = tmp_path / "snap.bin"
        save_snapshot(pg, path)
        loaded = load_snapshot(path)
        assert_graphs_equal(pg, loaded)
        assert loaded.labels("lonely") == frozenset()

    def test_deterministic_bytes(self, fig1, tmp_path):
        fig1.index()
        one = encode_payload(fig1, fig1.index())
        two = encode_payload(fig1, fig1.index())
        assert one == two
        other = fig1_profiled_graph()
        other.index()
        assert encode_payload(other, other.index()) == one

    def test_save_folds_pending_repairs(self, fig1, tmp_path):
        # A removal is patched into the index as it lands, so the saved
        # index is the same bytes a fresh build would write.
        fig1.index()
        fig1.remove_edge("C", "D")
        assert index_matches_fresh_build(fig1)
        path = tmp_path / "snap.bin"
        save_snapshot(fig1, path)
        loaded = load_snapshot(path)
        assert_index_equivalent(loaded.index(), fig1)

    def test_atomic_save_leaves_no_tmp(self, fig1, tmp_path):
        path = tmp_path / "snap.bin"
        save_snapshot(fig1, path)
        save_snapshot(fig1, path)  # overwrite is fine
        assert [p.name for p in tmp_path.iterdir()] == ["snap.bin"]

    def test_unsupported_vertex_type_refused(self, tmp_path):
        tax = Taxonomy()
        g = Graph()
        g.add_edge((1, 2), (3, 4))
        pg = ProfiledGraph(g, tax, {})
        with pytest.raises(SnapshotError):
            save_snapshot(pg, tmp_path / "snap.bin")

    def test_bool_vertex_refused(self, tmp_path):
        # bool is an int subclass; type() checks must not let it alias 0/1.
        tax = Taxonomy()
        g = Graph()
        g.add_vertex(True)
        pg = ProfiledGraph(g, tax, {})
        with pytest.raises(SnapshotError):
            save_snapshot(pg, tmp_path / "snap.bin")


class TestSnapshotVerification:
    def test_verify_digest_reports_info(self, fig1, tmp_path):
        fig1.index()
        path = tmp_path / "snap.bin"
        written = save_snapshot(fig1, path)
        info = verify_digest(path)
        assert info == written
        assert info.num_vertices == fig1.num_vertices
        assert info.graph_version == fig1.version

    def test_flipped_payload_byte_detected(self, fig1, tmp_path):
        path = tmp_path / "snap.bin"
        save_snapshot(fig1, path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(SnapshotCorruptError, match="digest"):
            load_snapshot(path)
        with pytest.raises(SnapshotCorruptError):
            verify_digest(path)

    @pytest.mark.parametrize("with_index", [True, False])
    def test_mutated_payload_fails_closed(self, fig1, with_index):
        # Bytes from a buggy or hostile writer carry a valid digest: decode
        # must refuse them with a SnapshotError or load a valid graph.
        if with_index:
            fig1.index()
        raw = snapshot_bytes(fig1, include_index=with_index)
        flags, payload = struct.unpack_from("<H", raw, 10)[0], raw[52:]
        rng = random.Random(0)
        loaded = 0
        for _ in range(2000):
            data = bytearray(payload)
            for _ in range(rng.choice((1, 1, 2, 3))):
                data[rng.randrange(len(data))] = rng.randrange(256)
            header = struct.pack("<8sHH32sQ", MAGIC, FORMAT_VERSION, flags,
                                 hashlib.sha256(data).digest(), len(data))
            try:
                pg = load_snapshot_bytes(header + bytes(data))
            except SnapshotError:
                continue
            loaded += 1
            tax = pg.taxonomy
            for labels in pg.all_labels().values():
                assert not labels or tax.is_ancestor_closed(labels)
        assert loaded  # some mutations hit bytes that do not matter

    def test_load_without_verify_skips_digest(self, fig1, tmp_path):
        # verify=False trusts the digest; structural decoding still runs.
        fig1.index()
        path = tmp_path / "snap.bin"
        save_snapshot(fig1, path)
        assert_graphs_equal(fig1, load_snapshot(path, verify=False))

    def test_unknown_format_version_refused(self, fig1, tmp_path):
        path = tmp_path / "snap.bin"
        save_snapshot(fig1, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, len(MAGIC), FORMAT_VERSION + 1)
        path.write_bytes(raw)
        with pytest.raises(SnapshotVersionError, match="version"):
            load_snapshot(path)

    def test_bad_magic_refused(self, fig1, tmp_path):
        path = tmp_path / "snap.bin"
        save_snapshot(fig1, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(raw)
        with pytest.raises(SnapshotCorruptError, match="magic"):
            load_snapshot(path)

    def test_truncated_file_refused(self, fig1, tmp_path):
        path = tmp_path / "snap.bin"
        save_snapshot(fig1, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(path)
        path.write_bytes(raw[:10])
        with pytest.raises(SnapshotCorruptError, match="header"):
            load_snapshot(path)


class TestCLTreeFromArrays:
    def test_reassembly_answers_like_the_original(self):
        pg = fig1_profiled_graph()
        tree = CLTree(pg.graph)
        rows = []
        index_of = {}
        for node in tree.nodes():
            index_of[id(node)] = len(rows)
            parent = index_of[id(node.parent)] if node.parent is not None else None
            rows.append((node.core, parent, list(node.vertices)))
        rebuilt = CLTree.from_arrays(rows)
        for v in pg.vertices():
            assert rebuilt.core_number(v) == tree.core_number(v)
            for k in (1, 2, 3, 4):
                assert rebuilt.kcore_vertices(v, k) == tree.kcore_vertices(v, k)

    def test_empty_rows_give_empty_tree(self):
        tree = CLTree.from_arrays([])
        assert tree.num_vertices == 0
        assert tree.kcore_vertices("q", 1) == frozenset()


# ----------------------------------------------------------------------
# preview
# ----------------------------------------------------------------------
class TestPreviewUpdates:
    def test_matches_real_apply_and_is_pure(self, fig1):
        ops = [
            GraphUpdate("add_edge", "A", "Z"),       # new vertex + edge: 1 bump
            GraphUpdate("add_edge", "A", "Z"),       # duplicate: no-op
            GraphUpdate("add_vertex", "W", labels=["ML"]),
            GraphUpdate("add_vertex", "W"),          # duplicate: no-op
            GraphUpdate("set_profile", "W", labels=["ML"]),  # unchanged: no-op
            GraphUpdate("set_profile", "W", labels=["AI"]),
            GraphUpdate("remove_edge", "A", "Z"),
            GraphUpdate("remove_edge", "A", "Z"),    # already gone: no-op
            GraphUpdate("remove_vertex", "Z"),
        ]
        before = fig1.version
        effective, predicted = preview_updates(fig1, ops)
        assert fig1.version == before  # pure
        for op in ops:
            apply_update(fig1, op)
        assert fig1.version == predicted
        assert predicted == before + effective

    def test_remove_vertex_kills_overlay_edges(self, fig1):
        ops = [
            GraphUpdate("add_edge", "A", "Z"),
            GraphUpdate("remove_vertex", "Z"),
            GraphUpdate("remove_edge", "A", "Z"),  # edge died with Z: no-op
        ]
        effective, predicted = preview_updates(fig1, ops)
        for op in ops:
            apply_update(fig1, op)
        assert fig1.version == predicted

    def test_remove_vertex_hides_base_edges(self, fig1):
        ops = [
            GraphUpdate("remove_vertex", "A"),
            GraphUpdate("add_vertex", "A"),
            # A is back but its old edges are not:
            GraphUpdate("add_edge", "A", "B"),
        ]
        effective, predicted = preview_updates(fig1, ops)
        assert effective == 3
        for op in ops:
            apply_update(fig1, op)
        assert fig1.version == predicted

    def test_validation_errors_surface_before_logging(self, fig1):
        with pytest.raises(VertexNotFoundError):
            preview_updates(fig1, [GraphUpdate("remove_vertex", "missing")])
        with pytest.raises(VertexNotFoundError):
            preview_updates(fig1, [GraphUpdate("set_profile", "missing", labels=[])])
        with pytest.raises(InvalidInputError):
            preview_updates(fig1, [GraphUpdate("add_edge", "A", "A")])


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_and_replay(self, fig1, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        shadow = fig1_profiled_graph()
        batches = [
            [GraphUpdate("add_edge", "A", "Z")],
            [GraphUpdate("set_profile", "Z", labels=["DMS"]),
             GraphUpdate("remove_edge", "C", "D")],
        ]
        for batch in batches:
            _, predicted = preview_updates(fig1, batch)
            wal.append(fig1.version, predicted, batch)
            for op in batch:
                apply_update(fig1, op)
        assert wal.num_records == 2
        assert wal.last_version == fig1.version
        replayed = wal.replay_into(shadow)
        assert replayed == 2
        assert_graphs_equal(fig1, shadow)
        wal.close()

    def test_replay_skips_records_covered_by_snapshot(self, fig1, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(0, 1, [GraphUpdate("add_edge", "A", "Z")])
        wal.append(1, 2, [GraphUpdate("remove_edge", "A", "Z")])
        apply_update(fig1, GraphUpdate("add_edge", "A", "Z"))
        assert fig1.version == 1  # as if restored from a snapshot at v1
        assert wal.replay_into(fig1) == 1
        assert fig1.version == 2
        wal.close()

    def test_replay_refuses_gaps(self, fig1, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(5, 6, [GraphUpdate("add_edge", "A", "Z")])
        with pytest.raises(WalReplayError, match="version"):
            wal.replay_into(fig1)
        wal.close()

    def test_append_refuses_rewinds(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(0, 2, [GraphUpdate("add_edge", 1, 2)])
        with pytest.raises(WalError, match="precedes"):
            wal.append(1, 2, [GraphUpdate("add_edge", 1, 3)])
        with pytest.raises(WalError, match="precedes"):
            wal.append(3, 2, [GraphUpdate("add_edge", 1, 3)])
        wal.close()

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(0, 1, [GraphUpdate("add_edge", 1, 2)])
        wal.append(1, 2, [GraphUpdate("add_edge", 2, 3)])
        wal.close()
        intact = path.read_bytes()
        # Crash mid-append: half a frame of garbage after the good records.
        path.write_bytes(intact + b"\x99\x00\x00\x00XX")
        reopened = WriteAheadLog(path)
        assert reopened.num_records == 2
        assert reopened.dropped_bytes == 6
        assert path.read_bytes() == intact
        # And the reopened log keeps appending cleanly.
        reopened.append(2, 3, [GraphUpdate("add_edge", 3, 4)])
        assert reopened.num_records == 3
        reopened.close()

    def test_corrupt_payload_counts_as_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(0, 1, [GraphUpdate("add_edge", 1, 2)])
        wal.append(1, 2, [GraphUpdate("add_edge", 2, 3)])
        wal.close()
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # scramble the last record's payload
        path.write_bytes(raw)
        reopened = WriteAheadLog(path)
        assert reopened.num_records == 1
        assert reopened.dropped_bytes > 0
        reopened.close()

    def test_corruption_before_the_tail_fails_closed(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for version in range(3):
            wal.append(version, version + 1, [GraphUpdate("add_edge", version, 9)])
        wal.close()
        raw = bytearray(path.read_bytes())
        raw[8 + 10] ^= 0xFF  # payload byte 10 of the first record
        path.write_bytes(raw)
        # Two valid records follow the bad one: this is no torn tail, and
        # truncating would throw them away.
        with pytest.raises(WalCorruptError, match="valid records follow"):
            WriteAheadLog(path)
        assert path.read_bytes() == bytes(raw)

    def test_truncate_clears_everything(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(0, 1, [GraphUpdate("add_edge", 1, 2)])
        wal.truncate()
        assert wal.num_records == 0
        assert wal.last_version is None
        assert path.stat().st_size == 0
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append(0, 1, [GraphUpdate("add_edge", 1, 2)])

    def test_updates_survive_json_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        original = [GraphUpdate("add_vertex", "v", labels=["ML", 3]),
                    GraphUpdate("add_edge", 1, 2)]
        wal.append(0, 2, original)
        wal.close()
        record = WriteAheadLog(tmp_path / "wal.log").records()[0]
        assert list(record.updates) == original


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class TestGraphStore:
    def test_boot_needs_snapshot_or_seed(self, tmp_path):
        with GraphStore(tmp_path) as store:
            with pytest.raises(StorageError):
                store.boot()

    def test_cold_boot_then_warm_boot(self, fig1, tmp_path):
        with GraphStore(tmp_path) as store:
            pg, report = store.boot(fallback=fig1)
            assert report.source == "cold"
            assert report.snapshot_version is None
            pg.index()
            store.snapshot(pg)
        with GraphStore(tmp_path) as store:
            pg2, report2 = store.boot()
            assert report2.source == "snapshot"
            assert report2.index_loaded
            assert_graphs_equal(pg, pg2)

    def test_factory_fallback_only_called_when_cold(self, fig1, tmp_path):
        calls = []

        def factory():
            calls.append(1)
            return fig1_profiled_graph()

        with GraphStore(tmp_path) as store:
            pg, _ = store.boot(fallback=factory)
            assert calls == [1]
            store.snapshot(pg)
        with GraphStore(tmp_path) as store:
            store.boot(fallback=factory)
            assert calls == [1]  # warm boot never built the seed

    def test_snapshot_truncates_wal(self, fig1, tmp_path):
        with GraphStore(tmp_path) as store:
            pg, _ = store.boot(fallback=fig1)
            batch = [GraphUpdate("add_edge", "A", "Z")]
            _, predicted = preview_updates(pg, batch)
            store.wal.append(pg.version, predicted, batch)
            apply_update(pg, batch[0])
            assert store.wal.num_records == 1
            store.snapshot(pg)
            assert store.wal.num_records == 0
        with GraphStore(tmp_path) as store:
            pg2, report = store.boot()
            assert report.replayed_records == 0
            assert pg2.version == 1

    def test_crash_between_snapshot_and_truncate(self, fig1, tmp_path):
        # Simulate: snapshot written, WAL truncate never happened. Replay
        # must skip the stale record instead of double-applying it.
        with GraphStore(tmp_path) as store:
            pg, _ = store.boot(fallback=fig1)
            batch = [GraphUpdate("add_edge", "A", "Z")]
            _, predicted = preview_updates(pg, batch)
            store.wal.append(pg.version, predicted, batch)
            apply_update(pg, batch[0])
            save_snapshot(pg, store.snapshot_path)  # no truncate
        with GraphStore(tmp_path) as store:
            pg2, report = store.boot()
            assert report.replayed_records == 0
            assert pg2.version == 1
            assert pg2.graph.has_edge("A", "Z")

    def test_compact_folds_wal_into_snapshot(self, fig1, tmp_path):
        with GraphStore(tmp_path) as store:
            pg, _ = store.boot(fallback=fig1)
            batch = [GraphUpdate("add_edge", "A", "Z")]
            _, predicted = preview_updates(pg, batch)
            store.wal.append(pg.version, predicted, batch)
            # crash before the in-memory graph ever got snapshotted
        with GraphStore(tmp_path) as store:
            info, report = store.compact(fallback=fig1_profiled_graph)
            assert report.replayed_records == 1
            assert info.graph_version == 1
            assert info.has_index
            assert store.wal.num_records == 0
        with GraphStore(tmp_path) as store:
            pg2, report2 = store.boot()
            assert report2.source == "snapshot"
            assert pg2.graph.has_edge("A", "Z")


# ----------------------------------------------------------------------
# service + gateway wiring
# ----------------------------------------------------------------------
class TestServiceStorage:
    def test_acknowledged_updates_survive_a_new_session(self, fig1, tmp_path):
        service = CommunityService(fig1, storage_dir=tmp_path)
        receipt = service.apply_updates([GraphUpdate("add_edge", "A", "Z")])
        assert receipt.version == 1
        assert service.storage.wal.num_records == 1
        service.close()  # no snapshot: recovery is WAL-only
        reborn = CommunityService(fig1_profiled_graph(), storage_dir=tmp_path)
        assert reborn.boot_report.source == "cold"
        assert reborn.boot_report.replayed_records == 1
        assert reborn.pg.version == 1
        assert reborn.pg.graph.has_edge("A", "Z")
        reborn.close()

    @pytest.mark.parametrize(
        "update",
        [
            GraphUpdate("add_edge", "A", "C"),
            GraphUpdate("remove_edge", "B", "D"),
            GraphUpdate("add_vertex", "Z", labels=["ML"]),
            GraphUpdate("remove_vertex", "D"),  # its incident edges go with it
            GraphUpdate("set_profile", "E", labels=["ML"]),
        ],
        ids=lambda update: update.op,
    )
    def test_every_op_advances_version_as_previewed(self, fig1, tmp_path, update):
        service = CommunityService(fig1, storage_dir=tmp_path)
        service.warm()
        if update.op == "remove_vertex":
            assert service.pg.graph.degree(update.u) > 1
        base = service.pg.version
        _, predicted = preview_updates(service.pg, [update])
        receipt = service.apply_updates([update])  # IntegrityError on a mismatch
        assert receipt.version - base == predicted - base == 1
        service.close()
        reborn = CommunityService(fig1_profiled_graph(), storage_dir=tmp_path)
        assert reborn.boot_report.replayed_records == 1
        assert reborn.pg.version == receipt.version
        reborn.close()

    def test_snapshot_checkpoint_makes_boot_warm(self, fig1, tmp_path):
        service = CommunityService(fig1, storage_dir=tmp_path)
        service.apply_updates([GraphUpdate("add_edge", "A", "Z")])
        service.warm()
        info = service.snapshot()
        assert info.graph_version == 1
        assert service.storage.wal.num_records == 0
        service.close()
        reborn = CommunityService(fig1_profiled_graph(), storage_dir=tmp_path)
        assert reborn.boot_report.source == "snapshot"
        assert reborn.boot_report.index_loaded
        assert reborn.pg.version == 1
        reborn.close()

    def test_rejected_batch_is_not_logged(self, fig1, tmp_path):
        service = CommunityService(fig1, storage_dir=tmp_path)
        with pytest.raises(VertexNotFoundError):
            service.apply_updates([
                GraphUpdate("add_edge", "A", "Z"),
                GraphUpdate("remove_vertex", "missing"),
            ])
        assert service.storage.wal.num_records == 0
        assert service.pg.version == 0  # nothing half-applied either
        service.close()

    def test_memory_only_session_has_no_storage(self, fig1):
        service = CommunityService(fig1)
        assert service.storage is None
        assert service.boot_report is None
        with pytest.raises(InvalidInputError, match="storage_dir"):
            service.snapshot()

    def test_adopted_explorer_cannot_take_storage_dir(self, fig1, tmp_path):
        explorer = CommunityExplorer(fig1)
        with pytest.raises(InvalidInputError, match="cold seed"):
            CommunityService(explorer, storage_dir=tmp_path)


class TestGatewayDurability:
    def test_drain_checkpoints_the_graph(self, fig1, tmp_path):
        service = CommunityService(fig1, storage_dir=tmp_path)
        with CommunityGateway(service, port=0) as gateway:
            gateway.service.apply_updates([GraphUpdate("add_edge", "A", "Z")])
        assert (tmp_path / "snapshot.bin").exists()
        assert load_snapshot(tmp_path / "snapshot.bin").version == 1

    def test_drain_without_storage_warns_loudly(self, fig1, capsys):
        with CommunityGateway(fig1, port=0) as gateway:
            gateway.service.apply_updates([GraphUpdate("add_edge", "A", "Z")])
        err = capsys.readouterr().err
        assert "WARNING" in err and "discarding 1 applied update" in err
        assert "--data-dir" in err

    def test_no_warning_when_nothing_was_applied(self, fig1, capsys):
        with CommunityGateway(fig1, port=0):
            pass
        assert "WARNING" not in capsys.readouterr().err

    def test_stats_surface_the_storage_block(self, fig1, tmp_path):
        service = CommunityService(fig1, storage_dir=tmp_path)
        with CommunityGateway(service, port=0) as gateway:
            block = gateway.stats()["storage"]
            assert block["directory"] == str(tmp_path)
            assert block["boot"]["source"] == "cold"
            assert gateway.health()["durable"] is True
        gateway2 = CommunityGateway(fig1_profiled_graph(), port=0)
        assert gateway2.stats()["storage"] is None


# ----------------------------------------------------------------------
# format-compatibility gate (golden file)
# ----------------------------------------------------------------------
class TestGoldenSnapshot:
    """The checked-in ``tests/data/snapshot_v1.bin`` pins format version 1.

    Two contracts: (1) the golden file must keep loading — old snapshots
    on disk stay readable; (2) while ``FORMAT_VERSION == 1``, encoding
    the same graph must reproduce the golden bytes exactly — any byte-
    level change to the format must bump the header version (and get a
    new golden + migration story) instead of silently shifting.
    """

    def golden_graph(self) -> ProfiledGraph:
        pg = fig1_profiled_graph()
        pg.index()
        return pg

    def test_golden_still_loads(self, fig1):
        loaded = load_snapshot(GOLDEN)
        assert_graphs_equal(fig1, loaded)
        assert loaded.has_index()
        assert_index_equivalent(loaded.index(), fig1)

    def test_golden_digest_verifies(self):
        info = verify_digest(GOLDEN)
        assert info.format_version == 1

    def test_version_1_bytes_are_frozen(self, tmp_path):
        if FORMAT_VERSION != 1:
            pytest.skip("format moved past v1; the golden pins v1 loads only")
        pg = self.golden_graph()
        fresh = tmp_path / "fresh.bin"
        save_snapshot(pg, fresh)
        assert fresh.read_bytes() == GOLDEN.read_bytes(), (
            "snapshot v1 byte encoding changed — bump FORMAT_VERSION in "
            "repro/storage/snapshot.py (loaders must refuse what they can't "
            "read) and add a new golden alongside this one"
        )
