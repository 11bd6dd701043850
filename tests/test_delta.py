"""Tests for live-graph edge deltas: text format, segments, overlay, CLI.

Covers the delta stack end to end: the ``repro ingest`` text format, the
appended ``.rgsnap`` delta segments (checksums, crash safety, corruption
rejection), the CSR overlay semantics (multigraph one-occurrence removal,
new nodes, emptied labels), ``apply_delta`` on hydrated and unhydrated
databases, and the compact fold that turns base+segments back into a fresh
base.  The satellite regressions — snapshot→snapshot compaction must not
hydrate, and ``compact --stats`` must reuse a preloaded stats block — live
here too.
"""

import struct

import pytest

from repro.core.alphabet import Alphabet
from repro.core.errors import AlphabetError
from repro.graphdb.cache import cache_stats, database_statistics
from repro.graphdb.database import GraphDatabase
from repro.graphdb.delta import (
    DeltaFormatError,
    EdgeDelta,
    load_delta_file,
    overlay_csr,
    parse_delta_text,
)
from repro.graphdb.io import GraphFormatError
from repro.graphdb.storage import (
    FLAG_DELTA,
    SnapshotDatabase,
    append_delta,
    dump_snapshot_bytes,
    load_snapshot,
    load_snapshot_bytes,
    save_snapshot,
)

from helpers import assert_same_database, edge_multiset, rebuilt_with_delta

BASE_EDGES = [
    ("n1", "a", "n2"),
    ("n2", "a", "n3"),
    ("n1", "b", "n3"),
    ("n3", "c", "n4"),
    ("n1", "a", "n2"),  # multigraph duplicate
]


def base_db() -> GraphDatabase:
    db = GraphDatabase.from_edges(BASE_EDGES)
    db.add_node("isolated")
    return db


def snapshot_path(tmp_path, db=None):
    path = tmp_path / "base.rgsnap"
    save_snapshot(db if db is not None else base_db(), path)
    return path


class TestTextFormat:
    def test_parse_operations_comments_and_shorthand(self):
        delta = parse_delta_text(
            "# header comment\n"
            "\n"
            "+ n1 a n9\n"
            "n9 b n1\n"  # '+' is the default
            "- n1 b n3\n"
        )
        assert delta.additions == (("n1", "a", "n9"), ("n9", "b", "n1"))
        assert delta.removals == (("n1", "b", "n3"),)
        assert bool(delta)
        assert not EdgeDelta()

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(DeltaFormatError, match="line 2"):
            parse_delta_text("+ n1 a n2\n+ n1 a\n")
        with pytest.raises(DeltaFormatError, match="single symbols"):
            parse_delta_text("n1 ab n2\n")

    def test_load_delta_file(self, tmp_path):
        path = tmp_path / "ops.delta"
        path.write_text("+ x a y\n- x a y\n", encoding="utf-8")
        assert load_delta_file(path) == EdgeDelta(
            [("x", "a", "y")], [("x", "a", "y")]
        )
        with pytest.raises(DeltaFormatError, match="cannot read"):
            load_delta_file(tmp_path / "missing.delta")

    def test_file_parse_errors_name_the_file(self, tmp_path):
        path = tmp_path / "ops.delta"
        path.write_text("bogus line here extra\n", encoding="utf-8")
        with pytest.raises(DeltaFormatError, match="ops.delta"):
            load_delta_file(path)


class TestDeltaSegments:
    def test_append_and_load_round_trip(self, tmp_path):
        path = snapshot_path(tmp_path)
        delta = EdgeDelta([("n4", "a", "n5")], [("n1", "b", "n3")])
        append_delta(path, delta)
        loaded = load_snapshot(path)
        assert loaded.applied_deltas == 1
        expected = rebuilt_with_delta(base_db(), delta.additions, delta.removals)
        assert_same_database(expected, loaded)

    def test_multiple_segments_apply_in_order(self, tmp_path):
        path = snapshot_path(tmp_path)
        append_delta(path, EdgeDelta([("n4", "a", "n5")], ()))
        # The second segment removes the edge the first one added: ordering
        # is observable, not just the union.
        append_delta(path, EdgeDelta([("n5", "b", "n6")], [("n4", "a", "n5")]))
        loaded = load_snapshot(path)
        assert loaded.applied_deltas == 2
        assert ("n5", "b", "n6") in {tuple(edge) for edge in loaded.edges}
        assert not loaded.has_edge("n4", "a", "n5")
        assert "n5" in loaded.nodes, "nodes introduced by a folded delta survive"

    def test_segments_loads_a_prefix_of_the_log(self, tmp_path):
        path = snapshot_path(tmp_path)
        first = EdgeDelta([("n4", "a", "n5")], ())
        append_delta(path, first)
        append_delta(path, EdgeDelta([("n5", "b", "n6")], [("n4", "a", "n5")]))
        base = load_snapshot(path, segments=0)
        assert (base.version, base.applied_deltas) == (0, 0)
        assert_same_database(base_db(), base)
        assert cache_stats(base)["csr"]["preloaded"] == 1
        one = load_snapshot(path, segments=1)
        assert (one.version, one.applied_deltas) == (1, 1)
        assert_same_database(
            rebuilt_with_delta(base_db(), first.additions, first.removals), one
        )
        assert_same_database(load_snapshot(path), load_snapshot(path, segments=2))
        with pytest.raises(GraphFormatError, match="holds 2"):
            load_snapshot(path, segments=3)
        with pytest.raises(GraphFormatError, match="holds 0"):
            load_snapshot_bytes(dump_snapshot_bytes(base_db()), segments=1)

    def test_segments_past_the_limit_are_never_read(self, tmp_path):
        # A segment still being appended (cut short here) must not stop a
        # reader of an earlier version.
        path = snapshot_path(tmp_path)
        append_delta(path, EdgeDelta([("n4", "a", "n5")], ()))
        append_delta(path, EdgeDelta([("n5", "b", "n6")], ()))
        blob = path.read_bytes()[:-4]
        with pytest.raises(GraphFormatError, match="truncated"):
            load_snapshot_bytes(blob)
        assert load_snapshot_bytes(blob, segments=1).has_edge("n4", "a", "n5")

    def test_flag_delta_is_set_only_after_append(self, tmp_path):
        path = snapshot_path(tmp_path)
        flags_before = struct.unpack_from("<H", path.read_bytes(), 10)[0]
        assert not flags_before & FLAG_DELTA
        append_delta(path, EdgeDelta([("n4", "a", "n5")], ()))
        flags_after = struct.unpack_from("<H", path.read_bytes(), 10)[0]
        assert flags_after & FLAG_DELTA

    def test_corrupted_segment_rejected(self, tmp_path):
        path = snapshot_path(tmp_path)
        append_delta(path, EdgeDelta([("n4", "a", "n5")], ()))
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF  # flip a byte inside the segment payload
        with pytest.raises(GraphFormatError, match="checksum"):
            load_snapshot_bytes(bytes(blob))

    def test_truncated_segment_rejected(self, tmp_path):
        path = snapshot_path(tmp_path)
        append_delta(path, EdgeDelta([("n4", "a", "n5")], ()))
        blob = path.read_bytes()
        with pytest.raises(GraphFormatError, match="truncated"):
            load_snapshot_bytes(blob[:-4])

    def test_flag_without_segments_rejected(self, tmp_path):
        path = snapshot_path(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 10, FLAG_DELTA)
        with pytest.raises(GraphFormatError, match="delta"):
            load_snapshot_bytes(bytes(blob))

    def test_crash_safety_unannounced_trailing_bytes(self, tmp_path):
        """A crash between segment write and flag flip must stay loadable.

        Trailing bytes the header does not announce are ignored by the
        loader (the pre-delta readers already did this) and truncated by
        the next successful append.
        """
        path = snapshot_path(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x00garbage from a torn append")
        loaded = load_snapshot(path)  # flag unset -> trailing bytes ignored
        assert loaded.applied_deltas == 0
        assert_same_database(base_db(), loaded)
        append_delta(path, EdgeDelta([("n4", "a", "n5")], ()))
        repaired = load_snapshot(path)
        assert repaired.applied_deltas == 1
        assert repaired.has_edge("n4", "a", "n5")

    def test_append_refuses_invalid_base(self, tmp_path):
        path = tmp_path / "not_a_snapshot.rgsnap"
        path.write_bytes(b"plainly not a snapshot header")
        with pytest.raises(GraphFormatError):
            append_delta(path, EdgeDelta([("x", "a", "y")], ()))


class TestOverlaySemantics:
    def overlay(self, additions=(), removals=()):
        db = load_snapshot_bytes(dump_snapshot_bytes(base_db()))
        db.apply_delta(additions, removals)
        return db

    def test_removal_drops_one_multigraph_occurrence(self):
        db = self.overlay(removals=[("n1", "a", "n2")])
        assert db.has_edge("n1", "a", "n2"), "one duplicate must survive"
        assert db.num_edges() == len(BASE_EDGES) - 1
        both_gone = self.overlay(
            removals=[("n1", "a", "n2"), ("n1", "a", "n2")]
        )
        assert not both_gone.has_edge("n1", "a", "n2")

    def test_additions_introduce_new_nodes(self):
        db = self.overlay(additions=[("n4", "a", "brand_new")])
        assert "brand_new" in db.nodes
        assert db.has_edge("n4", "a", "brand_new")

    def test_emptied_label_disappears_like_a_rebuild(self):
        db = self.overlay(removals=[("n3", "c", "n4")])
        rebuilt = rebuilt_with_delta(base_db(), (), [("n3", "c", "n4")])
        assert sorted(db.alphabet()) == sorted(rebuilt.alphabet())
        assert "c" not in set(db.alphabet())

    def test_removing_missing_edge_is_refused(self):
        with pytest.raises(DeltaFormatError):
            self.overlay(removals=[("n1", "a", "n4")])
        with pytest.raises(DeltaFormatError, match="unknown node"):
            self.overlay(removals=[("ghost", "a", "n1")])
        with pytest.raises(DeltaFormatError):
            # More occurrences removed than the multigraph holds.
            self.overlay(
                removals=[("n1", "b", "n3"), ("n1", "b", "n3")]
            )

    def test_removing_an_edge_added_by_the_same_delta_is_an_error(self):
        with pytest.raises(DeltaFormatError):
            self.overlay(
                additions=[("n1", "c", "n9")], removals=[("n1", "c", "n9")]
            )

    def test_addition_labels_are_validated(self):
        with pytest.raises(AlphabetError):
            self.overlay(additions=[("n1", "ab", "n2")])
        constrained = SnapshotDatabase(
            ["x", "y"],
            {"a": ([0, 1, 1], [1])},
            {"a": ([0, 0, 1], [0])},
            alphabet=Alphabet("a"),
        )
        with pytest.raises(AlphabetError):
            constrained.apply_delta(additions=[("x", "z", "y")])

    def test_version_bumps_and_caches_rekey(self):
        db = load_snapshot_bytes(dump_snapshot_bytes(base_db()))
        version = db.version
        db.apply_delta(additions=[("n4", "a", "n5")])
        assert db.version == version + 1
        assert db.snapshot_csr.version == db.version

    def test_hydrated_and_overlay_paths_agree(self):
        additions = [("n4", "a", "n5"), ("n1", "a", "n2")]
        removals = [("n1", "a", "n2"), ("n3", "c", "n4")]
        lazy = load_snapshot_bytes(dump_snapshot_bytes(base_db()))
        eager = load_snapshot_bytes(dump_snapshot_bytes(base_db()))
        assert len(eager.edges) == len(BASE_EDGES)  # forces hydration
        assert eager.hydrated and not lazy.hydrated
        lazy.apply_delta(additions, removals)
        eager.apply_delta(additions, removals)
        assert_same_database(lazy, eager)

    def test_hydrated_apply_is_all_or_nothing(self):
        db = load_snapshot_bytes(dump_snapshot_bytes(base_db()))
        assert len(db.edges) == len(BASE_EDGES)  # forces hydration
        before = edge_multiset(db)
        with pytest.raises(DeltaFormatError):
            db.apply_delta(
                additions=[("n4", "a", "n5")],
                removals=[("n1", "b", "n3"), ("n1", "b", "n3")],
            )
        assert edge_multiset(db) == before, "failed delta must not half-apply"
        assert db.applied_deltas == 0

    def test_overlay_shares_untouched_label_arrays(self):
        db = load_snapshot_bytes(dump_snapshot_bytes(base_db()))
        base_csr = db.snapshot_csr
        overlay = overlay_csr(base_csr, [("n1", "a", "n1")], (), db.version + 1)
        # Label 'b' is untouched and no new nodes appeared: both the indptr
        # and the indices arrays must be the very objects of the base CSR.
        assert overlay.forward["b"][0] is base_csr.forward["b"][0]
        assert overlay.forward["b"][1] is base_csr.forward["b"][1]
        grown = overlay_csr(base_csr, [("n1", "a", "fresh")], (), db.version + 1)
        # With a new node the indptr must be extended, but the indices array
        # is still shared as-is.
        assert grown.forward["b"][1] is base_csr.forward["b"][1]
        assert len(grown.forward["b"][0]) == grown.num_nodes + 1


class TestCompactFold:
    def folded(self, tmp_path):
        path = snapshot_path(tmp_path)
        append_delta(path, EdgeDelta([("n4", "a", "n5")], [("n1", "b", "n3")]))
        append_delta(path, EdgeDelta([("n5", "b", "n1")], ()))
        return load_snapshot(path)

    def test_fold_produces_a_fresh_base(self, tmp_path):
        loaded = self.folded(tmp_path)
        assert loaded.applied_deltas == 2
        refolded = load_snapshot_bytes(dump_snapshot_bytes(loaded))
        assert refolded.applied_deltas == 0, "the fold must start a fresh base"
        assert_same_database(loaded, refolded)

    def test_fold_does_not_hydrate(self, tmp_path):
        """Satellite regression: CSR→CSR compaction must stay hydration-free."""
        loaded = self.folded(tmp_path)
        dump_snapshot_bytes(loaded, statistics=database_statistics(loaded))
        assert not loaded.hydrated, (
            "compacting a snapshot forced the per-edge dictionary indexes"
        )
        counters = cache_stats(loaded)["csr"]
        assert counters["misses"] == 0, "the fold rebuilt the CSR arrays"

    def test_loader_preloads_each_overlay(self, tmp_path):
        loaded = self.folded(tmp_path)
        counters = cache_stats(loaded)["csr"]
        assert counters["preloaded"] == 2, "each applied segment seeds its overlay"
        assert counters["misses"] == 0

    def test_stats_block_reused_when_graph_unchanged(self, tmp_path):
        """Satellite regression: ``compact --stats`` on an unchanged snapshot
        must reuse the preloaded statistics block, not recompute it."""
        path = tmp_path / "stats.rgsnap"
        db = base_db()
        save_snapshot(db, path, statistics=database_statistics(db))
        loaded = load_snapshot(path)
        statistics = database_statistics(loaded)
        counters = cache_stats(loaded)["stats"]
        assert counters["preloaded"] == 1
        assert counters["misses"] == 0, "the preloaded stats block was recomputed"
        assert statistics.version == loaded.version
        assert not loaded.hydrated

    def test_delta_snapshot_skips_the_stale_base_stats(self, tmp_path):
        """A stats block describes the base; after deltas it must not be
        served for the mutated graph."""
        path = tmp_path / "stats.rgsnap"
        db = base_db()
        save_snapshot(db, path, statistics=database_statistics(db))
        append_delta(path, EdgeDelta([("n4", "a", "n5")], ()))
        loaded = load_snapshot(path)
        statistics = database_statistics(loaded)
        assert cache_stats(loaded)["stats"]["preloaded"] == 0
        assert statistics.version == loaded.version
        assert statistics.num_edges == loaded.num_edges()
