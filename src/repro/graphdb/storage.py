"""Persistent graph snapshots: the mmap-able binary ``.rgsnap`` format.

The text formats of :mod:`repro.graphdb.io` pay a per-edge parsing cost on
every cold start, and the CSR adjacency arrays that PR 3 made the kernel's
working representation are thrown away and rebuilt from scratch each time a
shard restarts.  An ``.rgsnap`` snapshot stores exactly what a warm process
holds in memory — the dense node-id table, the label dictionary and the
label-grouped forward **and** reversed ``indptr``/``indices`` CSR arrays —
behind a schema-versioned, checksummed header, so loading is an ``mmap``
plus a handful of ``memoryview`` casts instead of a parse-and-rebuild.

File layout (all integers little-endian, array sections 4-byte aligned)::

    header   magic ``\\x93RGSNAP\\0`` · schema u16 · flags u16 · itemsize u32
             num_nodes u64 · num_edges u64 · num_labels u32
             payload crc32 u32 · payload length u64
    payload  name lengths  u32[num_nodes]     node-id table: node ``i``'s
             name blob     utf-8, padded        name, in dense-id order
             label lengths u32[num_labels]    label dictionary (sorted)
             label blob    utf-8, padded
             edge counts   u32[num_labels]    arcs per label
             per label     fwd indptr u32[n+1] · fwd indices u32[count]
                           bwd indptr u32[n+1] · bwd indices u32[count]
    optional sections, gated by header flag bits:
             FLAG_STATS    stats length u32 · statistics blob, padded
                           (:meth:`repro.graphdb.stats.GraphStatistics.to_payload`)
    delta    zero or more edge-delta segments appended **after** the payload
    segments (``FLAG_DELTA``), each carrying its own checksum:
             magic ``DLT1`` · add count u32 · remove count u32
             segment crc32 u32 · segment payload length u64
             adds    lengths u32[3·count] · utf-8 blob, padded
             removes lengths u32[3·count] · utf-8 blob, padded
             (``source label target`` string triples, removals matched
             against the pre-delta graph — see :mod:`repro.graphdb.delta`)

Schema guarantees: the magic bytes never change; ``schema_version`` is
bumped whenever the payload layout does, and a reader refuses versions newer
than it knows (old snapshots keep loading as the format evolves, never the
reverse, silently).  Optional trailing sections are announced by header
*flag* bits instead of a schema bump: a flags-0 snapshot (every file written
before the section existed) loads unchanged, while unknown flag bits — a
future writer this reader cannot interpret — are refused loudly.  The crc32
covers the whole payload, so a flipped bit or a truncated file fails loudly
with :class:`~repro.graphdb.io.GraphFormatError` instead of producing a
subtly wrong graph.

Edge-delta segments (``FLAG_DELTA``) make the snapshot a **live graph**:
:func:`append_delta` appends a checksummed segment and then flips the
header flag bit — the base payload (and its crc) is never rewritten, so an
interrupted append leaves either a loadable old file (flag not yet set;
unannounced trailing bytes are ignored and reclaimed by the next append) or
a loadable new one.  Loading applies the segments in order through
:meth:`SnapshotDatabase.apply_delta`, so the served graph is the base CSR ∪
additions ∖ removals at a delta-proportional cost; ``repro compact`` on a
delta-bearing snapshot folds everything back into a fresh flags-0 base.

Loading constructs a :class:`SnapshotDatabase`: its node set is populated
eagerly (cheap, one string table), its CSR adjacency is wrapped **directly
over the mmapped array sections** via :meth:`CsrAdjacency.from_arrays` and
pre-seeded into the shared :class:`~repro.graphdb.cache.ReachabilityIndex`
(``cache_stats()['csr']['preloaded']``), and the per-edge dictionary indexes
that only the oracle kernels and mutation need are *hydrated lazily* on
first touch — the CSR-kernel hot path answers its first query without ever
materialising them.
"""

from __future__ import annotations

import mmap
import struct
import sys
import zlib
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.alphabet import Alphabet
from repro.core.errors import AlphabetError
from repro.graphdb.cache import preload_csr, preload_statistics, reachability_index
from repro.graphdb.database import Edge, GraphDatabase, Node
from repro.graphdb.delta import DeltaFormatError, EdgeDelta, Triple, overlay_csr
from repro.graphdb.io import SNAPSHOT_MAGIC, GraphFormatError
from repro.graphdb.paths import CsrAdjacency
from repro.graphdb.stats import (
    GraphStatistics,
    StatsFormatError,
    UnsupportedStatsVersion,
)

PathLike = Union[str, Path]

#: Bumped whenever the payload layout changes; readers refuse newer versions.
SCHEMA_VERSION = 1

#: Header flag: the payload carries an optional statistics section after the
#: CSR arrays (see :mod:`repro.graphdb.stats`).
FLAG_STATS = 1 << 0

#: Header flag: checksummed edge-delta segments follow the payload (see
#: :mod:`repro.graphdb.delta` and :func:`append_delta`).
FLAG_DELTA = 1 << 1

#: Every flag bit this reader understands; unknown bits are refused.
_KNOWN_FLAGS = FLAG_STATS | FLAG_DELTA

# magic 8s · schema u16 · flags u16 · itemsize u32 · num_nodes u64 ·
# num_edges u64 · num_labels u32 · payload crc32 u32 · payload length u64
_HEADER = struct.Struct("<8sHHIQQIIQ")

#: Byte offset of the header ``flags`` field (magic 8s · schema u16), used
#: by :func:`append_delta` to announce a freshly appended segment.
_FLAGS_OFFSET = 10

# Per-segment delta header: magic 4s · add count u32 · remove count u32 ·
# segment payload crc32 u32 · segment payload length u64 (24 bytes, aligned).
_DELTA_MAGIC = b"DLT1"
_DELTA_HEADER = struct.Struct("<4sIIIQ")

#: The array typecode with a 4-byte item on this platform (``None`` on
#: exotic builds, which fall back to ``struct`` decoding).
_TYPECODE = next((code for code in ("I", "L") if array(code).itemsize == 4), None)

_LITTLE_ENDIAN = sys.byteorder == "little"


def _aligned(length: int) -> int:
    """``length`` rounded up to the next 4-byte boundary."""
    return (length + 3) & ~3


def _pack_u32(values: Iterable[int]) -> bytes:
    """Serialise a u32 sequence little-endian (4-byte aligned by nature)."""
    if _TYPECODE is None:  # pragma: no cover - exotic platforms only
        values = list(values)
        return struct.pack(f"<{len(values)}I", *values)
    packed = array(_TYPECODE, values)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        packed.byteswap()
    return packed.tobytes()


def _pack_blob(blob: bytes) -> bytes:
    """A byte blob padded to a 4-byte boundary so array sections stay cast-able."""
    return blob + b"\x00" * (_aligned(len(blob)) - len(blob))


def _read_u32(payload: memoryview, offset: int, count: int) -> Tuple[Sequence[int], int]:
    """One u32 array section at ``offset``; returns ``(values, next offset)``.

    On little-endian hosts the section is returned as a zero-copy
    ``memoryview`` cast — the values live in the mmapped file, not on the
    heap.  The fallback decodes into an :class:`array.array`.
    """
    end = offset + 4 * count
    if end > len(payload):
        raise GraphFormatError(
            "truncated snapshot: an array section runs past the payload"
        )
    chunk = payload[offset:end]
    if _LITTLE_ENDIAN and _TYPECODE is not None:
        return chunk.cast(_TYPECODE), end
    decoded = array(_TYPECODE or "I")  # pragma: no cover - big-endian hosts only
    decoded.frombytes(bytes(chunk))  # pragma: no cover
    if not _LITTLE_ENDIAN:  # pragma: no cover
        decoded.byteswap()
    return decoded, end  # pragma: no cover


def _validate_csr_section(indptr, indices, num_nodes: int, count: int, label: str) -> None:
    """Semantic checks of one ``indptr``/``indices`` pair.

    The crc32 only proves the payload is what the writer wrote; a buggy or
    foreign writer could still emit out-of-range node ids or a
    non-monotonic ``indptr``, which would surface later as a raw
    ``IndexError`` deep in the kernel — or worse, as silently dropped
    edges.  The checks run at C speed (``tolist`` + ``sorted``/``max``), so
    they cost a small fraction of the text-parse time they replace.
    """
    offsets = indptr.tolist() if hasattr(indptr, "tolist") else list(indptr)
    if offsets[0] != 0 or offsets[-1] != count or offsets != sorted(offsets):
        raise GraphFormatError(
            f"inconsistent snapshot: malformed indptr array for label {label!r}"
        )
    if count:
        values = indices.tolist() if hasattr(indices, "tolist") else list(indices)
        if max(values) >= num_nodes:
            raise GraphFormatError(
                f"inconsistent snapshot: node id out of range in the "
                f"{label!r} index arrays"
            )


def _read_strings(
    payload: memoryview, offset: int, count: int
) -> Tuple[List[str], int]:
    """A length-prefixed UTF-8 string table section; returns ``(strings, next)``."""
    lengths, offset = _read_u32(payload, offset, count)
    total = sum(lengths)
    end = offset + total
    if end > len(payload):
        raise GraphFormatError("truncated snapshot: a string blob runs past the payload")
    blob = bytes(payload[offset:end])
    strings: List[str] = []
    position = 0
    try:
        for length in lengths:
            strings.append(blob[position : position + length].decode("utf-8"))
            position += length
    except UnicodeDecodeError as error:
        raise GraphFormatError(f"snapshot string table is not valid UTF-8: {error}") from error
    return strings, offset + _aligned(total)


# ---------------------------------------------------------------------------
# Snapshot-backed database
# ---------------------------------------------------------------------------


def _unmatched_removals(
    db: GraphDatabase, removals: Sequence[Triple]
) -> Optional[Triple]:
    """The first removal a hydrated graph holds too few occurrences of.

    Multiset semantics: each removal consumes one occurrence, so removing a
    parallel duplicate twice is fine exactly when two occurrences exist.
    Only called on hydrated databases — unhydrated snapshots validate inside
    :func:`repro.graphdb.delta.overlay_csr` instead.
    """
    by_label: Dict[str, "Counter[Tuple[Node, Node]]"] = {}
    for source, label, target in removals:
        by_label.setdefault(label, Counter())[(source, target)] += 1
    for label, needed in by_label.items():
        available = Counter(db.edges_by_label(label))
        for (source, target), count in needed.items():
            if available.get((source, target), 0) < count:
                return (source, label, target)
    return None


class SnapshotDatabase(GraphDatabase):
    """A database loaded from a snapshot, with lazily hydrated edge indexes.

    The node set and the CSR adjacency (wrapped over the snapshot's array
    sections) exist from construction — everything the CSR kernel touches.
    The per-node dictionary indexes (``successors`` …), the :class:`Edge`
    list and the O(1) membership set are only built when something actually
    asks for them: the oracle kernels, mutation, or the text serialisers.
    Hydration replays the stored arrays through the bulk ingest path without
    bumping the version counter, so the preloaded CSR snapshot (and every
    cache keyed by the version) stays valid across it.
    """

    __slots__ = ("_snapshot_csr", "_hydrated", "_snapshot_buffer", "_applied_deltas")

    def __init__(
        self,
        nodes: Sequence[str],
        forward: Dict[str, Tuple[Sequence[int], Sequence[int]]],
        backward: Dict[str, Tuple[Sequence[int], Sequence[int]]],
        alphabet: Optional[Alphabet] = None,
        buffer: object = None,
    ):
        super().__init__(alphabet)
        self._nodes.update(nodes)
        # The CSR snapshot is stamped with this (fresh) database's version,
        # so ReachabilityIndex.csr() accepts it as current once preloaded.
        self._snapshot_csr = CsrAdjacency.from_arrays(
            self._version, nodes, forward, backward
        )
        self._hydrated = False
        self._applied_deltas = 0
        # Keeps the mmap (or bytes) owning the array sections alive for
        # exactly as long as the database that indexes into them.
        self._snapshot_buffer = buffer

    # -- hydration ---------------------------------------------------------------

    @property
    def hydrated(self) -> bool:
        """Whether the per-edge dictionary indexes have been materialised."""
        return self._hydrated

    @property
    def snapshot_csr(self) -> CsrAdjacency:
        """The CSR adjacency wrapped over the snapshot's array sections."""
        return self._snapshot_csr

    @property
    def applied_deltas(self) -> int:
        """How many edge-delta batches have been applied overlay-style."""
        return self._applied_deltas

    # -- live mutation (delta-proportional, hydration-free) -----------------------

    def apply_delta(
        self, additions: Sequence[Triple] = (), removals: Sequence[Triple] = ()
    ) -> None:
        """Apply one edge-delta batch: removals first, then additions.

        On an unhydrated snapshot this is the **delta-proportional refresh
        path**: the current CSR (base or a previous overlay) is merged with
        the delta via :func:`repro.graphdb.delta.overlay_csr` — untouched
        labels keep their zero-copy arrays — the version counter is bumped
        so every version-keyed cache invalidates, and the overlay is
        pre-seeded into the shared reachability index so the next query
        finds it in place instead of hydrating the dictionary indexes and
        rebuilding from the edge list.  A later :meth:`_hydrate` replays
        the overlay, so the dictionary views match the mutated graph.

        On a hydrated database the same batch routes through
        :meth:`remove_edge`/:meth:`add_edge` (validated all-or-nothing
        first), keeping both representations semantically identical.

        Raises :class:`~repro.graphdb.delta.DeltaFormatError` when a
        removal references an edge occurrence the live graph does not hold,
        and the usual :class:`~repro.core.errors.AlphabetError` for
        malformed addition labels.
        """
        additions = tuple((source, label, target) for source, label, target in additions)
        removals = tuple((source, label, target) for source, label, target in removals)
        for _source, label, _target in additions:
            if not isinstance(label, str) or len(label) != 1:
                raise AlphabetError(
                    f"edge labels must be single symbols, got {label!r}"
                )
            if self._alphabet is not None and label not in self._alphabet:
                raise AlphabetError(
                    f"label {label!r} is not in the declared alphabet"
                )
        if self._hydrated:
            missing = _unmatched_removals(self, removals)
            if missing is not None:
                source, label, target = missing
                raise DeltaFormatError(
                    f"delta removes more occurrences of "
                    f"{source!r} -{label}-> {target!r} than the graph holds"
                )
            for source, label, target in removals:
                self.remove_edge(source, label, target)
            for source, label, target in additions:
                self.add_edge(source, label, target)
            self._applied_deltas += 1
            return
        overlay = overlay_csr(
            self._snapshot_csr, additions, removals, self._version + 1
        )
        for source, _label, target in additions:
            self._nodes.add(source)
            self._nodes.add(target)
        self._version += 1
        self._snapshot_csr = overlay
        self._applied_deltas += 1
        # Seed the overlay exactly like a storage-loaded CSR: the next
        # query's cache lookup hits it instead of paying a full rebuild.
        preload_csr(self, overlay)

    def _hydrate(self) -> None:
        if self._hydrated:
            return
        csr = self._snapshot_csr
        nodes = csr.nodes

        def triples() -> Iterator[Tuple[Node, str, Node]]:
            for label in sorted(csr.forward):
                indptr, indices = csr.forward[label]
                for source_id in range(csr.num_nodes):
                    source = nodes[source_id]
                    for position in range(indptr[source_id], indptr[source_id + 1]):
                        yield source, label, nodes[indices[position]]

        try:
            # lint-allow: RA104 (this IS the one deliberate hydration point: lazy materialisation of the dictionary indexes from the CSR arrays)
            self._ingest_edges(triples())
        except BaseException:
            # All-or-nothing: a failure mid-ingestion (e.g. MemoryError)
            # must not leave half-built indexes that a later retry would
            # double up on, nor a hydrated flag hiding the gap.
            self._edges.clear()
            self._forward.clear()
            self._backward.clear()
            self._by_label.clear()
            self._forward_by_label.clear()
            self._edge_set.clear()
            raise
        self._hydrated = True

    # -- hydration-free accessors -------------------------------------------------

    def num_edges(self) -> int:
        if self._hydrated:
            return len(self._edges)
        return sum(len(entry[1]) for entry in self._snapshot_csr.forward.values())

    def size(self) -> int:
        return len(self._nodes) + self.num_edges()

    def alphabet(self) -> Alphabet:
        if self._alphabet is not None or self._hydrated:
            return super().alphabet()
        labels = set(self._snapshot_csr.forward)
        if not labels:
            raise AlphabetError("the database has no edges and no declared alphabet")
        return Alphabet(labels)

    # -- hydrating accessors ------------------------------------------------------

    @property
    def edges(self) -> Sequence[Edge]:
        """All arcs (hydrates the edge indexes on first access)."""
        self._hydrate()
        return self._edges

    def successors(self, node: Node) -> Sequence[Tuple[str, Node]]:
        self._hydrate()
        return super().successors(node)

    def predecessors(self, node: Node) -> Sequence[Tuple[str, Node]]:
        self._hydrate()
        return super().predecessors(node)

    def successors_by_label(self, node: Node, label: str) -> Sequence[Node]:
        self._hydrate()
        return super().successors_by_label(node, label)

    def labelled_successors(self, node: Node) -> Dict[str, List[Node]]:
        self._hydrate()
        return super().labelled_successors(node)

    def edges_by_label(self, label: str) -> Sequence[Tuple[Node, Node]]:
        self._hydrate()
        return super().edges_by_label(label)

    def has_edge(self, source: Node, label: str, target: Node) -> bool:
        self._hydrate()
        return super().has_edge(source, label, target)

    def out_degree(self, node: Node) -> int:
        self._hydrate()
        return super().out_degree(node)

    # -- mutation and conversions (always hydrate first) --------------------------

    def add_node(self, node: Node) -> Node:
        self._hydrate()
        return super().add_node(node)

    def add_edge(self, source: Node, label: str, target: Node) -> Edge:
        self._hydrate()
        return super().add_edge(source, label, target)

    def remove_edge(self, source: Node, label: str, target: Node) -> None:
        # Single-edge removal is the dictionary-level mutation API; batch
        # mutations should go through apply_delta, which stays on the CSR
        # overlay and never hydrates.
        self._hydrate()
        super().remove_edge(source, label, target)

    def add_word_path(self, source: Node, word: str, target: Node, prefix: str = "_p") -> List[Node]:
        self._hydrate()
        return super().add_word_path(source, word, target, prefix)

    def to_networkx(self) -> "Any":
        self._hydrate()
        return super().to_networkx()

    def to_json(self) -> str:
        self._hydrate()
        return super().to_json()

    def relabel(self) -> Tuple[GraphDatabase, Dict[Node, int]]:
        self._hydrate()
        return super().relabel()

    def copy(self) -> GraphDatabase:
        self._hydrate()
        return super().copy()

    def union(self, other: GraphDatabase) -> GraphDatabase:
        self._hydrate()
        return super().union(other)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def _csr_of(db: GraphDatabase) -> CsrAdjacency:
    """The CSR arrays to serialise — shared with the cache layer when warm."""
    if isinstance(db, SnapshotDatabase) and db.snapshot_csr.version == db.version:
        return db.snapshot_csr
    return reachability_index(db).csr()


def dump_snapshot_bytes(
    db: GraphDatabase, statistics: Optional[GraphStatistics] = None
) -> bytes:
    """Serialise ``db`` to the binary ``.rgsnap`` snapshot format.

    With ``statistics`` given, the block is appended as an optional,
    flag-gated section (``FLAG_STATS``) so loaders can seed the planner's
    cost model zero-copy; without it the output is byte-identical to the
    stats-less format (flags 0).
    """
    csr = _csr_of(db)
    names = [str(node) for node in csr.nodes]
    if len(set(names)) != len(names):
        raise GraphFormatError(
            "snapshot node names must be distinct after str() conversion "
            "(two nodes collide); rename the nodes or relabel the database"
        )
    labels = sorted(csr.forward)
    encoded_names = [name.encode("utf-8") for name in names]
    encoded_labels = [label.encode("utf-8") for label in labels]
    counts = [len(csr.forward[label][1]) for label in labels]
    sections: List[bytes] = [
        _pack_u32(len(name) for name in encoded_names),
        _pack_blob(b"".join(encoded_names)),
        _pack_u32(len(label) for label in encoded_labels),
        _pack_blob(b"".join(encoded_labels)),
        _pack_u32(counts),
    ]
    for label in labels:
        for indptr, indices in (csr.forward[label], csr.backward[label]):
            sections.append(_pack_u32(indptr))
            sections.append(_pack_u32(indices))
    flags = 0
    if statistics is not None:
        if (
            statistics.num_nodes != len(names)
            or statistics.num_edges != sum(counts)
        ):
            raise GraphFormatError(
                "statistics block does not describe this database "
                f"(stats: {statistics.num_nodes} nodes / {statistics.num_edges} "
                f"edges, database: {len(names)} / {sum(counts)})"
            )
        blob = statistics.to_payload()
        sections.append(_pack_u32((len(blob),)))
        sections.append(_pack_blob(blob))
        flags |= FLAG_STATS
    payload = b"".join(sections)
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SCHEMA_VERSION,
        flags,
        4,  # array item size
        len(names),
        sum(counts),
        len(labels),
        zlib.crc32(payload) & 0xFFFFFFFF,
        len(payload),
    )
    return header + payload


# ---------------------------------------------------------------------------
# Edge-delta segments (FLAG_DELTA)
# ---------------------------------------------------------------------------


def _strings_section(values: Sequence[str]) -> bytes:
    """A length-prefixed UTF-8 string table (the :func:`_read_strings` shape)."""
    encoded = [value.encode("utf-8") for value in values]
    return _pack_u32(len(value) for value in encoded) + _pack_blob(b"".join(encoded))


def _encode_delta_segment(delta: EdgeDelta) -> bytes:
    """Serialise one edge-delta batch as a self-describing segment."""
    payload = _strings_section(
        [str(field) for triple in delta.additions for field in triple]
    ) + _strings_section(
        [str(field) for triple in delta.removals for field in triple]
    )
    header = _DELTA_HEADER.pack(
        _DELTA_MAGIC,
        len(delta.additions),
        len(delta.removals),
        zlib.crc32(payload) & 0xFFFFFFFF,
        len(payload),
    )
    return header + payload


def _grouped_triples(flat: Sequence[str], kind: str) -> List[Triple]:
    if len(flat) % 3:  # pragma: no cover - counts come from the segment header
        raise GraphFormatError(
            f"inconsistent snapshot: a delta segment's {kind} table is not "
            "made of triples"
        )
    return [
        (flat[position], flat[position + 1], flat[position + 2])
        for position in range(0, len(flat), 3)
    ]


def _read_delta_segments(
    view: memoryview, offset: int, limit: Optional[int] = None
) -> List[EdgeDelta]:
    """Parse the delta segments between ``offset`` and the end of the file.

    With a ``limit`` parsing stops after that many segments, so the later
    ones (possibly still being appended) are never read.
    """
    segments: List[EdgeDelta] = []
    while offset < len(view) and (limit is None or len(segments) < limit):
        if len(view) - offset < _DELTA_HEADER.size:
            raise GraphFormatError(
                "truncated snapshot: a delta segment header is cut short"
            )
        magic, add_count, remove_count, segment_crc, segment_length = (
            _DELTA_HEADER.unpack(view[offset : offset + _DELTA_HEADER.size])
        )
        if magic != _DELTA_MAGIC:
            raise GraphFormatError(
                "inconsistent snapshot: bad delta segment magic bytes"
            )
        offset += _DELTA_HEADER.size
        if len(view) - offset < segment_length:
            raise GraphFormatError(
                "truncated snapshot: a delta segment payload is cut short"
            )
        payload = view[offset : offset + segment_length]
        if zlib.crc32(payload) & 0xFFFFFFFF != segment_crc:
            raise GraphFormatError(
                "delta segment checksum mismatch: the file is corrupted"
            )
        additions_flat, cursor = _read_strings(payload, 0, 3 * add_count)
        removals_flat, cursor = _read_strings(payload, cursor, 3 * remove_count)
        segments.append(
            EdgeDelta(
                _grouped_triples(additions_flat, "additions"),
                _grouped_triples(removals_flat, "removals"),
            )
        )
        offset += segment_length
    return segments


def append_delta(path: PathLike, delta: EdgeDelta) -> None:
    """Append one edge-delta segment to an existing ``.rgsnap`` file.

    The base payload is **never rewritten**: the segment (with its own
    crc32) is appended after the existing contents and only then is the
    header's ``FLAG_DELTA`` bit flipped to announce it.  A crash between
    the two steps leaves unannounced trailing bytes that every reader
    ignores and the next append reclaims, so the file on disk is loadable
    at every instant.  Validation of the delta *against the graph* is the
    caller's job (``repro ingest`` applies it in memory first); this
    function only guards the container format.
    """
    segment = _encode_delta_segment(delta)
    try:
        handle = open(path, "r+b")
    except OSError as error:
        raise GraphFormatError(f"cannot open snapshot {path}: {error}") from error
    with handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise GraphFormatError(
                f"{path}: truncated snapshot: the file is shorter than the header"
            )
        magic, schema, flags, item_size, _nodes, _edges, _labels, _crc, payload_length = (
            _HEADER.unpack(header)
        )
        if magic != SNAPSHOT_MAGIC:
            raise GraphFormatError(f"{path}: not an .rgsnap snapshot (bad magic bytes)")
        if schema > SCHEMA_VERSION or schema < 1:
            raise GraphFormatError(
                f"{path}: cannot append a delta to snapshot schema version {schema}"
            )
        if flags & ~_KNOWN_FLAGS:
            raise GraphFormatError(
                f"{path}: snapshot uses unknown flag bits "
                f"0x{flags & ~_KNOWN_FLAGS:x}; upgrade repro to modify it"
            )
        if item_size != 4:
            raise GraphFormatError(
                f"{path}: unsupported snapshot array item size {item_size}"
            )
        if not flags & FLAG_DELTA:
            # Reclaim unannounced trailing bytes (an append that crashed
            # before flipping the flag): the next segment must start where
            # the announced contents end.
            handle.truncate(_HEADER.size + payload_length)
        handle.seek(0, 2)
        handle.write(segment)
        handle.flush()
        if not flags & FLAG_DELTA:
            handle.seek(_FLAGS_OFFSET)
            handle.write(struct.pack("<H", flags | FLAG_DELTA))


def load_snapshot_bytes(
    buffer, alphabet: Optional[Alphabet] = None, segments: Optional[int] = None
) -> SnapshotDatabase:
    """Deserialise a snapshot from a bytes-like buffer (mmap, bytes, view).

    The returned database's CSR arrays are ``memoryview`` casts into
    ``buffer`` — near zero-copy — and are pre-seeded into the shared
    reachability index, so the first query runs without any adjacency
    rebuild.  ``segments`` applies only the first that many delta segments
    (the graph at database version ``segments``); ``None`` applies all.
    Raises :class:`~repro.graphdb.io.GraphFormatError` on bad magic, an
    unknown (newer) schema version, a checksum mismatch, a truncated file,
    or a ``segments`` count the file does not hold.
    """
    view = memoryview(buffer)
    if len(view) < _HEADER.size:
        raise GraphFormatError("truncated snapshot: the file is shorter than the header")
    (
        magic,
        schema,
        flags,
        item_size,
        num_nodes,
        num_edges,
        num_labels,
        payload_crc,
        payload_length,
    ) = _HEADER.unpack(view[: _HEADER.size])
    if magic != SNAPSHOT_MAGIC:
        raise GraphFormatError("not an .rgsnap snapshot (bad magic bytes)")
    if schema > SCHEMA_VERSION:
        raise GraphFormatError(
            f"snapshot schema version {schema} is newer than this reader "
            f"(supports up to {SCHEMA_VERSION}); upgrade repro to load it"
        )
    if schema < 1:
        raise GraphFormatError(f"invalid snapshot schema version {schema}")
    if flags & ~_KNOWN_FLAGS:
        raise GraphFormatError(
            f"snapshot uses unknown flag bits 0x{flags & ~_KNOWN_FLAGS:x}; "
            "upgrade repro to load it"
        )
    if item_size != 4:
        raise GraphFormatError(f"unsupported snapshot array item size {item_size}")
    if len(view) - _HEADER.size < payload_length:
        raise GraphFormatError("truncated snapshot: the payload is cut short")
    payload = view[_HEADER.size : _HEADER.size + payload_length]
    if zlib.crc32(payload) & 0xFFFFFFFF != payload_crc:
        raise GraphFormatError("snapshot checksum mismatch: the file is corrupted")
    names, cursor = _read_strings(payload, 0, num_nodes)
    labels, cursor = _read_strings(payload, cursor, num_labels)
    counts, cursor = _read_u32(payload, cursor, num_labels)
    forward: Dict[str, Tuple[Sequence[int], Sequence[int]]] = {}
    backward: Dict[str, Tuple[Sequence[int], Sequence[int]]] = {}
    for label, count in zip(labels, counts):
        fwd_indptr, cursor = _read_u32(payload, cursor, num_nodes + 1)
        fwd_indices, cursor = _read_u32(payload, cursor, count)
        bwd_indptr, cursor = _read_u32(payload, cursor, num_nodes + 1)
        bwd_indices, cursor = _read_u32(payload, cursor, count)
        _validate_csr_section(fwd_indptr, fwd_indices, num_nodes, count, label)
        _validate_csr_section(bwd_indptr, bwd_indices, num_nodes, count, label)
        forward[label] = (fwd_indptr, fwd_indices)
        backward[label] = (bwd_indptr, bwd_indices)
    if sum(counts) != num_edges:
        raise GraphFormatError(
            "inconsistent snapshot: per-label edge counts do not sum to the header total"
        )
    statistics: Optional[GraphStatistics] = None
    if flags & FLAG_STATS:
        (stats_length,), cursor = _read_u32(payload, cursor, 1)
        stats_end = cursor + stats_length
        if stats_end > len(payload):
            raise GraphFormatError(
                "truncated snapshot: the statistics section runs past the payload"
            )
        try:
            statistics = GraphStatistics.from_payload(bytes(payload[cursor:stats_end]))
        except UnsupportedStatsVersion:
            # A future writer's statistics schema: the section is an
            # optional accelerator, so skip it and load the graph — the
            # planner recomputes statistics on demand.
            statistics = None
        except StatsFormatError as error:
            raise GraphFormatError(f"inconsistent snapshot: {error}") from error
        if statistics is not None and (
            statistics.num_nodes != num_nodes or statistics.num_edges != num_edges
        ):
            raise GraphFormatError(
                "inconsistent snapshot: the statistics section disagrees with "
                "the header node/edge counts"
            )
    if segments is not None and segments < 0:
        raise ValueError(f"segments must be non-negative, got {segments}")
    deltas: List[EdgeDelta] = []
    if flags & FLAG_DELTA and segments != 0:
        deltas = _read_delta_segments(view, _HEADER.size + payload_length, segments)
        if not deltas:
            raise GraphFormatError(
                "inconsistent snapshot: FLAG_DELTA is set but no delta "
                "segments follow the payload"
            )
    if segments is not None and segments > len(deltas):
        raise GraphFormatError(
            f"cannot load {segments} delta segment(s): the snapshot holds "
            f"{len(deltas)}"
        )
    db = SnapshotDatabase(names, forward, backward, alphabet=alphabet, buffer=buffer)
    if deltas:
        # Apply the mutation log in order: each batch builds a CSR overlay
        # (base ∪ additions ∖ removals) at delta-proportional cost, bumps
        # the version and pre-seeds the overlay — the stored statistics
        # describe the base graph, so they are *not* preloaded here and the
        # planner recomputes from the overlay on demand.
        for delta in deltas:
            db.apply_delta(delta.additions, delta.removals)
        return db
    preload_csr(db, db.snapshot_csr)
    if statistics is not None:
        # Stamp the block with the freshly constructed database's version so
        # the index accepts it under the same staleness guard as the CSR.
        statistics.version = db.version
        preload_statistics(db, statistics)
    return db


def save_snapshot(
    db: GraphDatabase, path: PathLike, statistics: Optional[GraphStatistics] = None
) -> None:
    """Write ``db`` to ``path`` in the ``.rgsnap`` snapshot format."""
    Path(path).write_bytes(dump_snapshot_bytes(db, statistics=statistics))


def load_snapshot(
    path: PathLike, alphabet: Optional[Alphabet] = None, segments: Optional[int] = None
) -> SnapshotDatabase:
    """Load an ``.rgsnap`` snapshot by mmapping it (near zero-copy).

    The mapping stays referenced by the returned database for as long as its
    CSR arrays are in use; empty or unmappable files fall back to a plain
    read, where the header checks produce the format error.  ``segments``
    is passed to :func:`load_snapshot_bytes`.
    """
    try:
        with open(path, "rb") as handle:
            try:
                buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                # Zero-length files cannot be mapped; a plain read gives the
                # same truncation diagnostics through the header checks.
                handle.seek(0)
                buffer = handle.read()
    except OSError as error:
        raise GraphFormatError(f"cannot open snapshot {path}: {error}") from error
    try:
        return load_snapshot_bytes(buffer, alphabet, segments)
    except GraphFormatError as error:
        raise GraphFormatError(f"{path}: {error}") from error
