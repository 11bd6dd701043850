"""Shared reachability/product cache for the evaluation hot path.

Every evaluation algorithm of the reproduction (the Lemma 1 CRPQ join, the
Lemma 3 simple engine, the Theorem 2 VSF engine, the Theorem 6 bounded
engine and the ECRPQ engine) bottoms out in a handful of primitives:

* ``reachable_pairs(db, nfa)`` — which node pairs are connected by a path
  labelled by a word of ``L(nfa)``,
* ``db_nfa_between(db, source, targets)`` — the database viewed as an NFA
  with designated start/accepting states (Section 2.2), and
* the synchronisation product of one string-variable group — the words
  readable along the database between all the group's endpoint pairs,
  intersected with the group's unit automata (proof of Lemma 3).

This module provides the shared, per-database cache layer over them:

``ReachabilityIndex``
    memoises reachability relations keyed by a canonical NFA fingerprint
    (:meth:`repro.automata.nfa.NFA.fingerprint`), so repeated unit automata —
    e.g. the identical universal ``VarRef`` NFAs created by the unit split —
    are computed once per database.

``DatabaseAutomatonView``
    builds the DB-as-NFA transition table **once** and hands out lightweight
    *frozen* parameterised views (start/accepting only).  The generic engine
    and the reference arm's direct Lemma 3 construction use it.

``SynchronisationProductCache``
    builds each synchronisation product **once** per ``(db version, sorted
    unit fingerprints)`` and hands out endpoint-parameterised views — the
    same parameterised-view trick as ``DatabaseAutomatonView.between``,
    pushed one level up to the whole product automaton.  The product
    explores **int bitmask** track states over dense node ids.

``LazyRelation`` / ``ReachabilityIndex.csr()``
    one label-grouped CSR adjacency snapshot (forward *and* reversed) per
    database version, and reachability relations whose rows
    (``targets_of``/``sources_of``) are product searches run on demand and
    memoised per source — dense relations only materialise ``O(n²)`` pair
    sets when a join genuinely enumerates them unbound.

All caches are LRU-bounded (:func:`set_cache_capacity`, default
:data:`DEFAULT_CACHE_CAPACITY` entries per cache) with hit/miss/eviction
counters surfaced through :func:`cache_stats`.  Caches are invalidated
automatically when the database mutates (tracked via
``GraphDatabase.version``).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict, deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.automata.nfa import NFA, intersect_all
from repro.graphdb.database import GraphDatabase, Node
from repro.graphdb.paths import (
    CsrAdjacency,
    _iter_bits,
    _NfaTables,
    _product_search_csr,
    _reachable_pairs_csr,
    csr_kernel_enabled,
    product_search,
    reachable_pairs,
)
from repro.graphdb.stats import GraphStatistics

if TYPE_CHECKING:  # runtime import stays local to relation() (circularity)
    from repro.engine.joins import EdgeRelation

Fingerprint = Tuple[Hashable, ...]

#: What :meth:`ReachabilityIndex.relation` hands the join machinery: a lazy
#: CSR-backed relation (production) or an eager pair set (reference arm).
JoinRelation = Union["EdgeRelation", "LazyRelation"]

#: Default LRU capacity of each individual cache of a :class:`ReachabilityIndex`.
DEFAULT_CACHE_CAPACITY = 4096

#: The ``lazy_rows`` store cache holds this many times the index capacity:
#: a row store must outlive the relation objects it serves, or eviction
#: churn in the ``relations`` LRU would take the memoised rows down with
#: every evicted relation (the two caches would cycle in lockstep).
LAZY_ROW_GENERATIONS = 4

_CAPACITY_OVERRIDE: ContextVar[Optional[int]] = ContextVar(
    "repro_cache_capacity", default=None
)
_DEFAULT_CAPACITY = DEFAULT_CACHE_CAPACITY

_MISSING = object()


# ---------------------------------------------------------------------------
# LRU primitive
# ---------------------------------------------------------------------------


class LRUCache:
    """A bounded mapping with least-recently-used eviction and counters.

    ``get`` counts a hit or a miss and refreshes recency; ``peek`` does
    neither count nor evict (used for internal derivations that must not
    distort the user-facing statistics).  ``capacity`` of ``None`` means
    unbounded (counters still work).
    """

    __slots__ = ("_data", "capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Uncounted lookup (still refreshes recency on a hit)."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if self.capacity is not None:
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def stats(self) -> Dict[str, Optional[int]]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._data),
            "capacity": self.capacity,
        }


def _current_capacity() -> Optional[int]:
    override = _CAPACITY_OVERRIDE.get()
    return _DEFAULT_CAPACITY if override is None else override


def set_cache_capacity(capacity: Optional[int]) -> None:
    """Set the default per-cache LRU capacity for newly created indexes.

    ``None`` means unbounded.  Existing indexes keep their capacity; use
    :func:`invalidate_cache` (or mutate the database) to rebuild them.
    """
    global _DEFAULT_CAPACITY
    _DEFAULT_CAPACITY = capacity


@contextmanager
def cache_capacity(capacity: Optional[int]) -> Iterator[None]:
    """Context manager overriding the LRU capacity for indexes created inside."""
    token = _CAPACITY_OVERRIDE.set(capacity)
    try:
        yield
    finally:
        _CAPACITY_OVERRIDE.reset(token)


# ---------------------------------------------------------------------------
# DB-as-NFA view
# ---------------------------------------------------------------------------


class DatabaseAutomatonView:
    """The database as an NFA, built once, with parameterisable endpoints.

    State ``0`` (the base NFA's start) is kept as a transitionless dead
    state; every database node gets its own state.  :meth:`between` returns
    a **frozen** :class:`NFA` that *shares* the transition table and only
    carries its own start/accepting states — mutating a view raises
    :class:`~repro.core.errors.FrozenAutomatonError` instead of silently
    corrupting every other view and the cached base.
    """

    __slots__ = ("_base", "_state_of", "_dead")

    def __init__(self, db: GraphDatabase) -> None:
        base = NFA()
        self._dead = base.start
        state_of: Dict[Node, int] = {}
        for node in sorted(db.nodes, key=repr):
            state_of[node] = base.add_state()
        for edge in db.edges:
            base.add_transition(state_of[edge.source], edge.label, state_of[edge.target])
        base.freeze()
        self._base = base
        self._state_of = state_of

    def state_of(self, node: Node) -> Optional[int]:
        """The base-NFA state of ``node``, or ``None`` for absent nodes."""
        return self._state_of.get(node)

    def between(self, source: Node, targets: Iterable[Node]) -> NFA:
        """An NFA accepting the words labelling paths ``source -> targets``.

        Language-equivalent to :func:`repro.graphdb.paths.db_nfa_between`,
        but O(|targets|) instead of O(|D|): the transition table is shared
        with every other view of this database.  The view is frozen.
        """
        view = NFA.__new__(NFA)
        view._transitions = self._base._transitions
        view._fingerprint = None
        view._frozen = True
        view.start = self._state_of.get(source, self._dead)
        view.accepting = {
            self._state_of[target] for target in targets if target in self._state_of
        }
        return view


# ---------------------------------------------------------------------------
# Synchronisation-product cache (Lemma 3 groups / intersect_all)
# ---------------------------------------------------------------------------


class SynchronisationProduct:
    """One synchronisation product, built once, endpoints parameterised.

    The Lemma 3 check for a string-variable group with unit automata
    ``u_1 … u_k`` and endpoint pairs ``(s_i, t_i)`` asks for a (shortest)
    word ``w`` with ``w ∈ L(u_i)`` and ``w`` labelling a database path
    ``s_i -> t_i`` for every ``i`` — the language of
    ``intersect_all([db_between(s_1, t_1), u_1, …])``.

    The *transition structure* of that product is independent of the
    endpoints: a product state is a per-track database node set (one
    deterministic subset-construction track per unit occurrence) plus a
    state set of the units' own intersection NFA.  Only the start state
    (the tuple of source singletons) and the acceptance condition (every
    track containing its target) depend on the endpoints.  So the expansion
    is memoised in ``_succ`` and shared by *all* endpoint pairs — the
    same parameterised-view trick as :meth:`DatabaseAutomatonView.between`,
    one level up.

    The per-track node subsets and the unit state set are **int bitmasks**
    over dense ids (sharing the :class:`~repro.graphdb.paths._NfaTables`
    machinery of the BFS kernel), so the subset step is bulk integer or-ing
    over precomputed per-label successor masks instead of per-node set
    unions.  The reference arm does not come here: it intersects the
    DB-as-NFA views with the unit automata directly.
    """

    __slots__ = (
        "_db_ref",
        "_units",
        "_track_count",
        "_succ",
        "_unit_tables",
        "_csr",
        "_shortest",
    )

    def __init__(self, db: GraphDatabase, unit_nfas: Sequence[NFA]) -> None:
        # Weak: this object lives in a per-database cache; a strong
        # reference back would keep the database alive forever.
        self._db_ref = weakref.ref(db)
        self._track_count = len(unit_nfas)
        self._units = intersect_all(list(unit_nfas))
        # (track masks, unit-state mask) -> tuple of (label, successor state)
        self._succ: Dict[Tuple, Tuple] = {}
        self._unit_tables: Optional[_NfaTables] = None
        self._csr: Optional[CsrAdjacency] = None
        # endpoints -> shortest synchronising word (or None)
        self._shortest: Dict[Tuple, Optional[Tuple]] = {}

    @property
    def track_count(self) -> int:
        return self._track_count

    def _db(self) -> GraphDatabase:
        db = self._db_ref()
        if db is None:
            raise ReferenceError("the database of this SynchronisationProduct was collected")
        return db

    def shortest_word(
        self, endpoints: Sequence[Tuple[Node, Node]]
    ) -> Optional[Tuple]:
        """A shortest word synchronising the group at ``endpoints``.

        ``endpoints[i]`` is the ``(source, target)`` node pair of track
        ``i``; returns ``None`` when no synchronising word exists.  Results
        are memoised per endpoint tuple.
        """
        key = tuple(endpoints)
        if len(key) != self._track_count:
            raise ValueError(
                f"expected {self._track_count} endpoint pairs, got {len(key)}"
            )
        cached = self._shortest.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        result = self._search(key)
        self._shortest[key] = result
        return result

    # -- bitmask product exploration ---------------------------------------------

    def _tables(self) -> _NfaTables:
        """Dense bitmask tables of the units' intersection NFA (built once)."""
        if self._unit_tables is None:
            self._unit_tables = _NfaTables(self._units)
        return self._unit_tables

    def _csr_snapshot(self) -> CsrAdjacency:
        """The CSR arrays of the product's database (one snapshot, shared)."""
        if self._csr is None:
            self._csr = reachability_index(self._db()).csr()
        return self._csr

    def _successors(self, state: Tuple) -> Tuple:
        """Successor list of a bitmask product state, memoised.

        ``state`` is ``(track_masks, unit_mask)``: per-track node-id
        bitmasks plus the epsilon-closed unit-state bitmask.  Per label the
        track step is a bulk or over the CSR-derived per-node successor
        masks; the unit step comes pre-closed from ``_NfaTables``.
        """
        cached = self._succ.get(state)
        if cached is not None:
            return cached
        csr = self._csr_snapshot()
        tables = self._tables()
        tracks, unit_mask = state
        per_label_units: Dict[Hashable, int] = {}
        for unit_state in _iter_bits(unit_mask):
            for label, target_mask in tables.closed[unit_state].items():
                per_label_units[label] = per_label_units.get(label, 0) | target_mask
        found: List[Tuple] = []
        for label in sorted(per_label_units, key=repr):
            step = csr.step_masks(label)
            if step is None:
                continue
            next_tracks: List[int] = []
            feasible = True
            for track in tracks:
                stepped = 0
                remaining = track
                while remaining:
                    low = remaining & -remaining
                    stepped |= step[low.bit_length() - 1]
                    remaining ^= low
                if not stepped:
                    feasible = False
                    break
                next_tracks.append(stepped)
            if not feasible:
                continue
            found.append((label, (tuple(next_tracks), per_label_units[label])))
        result = tuple(found)
        self._succ[state] = result
        return result

    def _search(self, endpoints: Tuple[Tuple[Node, Node], ...]) -> Optional[Tuple]:
        """Breadth-first shortest synchronising word over bitmask states."""
        csr = self._csr_snapshot()
        node_id = csr.node_id
        for source, target in endpoints:
            if source not in node_id or target not in node_id:
                # Matches db_nfa_between: absent endpoints have no paths,
                # not even the trivial empty one.
                return None
        tables = self._tables()
        accepting_mask = tables.accepting_mask
        target_bits = tuple(1 << node_id[target] for _source, target in endpoints)

        def accepts(state: Tuple) -> bool:
            tracks, unit_mask = state
            if not unit_mask & accepting_mask:
                return False
            return all(bit & track for bit, track in zip(target_bits, tracks))

        start = (
            tuple(1 << node_id[source] for source, _target in endpoints),
            tables.start_mask,
        )
        if accepts(start):
            return ()
        parents: Dict[Tuple, Optional[Tuple]] = {start: None}
        queue = deque([start])
        while queue:
            state = queue.popleft()
            for label, successor in self._successors(state):
                if successor in parents:
                    continue
                parents[successor] = (state, label)
                if accepts(successor):
                    word: List = []
                    current: Optional[Tuple] = successor
                    while parents[current] is not None:
                        previous, via = parents[current]
                        word.append(via)
                        current = previous
                    return tuple(reversed(word))
                queue.append(successor)
        return None


class _OrderedProduct:
    """A view re-aligning a canonical product with the caller's track order."""

    __slots__ = ("_product", "_order")

    def __init__(self, product: SynchronisationProduct, order: Sequence[int]) -> None:
        self._product = product
        # ``None`` marks the identity permutation (the overwhelmingly common
        # single-track case), skipping the re-alignment on every query.
        self._order = None if list(order) == sorted(order) == list(range(len(order))) else order

    @property
    def product(self) -> SynchronisationProduct:
        return self._product

    def shortest_word(
        self, endpoints: Sequence[Tuple[Node, Node]]
    ) -> Optional[Tuple]:
        if self._order is None:
            return self._product.shortest_word(tuple(endpoints))
        endpoints = list(endpoints)
        if len(endpoints) != self._product.track_count:
            raise ValueError(
                f"expected {self._product.track_count} endpoint pairs, got {len(endpoints)}"
            )
        return self._product.shortest_word(
            tuple(endpoints[index] for index in self._order)
        )


class SynchronisationProductCache:
    """LRU cache of synchronisation products.

    Keyed by ``(db version, sorted unit fingerprints)``: the same group of
    unit automata (in any order) over the same database revision maps to one
    shared :class:`SynchronisationProduct`, whose memoised expansion then
    serves every endpoint combination the join enumerates.
    """

    __slots__ = ("_lru",)

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._lru = LRUCache(capacity if capacity is not None else _current_capacity())

    def product(self, db: GraphDatabase, unit_nfas: Sequence[NFA]) -> _OrderedProduct:
        """The shared product of ``unit_nfas`` over ``db``, order-normalised.

        Tracks are sorted by fingerprint so permutations of the same unit
        multiset share a product; the returned view maps the caller's track
        order onto the canonical one.
        """
        fingerprints = [nfa.fingerprint() for nfa in unit_nfas]
        order = sorted(range(len(unit_nfas)), key=lambda index: repr(fingerprints[index]))
        key = (db.version, tuple(fingerprints[index] for index in order))
        product = self._lru.get(key)
        if product is None:
            product = SynchronisationProduct(db, [unit_nfas[index] for index in order])
            self._lru.put(key, product)
        return _OrderedProduct(product, order)

    def clear(self) -> None:
        self._lru.clear()

    def stats(self) -> Dict[str, Optional[int]]:
        return self._lru.stats()


# ---------------------------------------------------------------------------
# Lazy per-source reachability relation (CSR kernel)
# ---------------------------------------------------------------------------

_EMPTY_NODES: frozenset = frozenset()


class _LazyRowStore:
    """The row/column memo of a lazy relation, shareable across generations.

    :class:`LazyRelation` objects live in the LRU-bounded ``relations`` cache
    of a :class:`ReachabilityIndex`; under eviction churn a relation object
    can die and be rebuilt many times for the same ``(db version, NFA
    fingerprint)``.  The *rows* it memoised are pure functions of exactly
    that key, so they are kept in this separate store, handed to every
    fingerprint-equal relation the index creates — an evicted-and-rebuilt
    relation starts with all previously computed rows instead of re-running
    the product searches.  The stores themselves sit in their own LRU
    (``cache_stats()['lazy_rows']``), so total memory stays bounded.
    """

    __slots__ = ("rows", "cols", "pairs")

    def __init__(self) -> None:
        self.rows: Dict[int, frozenset] = {}  # source id -> frozen target nodes
        self.cols: Dict[int, frozenset] = {}  # target id -> frozen source nodes
        self.pairs: Optional[Set[Tuple[Node, Node]]] = None


class LazyRelation:
    """A reachability relation materialised row by row, on demand.

    Duck-types :class:`~repro.engine.joins.EdgeRelation`: ``targets_of`` /
    ``sources_of`` / membership / ``pairs`` / ``len``.  The difference is
    *when* work happens:

    * ``targets_of(u)`` runs one forward CSR product search from ``u`` (and
      memoises the row), so a target-unbound edge with a bound source costs
      ``O(|D| · |M|)`` — never the full pair set;
    * ``sources_of(v)`` runs the **backward** product search over the
      reversed CSR arrays with the reversed NFA — the planner's
      target-bound direction choice bottoms out here;
    * ``pairs`` (and ``len``) force full materialisation via one
      multi-source CSR BFS, after which the row indexes are complete and
      the object behaves exactly like an eager ``EdgeRelation``.

    ``semijoin_reduce`` keeps unmaterialised lazy relations out of the
    pair-level fixpoint until a neighbouring domain is known, which is what
    keeps dense relations (e.g. the universal ``VarRef`` automata) from
    ever materialising ``O(n²)`` pair sets on endpoint-bound workloads.
    """

    __slots__ = ("_csr", "_tables", "_reversed_tables", "_store", "_statistics")

    def __init__(
        self,
        csr: CsrAdjacency,
        nfa: NFA,
        tables: Optional[_NfaTables] = None,
        reversed_tables: Optional[_NfaTables] = None,
        store: Optional[_LazyRowStore] = None,
        statistics: Optional[Callable[[], GraphStatistics]] = None,
    ):
        self._csr = csr
        self._tables = tables if tables is not None else _NfaTables(nfa)
        # The reversed tables are derived eagerly (cheap, O(|M|)) so the
        # NFA itself does not have to be retained.
        self._reversed_tables = (
            reversed_tables if reversed_tables is not None else _NfaTables(nfa.reverse())
        )
        # The row memo may be shared with fingerprint-equal relations of
        # other LRU generations (see _LazyRowStore).
        self._store = store if store is not None else _LazyRowStore()
        # Zero-arg provider of the database's GraphStatistics — the planner's
        # cost-model hook.  Optional: without it, estimates degrade to the
        # pessimistic ``size_hint`` bound.
        self._statistics = statistics

    @property
    def materialised(self) -> bool:
        """Whether the full pair set has been forced already."""
        return self._store.pairs is not None

    def size_hint(self) -> int:
        """An upper bound on ``len(self)`` that never forces materialisation."""
        if self._store.pairs is not None:
            return len(self._store.pairs)
        return self._csr.num_nodes * self._csr.num_nodes

    def labels(self) -> frozenset:
        """The edge labels this relation's automaton can traverse."""
        return frozenset(
            label
            for per_state in self._tables.closed
            for label in per_state
        )

    @property
    def accepts_empty(self) -> bool:
        """Whether the automaton accepts the empty word (diagonal pairs)."""
        return bool(self._tables.start_mask & self._tables.accepting_mask)

    def plan_statistics(self) -> Optional[GraphStatistics]:
        """The database statistics backing cost estimates (``None`` if unavailable)."""
        if self._statistics is None:
            return None
        return self._statistics()

    def estimate_pairs(self) -> int:
        """Estimated ``len(self)`` without forcing materialisation.

        Exact once materialised; otherwise a cardinality-sketch estimate
        from the database statistics, falling back to the pessimistic
        ``size_hint`` (n²) bound when no statistics are available.
        """
        if self._store.pairs is not None:
            return len(self._store.pairs)
        statistics = self.plan_statistics()
        if statistics is None:
            return self.size_hint()
        return statistics.estimate_pairs(self.labels(), accepts_empty=self.accepts_empty)

    def targets_of(self, source: Node) -> frozenset:
        source_id = self._csr.node_id.get(source)
        if source_id is None:
            return _EMPTY_NODES
        row = self._store.rows.get(source_id)
        if row is None:
            masks = _product_search_csr(self._csr.forward, self._tables, source_id)
            accepting = self._tables.accepting_mask
            nodes = self._csr.nodes
            row = frozenset(
                nodes[node] for node, mask in masks.items() if mask & accepting
            )
            self._store.rows[source_id] = row
        return row

    def sources_of(self, target: Node) -> frozenset:
        target_id = self._csr.node_id.get(target)
        if target_id is None:
            return _EMPTY_NODES
        column = self._store.cols.get(target_id)
        if column is None:
            masks = _product_search_csr(
                self._csr.backward, self._reversed_tables, target_id
            )
            accepting = self._reversed_tables.accepting_mask
            nodes = self._csr.nodes
            column = frozenset(
                nodes[node] for node, mask in masks.items() if mask & accepting
            )
            self._store.cols[target_id] = column
        return column

    def __contains__(self, pair: Tuple[Node, Node]) -> bool:
        source, target = pair
        store = self._store
        if store.pairs is not None:
            return pair in store.pairs
        target_id = self._csr.node_id.get(target)
        if target_id is not None and target_id in store.cols:
            return source in store.cols[target_id]
        return target in self.targets_of(source)

    @property
    def pairs(self) -> Set[Tuple[Node, Node]]:
        """The full pair set (forces materialisation, then memoised)."""
        store = self._store
        if store.pairs is None:
            id_pairs = _reachable_pairs_csr(
                self._csr.forward, self._tables, list(range(self._csr.num_nodes))
            )
            nodes = self._csr.nodes
            store.pairs = {(nodes[u], nodes[v]) for u, v in id_pairs}
            # Complete the row/column indexes in one pass so subsequent
            # lookups are dictionary hits, exactly like an eager relation.
            rows: Dict[int, Set[Node]] = {}
            cols: Dict[int, Set[Node]] = {}
            for u, v in id_pairs:
                rows.setdefault(u, set()).add(nodes[v])
                cols.setdefault(v, set()).add(nodes[u])
            store.rows = {
                u: frozenset(targets) for u, targets in rows.items()
            }
            store.cols = {
                v: frozenset(sources) for v, sources in cols.items()
            }
            for node_id in range(self._csr.num_nodes):
                store.rows.setdefault(node_id, _EMPTY_NODES)
                store.cols.setdefault(node_id, _EMPTY_NODES)
        return store.pairs

    def __len__(self) -> int:
        return len(self.pairs)


# ---------------------------------------------------------------------------
# Per-database reachability index
# ---------------------------------------------------------------------------


class ReachabilityIndex:
    """Per-database memo of reachability relations, keyed by NFA fingerprint.

    Every constituent cache is LRU-bounded (``capacity`` entries each,
    default :func:`set_cache_capacity`), so the index's memory stays bounded
    on long-running workloads; :meth:`stats` (and the module-level
    :func:`cache_stats`) surface hit/miss/eviction counters per cache.
    """

    __slots__ = (
        "_db_ref",
        "_version",
        "_pairs",
        "_from",
        "_by_source",
        "_relations",
        "_verdicts",
        "_products",
        "_view",
        "_csr",
        "_csr_preloaded",
        "_stats",
        "_stats_preloaded",
        "_nfa_tables",
        "_lazy_rows",
        "capacity",
    )

    def __init__(self, db: GraphDatabase, capacity: Optional[int] = None) -> None:
        # Weak back-reference: the registry below maps db -> index weakly,
        # and a strong reference here would keep every database (and its
        # O(|V|^2) pair caches) alive for the process lifetime.
        self._db_ref = weakref.ref(db)
        self._version = db.version
        self.capacity = capacity if capacity is not None else _current_capacity()
        self._pairs: LRUCache = LRUCache(self.capacity)  # fingerprint -> pair set
        self._from: LRUCache = LRUCache(self.capacity)  # (fingerprint, source) -> nodes
        self._by_source: LRUCache = LRUCache(self.capacity)  # fingerprint -> source map
        self._relations: LRUCache = LRUCache(self.capacity)  # fingerprint -> relation
        self._verdicts: LRUCache = LRUCache(self.capacity)  # ECRPQ sync verdicts
        self._products = SynchronisationProductCache(self.capacity)
        self._view: Optional[DatabaseAutomatonView] = None
        self._csr: LRUCache = LRUCache(1)  # singleton CSR snapshot per version
        self._csr_preloaded = 0  # snapshots seeded by the storage layer
        self._stats: LRUCache = LRUCache(1)  # singleton GraphStatistics per version
        self._stats_preloaded = 0  # statistics seeded by the storage layer
        self._nfa_tables: LRUCache = LRUCache(self.capacity)  # (reverse, fp) -> tables
        # (version, fp) -> row store; oversized relative to the relation LRU
        # so stores survive relation eviction churn (see LAZY_ROW_GENERATIONS).
        self._lazy_rows: LRUCache = LRUCache(
            None if self.capacity is None else self.capacity * LAZY_ROW_GENERATIONS
        )

    @property
    def db(self) -> GraphDatabase:
        db = self._db_ref()
        if db is None:
            raise ReferenceError("the database of this ReachabilityIndex has been collected")
        return db

    def _refresh(self) -> GraphDatabase:
        """Drop every cached value when the database has mutated."""
        db = self.db
        if db.version != self._version:
            self._pairs.clear()
            self._from.clear()
            self._by_source.clear()
            self._relations.clear()
            self._verdicts.clear()
            self._products.clear()
            self._view = None
            self._csr.clear()
            self._stats.clear()
            self._nfa_tables.clear()
            self._lazy_rows.clear()
            self._version = db.version
        return db

    # -- statistics -------------------------------------------------------------

    def _caches(self) -> Dict[str, LRUCache]:
        return {
            "pairs": self._pairs,
            "from": self._from,
            "by_source": self._by_source,
            "relations": self._relations,
            "verdicts": self._verdicts,
            "products": self._products._lru,
            "csr": self._csr,
            "stats": self._stats,
            "nfa_tables": self._nfa_tables,
            "lazy_rows": self._lazy_rows,
        }

    def stats(self) -> Dict[str, Dict[str, Optional[int]]]:
        """Per-cache and total hit/miss/eviction/entry counters.

        The ``csr`` and ``stats`` entries additionally carry ``preloaded``:
        how many adjacency snapshots / statistics blocks were seeded from
        persistent storage (:func:`preload_csr`, :func:`preload_statistics`)
        instead of being rebuilt from the edge list.
        """
        per_cache = {name: cache.stats() for name, cache in self._caches().items()}
        per_cache["csr"]["preloaded"] = self._csr_preloaded
        per_cache["stats"]["preloaded"] = self._stats_preloaded
        totals = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
        for stats in per_cache.values():
            for counter in totals:
                totals[counter] += stats[counter]
        totals["capacity"] = self.capacity
        per_cache["totals"] = totals
        return per_cache

    @property
    def hits(self) -> int:
        """Total cache hits across all constituent caches."""
        return sum(cache.hits for cache in self._caches().values())

    @property
    def misses(self) -> int:
        """Total cache misses across all constituent caches."""
        return sum(cache.misses for cache in self._caches().values())

    @property
    def evictions(self) -> int:
        """Total LRU evictions across all constituent caches."""
        return sum(cache.evictions for cache in self._caches().values())

    # -- cached primitives ----------------------------------------------------

    def reachable_pairs(self, nfa: NFA) -> Set[Tuple[Node, Node]]:
        """All ``(u, v)`` pairs of :func:`repro.graphdb.paths.reachable_pairs`."""
        db = self._refresh()
        key = nfa.fingerprint()
        cached = self._pairs.get(key)
        if cached is not None:
            return cached
        pairs = reachable_pairs(db, nfa)
        self._pairs.put(key, pairs)
        return pairs

    def reachable_from(self, nfa: NFA, source: Node) -> Set[Node]:
        """Nodes reachable from ``source`` via a word of ``L(nfa)``.

        When the all-pairs set of ``nfa`` is already cached, a
        source-indexed map is built from it **once** per fingerprint (a
        counted miss), and every subsequent source lookup is an O(1) hit —
        the seed re-filtered the whole pair set on every new source while
        counting it as a pure hit.
        """
        db = self._refresh()
        fingerprint = nfa.fingerprint()
        by_source = self._by_source.peek(fingerprint)
        if by_source is not None:
            self._by_source.hits += 1
            return by_source.get(source, set())
        full = self._pairs.peek(fingerprint)
        if full is not None:
            # One-time derivation from the cached all-pairs set, counted as
            # a single ``by_source`` miss; afterwards every source is a
            # dictionary hit.  Without a cached pair set the lookup falls
            # through to the per-source path below without touching the
            # ``by_source`` counters (one logical lookup, one counted
            # hit-or-miss).
            self._by_source.misses += 1
            by_source = {}
            for origin, target in full:
                by_source.setdefault(origin, set()).add(target)
            self._by_source.put(fingerprint, by_source)
            return by_source.get(source, set())
        key = (fingerprint, source)
        cached = self._from.get(key)
        if cached is not None:
            return cached
        reached = product_search(db, nfa, source)
        targets = {node for node, states in reached.items() if states & nfa.accepting}
        self._from.put(key, targets)
        return targets

    def nfa_tables(self, nfa: NFA, reverse: bool = False) -> _NfaTables:
        """The dense bitmask tables of ``nfa``, memoised by fingerprint.

        Every public kernel entry point used to rebuild
        :class:`~repro.graphdb.paths._NfaTables` per call — cheap
        individually, but repeated for every ``paths`` query on the same
        unit automaton.  Tables only depend on the automaton (not on the
        database), so they are memoised under the automaton's fingerprint;
        ``reverse=True`` memoises the tables of ``nfa.reverse()`` under the
        *forward* fingerprint, so backward searches share one reversal per
        automaton as well.  Counters surface under
        ``cache_stats()['nfa_tables']``.
        """
        self._refresh()
        key = (reverse, nfa.fingerprint())
        tables = self._nfa_tables.get(key)
        if tables is None:
            tables = _NfaTables(nfa.reverse() if reverse else nfa)
            self._nfa_tables.put(key, tables)
        return tables

    def csr(self) -> CsrAdjacency:
        """The CSR adjacency snapshot of the database, built once per version.

        Covers both directions, so repeated backward queries
        (``reachable_to`` / ``reachable_pairs(targets=…)``) share one
        reversed index instead of re-deriving it per call; the build shows
        up as a single counted miss under ``cache_stats()['csr']`` and every
        reuse as a hit.
        """
        db = self._refresh()
        csr = self._csr.get(db.version)
        if csr is None:
            csr = CsrAdjacency(db)
            self._csr.put(csr.version, csr)
        return csr

    def preload_csr(self, csr: CsrAdjacency) -> bool:
        """Seed the adjacency snapshot from persistent storage (no rebuild).

        Used by :mod:`repro.graphdb.storage` when a database is loaded from
        an ``.rgsnap`` file: the stored arrays *are* the CSR snapshot, so the
        first query should find it in place instead of re-deriving it from
        the edge list.  A snapshot whose version does not match the live
        database (the database mutated between load and preload) is refused
        — returns whether the snapshot was accepted.  Accepted preloads are
        counted under ``cache_stats()['csr']['preloaded']``, not as hits or
        misses: seeding is neither a lookup nor a rebuild.
        """
        db = self._refresh()
        if csr.version != db.version:
            return False
        self._csr.put(csr.version, csr)
        self._csr_preloaded += 1
        return True

    def statistics(self) -> GraphStatistics:
        """The cardinality statistics of the database, built once per version.

        Computed from the CSR snapshot (so a snapshot-backed database is
        summarised without hydrating its per-edge indexes) and cached in a
        version-keyed singleton exactly like :meth:`csr`; snapshot loads
        seed it zero-copy through :meth:`preload_statistics` instead.
        Counters surface under ``cache_stats()['stats']``.
        """
        db = self._refresh()
        statistics = self._stats.get(db.version)
        if statistics is None:
            statistics = GraphStatistics.from_csr(self.csr())
            statistics.version = db.version
            self._stats.put(db.version, statistics)
        return statistics

    def preload_statistics(self, statistics: GraphStatistics) -> bool:
        """Seed the statistics from persistent storage (no recomputation).

        The twin of :meth:`preload_csr` for the optional ``.rgsnap``
        statistics section: a block whose version does not match the live
        database is refused — returns whether the block was accepted.
        Accepted preloads count under ``cache_stats()['stats']['preloaded']``,
        not as hits or misses.
        """
        db = self._refresh()
        if statistics.version != db.version:
            return False
        self._stats.put(db.version, statistics)
        self._stats_preloaded += 1
        return True

    def relation(self, nfa: NFA) -> "JoinRelation":
        """The cached join relation of ``nfa``.

        With the CSR kernel active this is a :class:`LazyRelation` — rows
        are product searches run on demand and memoised per source/target,
        so a dense relation only ever materialises the part a join actually
        touches.  Under :func:`~repro.graphdb.paths.csr_kernel_disabled`
        (the reference arm) it is an eagerly materialised
        :class:`~repro.engine.joins.EdgeRelation` over the full pair set.
        Either way the relation objects are deduplicated by fingerprint, so
        identical unit automata share one instance (and its memoised rows).

        Lazy relations draw their row memo from a shared
        :class:`_LazyRowStore` keyed by ``(db version, fingerprint)``:
        when eviction churn in the ``relations`` LRU drops and recreates a
        relation, the recreated object starts with every previously
        computed row instead of a cold memo
        (``cache_stats()['lazy_rows']``).
        """
        # Local import: the engine layer imports graphdb.cache at module
        # scope, so importing joins lazily avoids a circular import.
        from repro.engine.joins import EdgeRelation

        db = self._refresh()
        lazy = csr_kernel_enabled()
        fingerprint = nfa.fingerprint()
        key = (lazy, fingerprint)
        cached = self._relations.get(key)
        if cached is not None:
            return cached
        if lazy:
            store_key = (db.version, fingerprint)
            store = self._lazy_rows.get(store_key)
            if store is None:
                store = _LazyRowStore()
                self._lazy_rows.put(store_key, store)
            relation = LazyRelation(
                self.csr(),
                nfa,
                tables=self.nfa_tables(nfa),
                reversed_tables=self.nfa_tables(nfa, reverse=True),
                store=store,
                statistics=self.statistics,
            )
        else:
            relation = EdgeRelation(self.reachable_pairs(nfa))
        self._relations.put(key, relation)
        return relation

    def view(self) -> DatabaseAutomatonView:
        """The shared DB-as-NFA view (built once per database version)."""
        db = self._refresh()
        if self._view is None:
            self._view = DatabaseAutomatonView(db)
        return self._view

    def group_product(self, unit_nfas: Sequence[NFA]) -> _OrderedProduct:
        """The shared synchronisation product of one string-variable group.

        Endpoint pairs passed to the returned view's ``shortest_word`` must
        be aligned with ``unit_nfas``; the view translates to the cache's
        canonical track order internally.
        """
        db = self._refresh()
        return self._products.product(db, unit_nfas)

    def sync_verdict(
        self,
        relation_nfa: NFA,
        track_nfas: Sequence[NFA],
        endpoints: Sequence[Tuple[Node, Node]],
        compute: Callable[[], bool],
    ) -> bool:
        """Memoised ECRPQ synchronisation verdict.

        Keyed by the relation automaton's fingerprint, the per-track edge
        automata fingerprints and the endpoint pairs; the verdict only
        depends on those, so it is shared across morphisms *and* across
        evaluations on the same database.
        """
        self._refresh()
        key = (
            relation_nfa.fingerprint(),
            tuple(nfa.fingerprint() for nfa in track_nfas),
            tuple(endpoints),
        )
        cached = self._verdicts.get(key)
        if cached is not None:
            return cached
        verdict = compute()
        self._verdicts.put(key, verdict)
        return verdict


# ---------------------------------------------------------------------------
# Per-database registry
# ---------------------------------------------------------------------------

_INDEXES: "weakref.WeakKeyDictionary[GraphDatabase, ReachabilityIndex]" = (
    weakref.WeakKeyDictionary()
)


def reachability_index(db: GraphDatabase) -> ReachabilityIndex:
    """The shared :class:`ReachabilityIndex` of ``db``.

    Indexes are held weakly, so dropping the database also drops its cache.
    """
    index = _INDEXES.get(db)
    if index is None:
        index = ReachabilityIndex(db)
        _INDEXES[db] = index
    return index


def invalidate_cache(db: GraphDatabase) -> None:
    """Drop the shared index of ``db`` (a fresh, cold one is built on demand)."""
    _INDEXES.pop(db, None)


def preload_csr(db: GraphDatabase, csr: CsrAdjacency) -> bool:
    """Seed ``db``'s shared index with a storage-loaded CSR snapshot.

    Returns whether the snapshot was accepted (see
    :meth:`ReachabilityIndex.preload_csr`).
    """
    return reachability_index(db).preload_csr(csr)


def preload_statistics(db: GraphDatabase, statistics: GraphStatistics) -> bool:
    """Seed ``db``'s shared index with a storage-loaded statistics block.

    Returns whether the block was accepted (see
    :meth:`ReachabilityIndex.preload_statistics`).
    """
    return reachability_index(db).preload_statistics(statistics)


def database_statistics(db: GraphDatabase) -> GraphStatistics:
    """The :class:`GraphStatistics` of ``db`` (computed or preloaded).

    Goes through the shared index so repeated callers (the planner, the
    CLI's compact-time computation) see one block per database version.
    """
    return reachability_index(db).statistics()


def cache_stats(db: Optional[GraphDatabase] = None) -> Dict[str, Dict[str, Optional[int]]]:
    """Cache statistics for ``db``'s index, or aggregated over all indexes.

    Returns a mapping from cache name (``pairs``, ``from``, ``by_source``,
    ``relations``, ``verdicts``, ``products``, ``csr``, ``stats``,
    ``nfa_tables``, ``lazy_rows``, plus ``totals``) to
    ``{hits, misses, evictions, entries, capacity}``; the ``csr`` and
    ``stats`` entries also carry ``preloaded`` (blocks seeded from
    persistent storage).
    """
    names = (
        "pairs",
        "from",
        "by_source",
        "relations",
        "verdicts",
        "products",
        "csr",
        "stats",
        "nfa_tables",
        "lazy_rows",
        "totals",
    )
    if db is not None:
        index = _INDEXES.get(db)
        if index is None:
            cold = {
                name: {"hits": 0, "misses": 0, "evictions": 0, "entries": 0, "capacity": None}
                for name in names
            }
            cold["csr"]["preloaded"] = 0
            cold["stats"]["preloaded"] = 0
            return cold
        return index.stats()
    aggregate: Dict[str, Dict[str, Optional[int]]] = {
        name: {"hits": 0, "misses": 0, "evictions": 0, "entries": 0, "capacity": None}
        for name in names
    }
    aggregate["csr"]["preloaded"] = 0
    aggregate["stats"]["preloaded"] = 0
    for index in list(_INDEXES.values()):
        for name, stats in index.stats().items():
            into = aggregate[name]
            for counter in ("hits", "misses", "evictions", "entries"):
                into[counter] += stats[counter]
            if "preloaded" in stats:
                into["preloaded"] += stats["preloaded"]
    return aggregate
