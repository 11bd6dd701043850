"""Reachability of regular paths in graph databases.

These are the building blocks of every evaluation algorithm in the paper:
for a classical regular expression (compiled to an NFA ``M``) and a graph
database ``D``, compute which node pairs are connected by a path whose label
lies in ``L(M)``.  The product construction runs in ``O(|D| · |M|)`` per
source node, matching the textbook NL algorithm behind Lemma 1.

Two arms implement the searches:

* the **CSR kernel** (production) walks :class:`CsrAdjacency` — label-grouped
  ``indptr``/``indices`` arrays over dense node ids, built **once per
  database version** in both the forward and the reversed direction and
  shared through the per-database :class:`~repro.graphdb.cache.ReachabilityIndex`.
  Frontier and visited sets are int bitmasks, so the inner BFS loop indexes
  flat integer arrays instead of hashing node objects.  ``reachable_pairs``
  selects a **backward** product search automatically when the caller
  restricts the targets and ``|targets| << |sources|`` (BFS over the
  reversed arrays with the reversed NFA).
* the seed's **set-based BFS** is the reference arm, behind
  :func:`csr_kernel_disabled`: a deliberately simple oracle over the
  per-node adjacency dictionaries that the differential tests pin the CSR
  kernel to.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.alphabet import Alphabet
from repro.automata.nfa import EPSILON_LABEL, NFA
from repro.graphdb.database import GraphDatabase, Node
from repro.regex import syntax as rx

#: When the candidate targets are this many times smaller than the candidate
#: sources, ``reachable_pairs`` switches to the backward product search.
BACKWARD_SEARCH_RATIO = 4

_CSR_KERNEL: ContextVar[bool] = ContextVar("repro_csr_kernel", default=True)


def csr_kernel_enabled() -> bool:
    """Whether the production CSR kernel is active in this context."""
    return _CSR_KERNEL.get()


@contextmanager
def csr_kernel_disabled() -> Iterator[None]:
    """Context manager that switches to the reference arm.

    Inside the context the searches run the seed's set-based BFS over the
    per-node adjacency dictionaries, relations are materialised eagerly as
    :class:`~repro.engine.joins.EdgeRelation` pair sets, and the Lemma 3
    synchronisation check intersects the DB-as-NFA views with the unit
    automata directly (``intersect_all``).  Context-local (a
    :class:`contextvars.ContextVar`), so nested uses and concurrent
    threads/tasks do not interfere.
    """
    token = _CSR_KERNEL.set(False)
    try:
        yield
    finally:
        _CSR_KERNEL.reset(token)


# ---------------------------------------------------------------------------
# CSR kernel
# ---------------------------------------------------------------------------


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` (ascending)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _NfaTables:
    """Dense bitmask tables of an NFA, with epsilon transitions pre-closed.

    ``closed[s]`` maps each non-epsilon label to the bitmask of the epsilon
    closures of all ``label``-successors of ``s``; seeding a search with
    ``start_mask`` (the closure of the start state) then makes explicit
    epsilon steps unnecessary: every state of a closure is individually
    present in the visited mask.
    """

    __slots__ = ("start_mask", "accepting_mask", "accepting_states", "closed")

    def __init__(self, nfa: NFA) -> None:
        closure_masks: List[int] = []
        for state in range(nfa.num_states):
            mask = 0
            for member in nfa.epsilon_closure({state}):
                mask |= 1 << member
            closure_masks.append(mask)
        self.start_mask = closure_masks[nfa.start]
        accepting_mask = 0
        for state in nfa.accepting:
            accepting_mask |= 1 << state
        self.accepting_mask = accepting_mask
        self.accepting_states = set(nfa.accepting)
        closed: List[Dict[Hashable, int]] = []
        for state in range(nfa.num_states):
            per_label: Dict[Hashable, int] = {}
            for label, target in nfa.transitions_from(state):
                if label is EPSILON_LABEL:
                    continue
                per_label[label] = per_label.get(label, 0) | closure_masks[target]
            closed.append(per_label)
        self.closed = closed


class CsrAdjacency:
    """Label-grouped CSR adjacency arrays of one database snapshot.

    Every node gets a dense integer id (``node_id`` / ``nodes``); for each
    label the successors are stored as a classic ``indptr``/``indices``
    array pair (``indptr[u]:indptr[u+1]`` is the slice of ``indices``
    holding ``u``'s targets).  Both the **forward** and the **reversed**
    direction are built in one pass over the edge list, so backward product
    searches never rebuild a reversed-edge index per call — the snapshot is
    memoised per database version by
    :meth:`repro.graphdb.cache.ReachabilityIndex.csr`.

    The snapshot holds no reference back to the database: like an eager pair
    set, it describes the database *version* it was built from.
    """

    __slots__ = ("version", "nodes", "node_id", "num_nodes", "forward", "backward",
                 "_step_masks")

    def __init__(self, db: GraphDatabase) -> None:
        self.version = db.version
        self.nodes: List[Node] = sorted(db.nodes, key=repr)
        self.node_id: Dict[Node, int] = {node: index for index, node in enumerate(self.nodes)}
        self.num_nodes = len(self.nodes)
        forward_per_label: Dict[str, List[Tuple[int, int]]] = {}
        backward_per_label: Dict[str, List[Tuple[int, int]]] = {}
        node_id = self.node_id
        # lint-allow: RA104 (the one-time CSR build for dict-backed databases; snapshots arrive via from_arrays and never reach this constructor)
        for edge in db.edges:
            source_id = node_id[edge.source]
            target_id = node_id[edge.target]
            forward_per_label.setdefault(edge.label, []).append((source_id, target_id))
            backward_per_label.setdefault(edge.label, []).append((target_id, source_id))
        self.forward = {
            label: self._pack(pairs) for label, pairs in forward_per_label.items()
        }
        self.backward = {
            label: self._pack(pairs) for label, pairs in backward_per_label.items()
        }
        # Per-label successor bitmasks (node id -> int mask), derived lazily
        # from the forward CSR slices for the bitmask product-track stepping.
        self._step_masks: Dict[str, List[int]] = {}

    @classmethod
    def from_arrays(
        cls,
        version: int,
        nodes: Sequence[Node],
        forward: Dict[str, Tuple[Sequence[int], Sequence[int]]],
        backward: Dict[str, Tuple[Sequence[int], Sequence[int]]],
    ) -> "CsrAdjacency":
        """Wrap pre-built ``indptr``/``indices`` arrays without a rebuild.

        Used by :mod:`repro.graphdb.storage` to construct the adjacency
        snapshot directly over the ``memoryview`` slices of an mmapped
        ``.rgsnap`` file: the array sections are consumed as-is (any
        integer-indexable sequence works — lists, ``array.array`` or cast
        memoryviews), so loading skips the per-edge counting sort entirely.
        ``version`` must be the owning database's version counter, or the
        per-version memo in
        :meth:`repro.graphdb.cache.ReachabilityIndex.csr` would miss.
        """
        snapshot = cls.__new__(cls)
        snapshot.version = version
        snapshot.nodes = list(nodes)
        snapshot.node_id = {node: index for index, node in enumerate(snapshot.nodes)}
        snapshot.num_nodes = len(snapshot.nodes)
        snapshot.forward = dict(forward)
        snapshot.backward = dict(backward)
        snapshot._step_masks = {}
        return snapshot

    def _pack(self, pairs: List[Tuple[int, int]]) -> Tuple[List[int], List[int]]:
        """Counting-sort ``(source, target)`` id pairs into indptr/indices."""
        n = self.num_nodes
        indptr = [0] * (n + 1)
        for source_id, _target_id in pairs:
            indptr[source_id + 1] += 1
        for index in range(n):
            indptr[index + 1] += indptr[index]
        indices = [0] * len(pairs)
        cursor = list(indptr)
        for source_id, target_id in pairs:
            indices[cursor[source_id]] = target_id
            cursor[source_id] += 1
        return indptr, indices

    def step_masks(self, label: str) -> Optional[List[int]]:
        """Per-node successor bitmasks for ``label`` (``None`` if unused).

        ``masks[u]`` is the int bitmask of the ``label``-successors of node
        id ``u``; built once per label on first use and shared by every
        product-track step.
        """
        masks = self._step_masks.get(label)
        if masks is None:
            entry = self.forward.get(label)
            if entry is None:
                return None
            indptr, indices = entry
            masks = [0] * self.num_nodes
            for node in range(self.num_nodes):
                mask = 0
                for position in range(indptr[node], indptr[node + 1]):
                    mask |= 1 << indices[position]
                masks[node] = mask
            self._step_masks[label] = masks
        return masks


def _shared_tables(db: GraphDatabase, nfa: NFA, reverse: bool = False) -> _NfaTables:
    """The bitmask tables of ``nfa`` (or its reversal), via the shared cache.

    Memoised by NFA fingerprint in the per-database
    :class:`~repro.graphdb.cache.ReachabilityIndex` (counters under
    ``cache_stats()['nfa_tables']``).
    """
    # Local import: cache imports this module at module scope.
    from repro.graphdb.cache import reachability_index

    return reachability_index(db).nfa_tables(nfa, reverse=reverse)


def _shared_csr(db: GraphDatabase) -> CsrAdjacency:
    """The per-database-version CSR snapshot, via the shared cache layer.

    Routed through :func:`repro.graphdb.cache.reachability_index` so the
    arrays are built once per database version (with honest hit/miss
    counters under ``cache_stats()['csr']``).
    """
    # Local import: cache imports this module at module scope.
    from repro.graphdb.cache import reachability_index

    return reachability_index(db).csr()


def _product_search_csr(
    label_csr: Dict[str, Tuple[List[int], List[int]]],
    tables: _NfaTables,
    source_id: int,
) -> Dict[int, int]:
    """Single-source product BFS over CSR arrays; node id -> NFA state mask."""
    reached: Dict[int, int] = {source_id: tables.start_mask}
    queue: deque = deque()
    queue.append((source_id, tables.start_mask))
    closed = tables.closed
    while queue:
        node, delta = queue.popleft()
        step: Dict[Hashable, int] = {}
        for state in _iter_bits(delta):
            for label, target_mask in closed[state].items():
                step[label] = step.get(label, 0) | target_mask
        for label, target_mask in step.items():
            entry = label_csr.get(label)
            if entry is None:
                continue
            indptr, indices = entry
            for position in range(indptr[node], indptr[node + 1]):
                db_target = indices[position]
                known = reached.get(db_target, 0)
                fresh = target_mask & ~known
                if fresh:
                    reached[db_target] = known | fresh
                    queue.append((db_target, fresh))
    return reached


def _reachable_pairs_csr(
    label_csr: Dict[str, Tuple[List[int], List[int]]],
    tables: _NfaTables,
    candidates: Sequence[int],
) -> Set[Tuple[int, int]]:
    """Multi-source product BFS over CSR arrays.

    Every product state ``(node, nfa_state)`` carries the bitmask of
    candidate indices known to reach it; newly arrived candidates are
    propagated in bulk via integer or/and-not instead of per-source BFS.
    Returns ``(candidate id, node id)`` pairs.
    """
    reached: Dict[Tuple[int, int], int] = {}
    dirty: Dict[Tuple[int, int], int] = {}
    queue: deque = deque()
    queued: Set[Tuple[int, int]] = set()
    start_states = list(_iter_bits(tables.start_mask))
    for index, source_id in enumerate(candidates):
        bit = 1 << index
        for state in start_states:
            key = (source_id, state)
            reached[key] = reached.get(key, 0) | bit
            dirty[key] = dirty.get(key, 0) | bit
            if key not in queued:
                queued.add(key)
                queue.append(key)
    closed = tables.closed
    while queue:
        key = queue.popleft()
        queued.discard(key)
        delta = dirty.pop(key, 0)
        if not delta:
            continue
        node, state = key
        transitions = closed[state]
        if not transitions:
            continue
        for label, target_mask in transitions.items():
            entry = label_csr.get(label)
            if entry is None:
                continue
            indptr, indices = entry
            for position in range(indptr[node], indptr[node + 1]):
                db_target = indices[position]
                for nfa_target in _iter_bits(target_mask):
                    successor = (db_target, nfa_target)
                    known = reached.get(successor, 0)
                    fresh = delta & ~known
                    if not fresh:
                        continue
                    reached[successor] = known | fresh
                    dirty[successor] = dirty.get(successor, 0) | fresh
                    if successor not in queued:
                        queued.add(successor)
                        queue.append(successor)
    accepting = tables.accepting_states
    pairs: Set[Tuple[int, int]] = set()
    for (node, state), source_mask in reached.items():
        if state in accepting:
            for index in _iter_bits(source_mask):
                pairs.add((candidates[index], node))
    return pairs


def _reverse_adjacency(db: GraphDatabase) -> Dict[Node, Dict[str, List[Node]]]:
    """The ``node -> {label: [predecessors]}`` index of the reversed database."""
    reverse: Dict[Node, Dict[str, List[Node]]] = {}
    # lint-allow: RA104 (reference arm only — the CSR kernel takes the csr.backward branch before reaching this rebuild)
    for edge in db.edges:
        reverse.setdefault(edge.target, {}).setdefault(edge.label, []).append(edge.source)
    return reverse


# ---------------------------------------------------------------------------
# Set-based kernel (the seed behaviour, kept as the reference arm)
# ---------------------------------------------------------------------------


def _product_search_sets(
    adjacency_of,
    in_db,
    nfa: NFA,
    source: Node,
) -> Dict[Node, Set[int]]:
    reached: Dict[Node, Set[int]] = {}
    if not in_db(source):
        # A node outside the database reaches nothing — not even itself via
        # epsilon, because paths of length 0 only exist at database nodes.
        return reached
    initial_states = nfa.epsilon_closure({nfa.start})
    queue: deque = deque()
    for state in initial_states:
        reached.setdefault(source, set()).add(state)
        queue.append((source, state))
    while queue:
        node, state = queue.popleft()
        adjacency = adjacency_of(node)
        for label, nfa_target in nfa.transitions_from(state):
            if label is EPSILON_LABEL:
                if nfa_target not in reached.get(node, set()):
                    reached.setdefault(node, set()).add(nfa_target)
                    queue.append((node, nfa_target))
                continue
            for db_target in adjacency.get(label, ()):
                if nfa_target not in reached.get(db_target, set()):
                    reached.setdefault(db_target, set()).add(nfa_target)
                    queue.append((db_target, nfa_target))
    return reached


def _reachable_pairs_sets(
    db: GraphDatabase,
    nfa: NFA,
    candidates: Sequence[Node],
) -> Set[Tuple[Node, Node]]:
    initial_states = nfa.epsilon_closure({nfa.start})
    accepting = nfa.accepting
    # reached: product state -> sources known to reach it.
    # dirty:   product state -> sources not yet propagated onward.
    reached: Dict[Tuple[Node, int], Set[Node]] = {}
    dirty: Dict[Tuple[Node, int], Set[Node]] = {}
    queue: deque = deque()
    queued: Set[Tuple[Node, int]] = set()
    for source in candidates:
        for state in initial_states:
            key = (source, state)
            reached.setdefault(key, set()).add(source)
            dirty.setdefault(key, set()).add(source)
            if key not in queued:
                queued.add(key)
                queue.append(key)
    while queue:
        key = queue.popleft()
        queued.discard(key)
        delta = dirty.pop(key, None)
        if not delta:
            continue
        node, state = key
        adjacency = db.labelled_successors(node)
        for label, nfa_target in nfa.transitions_from(state):
            if label is EPSILON_LABEL:
                successor_keys = [(node, nfa_target)]
            else:
                successor_keys = [(db_target, nfa_target) for db_target in adjacency.get(label, ())]
            for successor in successor_keys:
                known = reached.setdefault(successor, set())
                fresh = delta - known
                if not fresh:
                    continue
                known |= fresh
                dirty.setdefault(successor, set()).update(fresh)
                if successor not in queued:
                    queued.add(successor)
                    queue.append(successor)
    pairs: Set[Tuple[Node, Node]] = set()
    for (node, state), sources_here in reached.items():
        if state in accepting:
            for source in sources_here:
                pairs.add((source, node))
    return pairs


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def product_search(
    db: GraphDatabase,
    nfa: NFA,
    source: Node,
) -> Dict[Node, Set[int]]:
    """All pairs ``(node, nfa_state)`` reachable from ``(source, start)``.

    Returns a mapping from database node to the set of NFA states reachable
    while walking a common label sequence.
    """
    if not csr_kernel_enabled():
        return _product_search_sets(
            db.labelled_successors, db.nodes.__contains__, nfa, source
        )
    tables = _shared_tables(db, nfa)
    csr = _shared_csr(db)
    source_id = csr.node_id.get(source)
    if source_id is None:
        return {}
    id_masks = _product_search_csr(csr.forward, tables, source_id)
    nodes = csr.nodes
    return {nodes[node]: set(_iter_bits(mask)) for node, mask in id_masks.items()}


def reachable_from(db: GraphDatabase, nfa: NFA, source: Node) -> Set[Node]:
    """Nodes reachable from ``source`` via a path labelled by a word of ``L(nfa)``."""
    if not csr_kernel_enabled():
        reached = _product_search_sets(
            db.labelled_successors, db.nodes.__contains__, nfa, source
        )
        return {node for node, states in reached.items() if states & nfa.accepting}
    tables = _shared_tables(db, nfa)
    accepting_mask = tables.accepting_mask
    csr = _shared_csr(db)
    source_id = csr.node_id.get(source)
    if source_id is None:
        return set()
    id_masks = _product_search_csr(csr.forward, tables, source_id)
    nodes = csr.nodes
    return {nodes[node] for node, mask in id_masks.items() if mask & accepting_mask}


def reachable_to(db: GraphDatabase, nfa: NFA, target: Node) -> Set[Node]:
    """Nodes that reach ``target`` via a path labelled by a word of ``L(nfa)``.

    The backward counterpart of :func:`reachable_from`: a single-source
    product BFS from ``target`` over the reversed database with the reversed
    NFA.
    """
    if target not in db.nodes:
        return set()
    if not csr_kernel_enabled():
        reverse = _reverse_adjacency(db)
        reversed_nfa = nfa.reverse()
        reached = _product_search_sets(
            lambda node: reverse.get(node, {}), db.nodes.__contains__, reversed_nfa, target
        )
        return {
            node for node, states in reached.items() if states & reversed_nfa.accepting
        }
    # The reversed adjacency comes from the per-version CSR snapshot — built
    # once and shared with every other backward search instead of
    # re-indexing the whole edge list per call.
    csr = _shared_csr(db)
    tables = _shared_tables(db, nfa, reverse=True)
    id_masks = _product_search_csr(csr.backward, tables, csr.node_id[target])
    accepting_mask = tables.accepting_mask
    nodes = csr.nodes
    return {nodes[node] for node, mask in id_masks.items() if mask & accepting_mask}


def reachable_pairs(
    db: GraphDatabase,
    nfa: NFA,
    sources: Optional[Iterable[Node]] = None,
    targets: Optional[Iterable[Node]] = None,
) -> Set[Tuple[Node, Node]]:
    """All pairs ``(u, v)`` connected by a path labelled by a word of ``L(nfa)``.

    Implemented as a *single* multi-source BFS over the product graph; with
    the CSR kernel the per-product-state source sets are int bitmasks, so
    propagation is bulk integer arithmetic.  Nodes outside the database are
    ignored (they have no paths, not even the trivial empty one).

    ``sources`` and ``targets`` optionally restrict the first/second pair
    component.  When ``targets`` is given and is much smaller than the
    candidate source set (ratio :data:`BACKWARD_SEARCH_RATIO`), the CSR
    kernel runs the search **backward** from the targets over the reversed
    product graph, which costs ``O(|D| · |M|)`` per *target* instead of per
    source.  The reference arm always searches forward and filters.
    """
    # The sorted all-nodes list is only materialised when a forward search
    # actually needs candidate sources; the backward branch just needs the
    # candidate count for its selection ratio.
    source_list: Optional[List[Node]] = None
    if sources is not None:
        source_list = [source for source in sources if source in db.nodes]
        source_count = len(source_list)
    else:
        source_count = len(db.nodes)
    target_list: Optional[List[Node]] = None
    if targets is not None:
        seen: Set[Node] = set()
        target_list = []
        for target in targets:
            if target in db.nodes and target not in seen:
                seen.add(target)
                target_list.append(target)
        if not target_list:
            return set()
    if not source_count:
        return set()
    if not csr_kernel_enabled():
        if source_list is None:
            source_list = sorted(db.nodes, key=repr)
        pairs = _reachable_pairs_sets(db, nfa, source_list)
    elif target_list is not None and len(target_list) * BACKWARD_SEARCH_RATIO <= source_count:
        pairs = _backward_reachable_pairs(db, nfa, target_list)
        if source_list is not None:
            allowed = set(source_list)
            return {pair for pair in pairs if pair[0] in allowed}
        return pairs
    else:
        csr = _shared_csr(db)
        tables = _shared_tables(db, nfa)
        id_pairs = _reachable_pairs_csr(
            csr.forward, tables, _dense_ids(csr, source_list)
        )
        nodes = csr.nodes
        pairs = {(nodes[source_id], nodes[node]) for source_id, node in id_pairs}
    if target_list is not None:
        allowed = set(target_list)
        pairs = {pair for pair in pairs if pair[1] in allowed}
    return pairs


def _dense_ids(csr: CsrAdjacency, candidates: Optional[Sequence[Node]]) -> List[int]:
    """The dense ids of ``candidates`` (all nodes for ``None``), deduplicated."""
    if candidates is None:
        return list(range(csr.num_nodes))
    seen_ids: Set[int] = set()
    ids: List[int] = []
    for node in candidates:
        node_id = csr.node_id[node]
        if node_id not in seen_ids:
            seen_ids.add(node_id)
            ids.append(node_id)
    return ids


def _backward_reachable_pairs(
    db: GraphDatabase,
    nfa: NFA,
    target_list: Sequence[Node],
) -> Set[Tuple[Node, Node]]:
    """Multi-source product BFS from the *targets* over the reversed product.

    A pair ``(u, t)`` is connected by a word of ``L(nfa)`` iff ``u`` is
    reached from ``t`` in the reversed database by the reversed word, which
    the reversed NFA accepts — so the forward kernel applies verbatim to the
    reversed CSR arrays, with the pair components swapped on the way out.
    """
    tables = _shared_tables(db, nfa, reverse=True)
    csr = _shared_csr(db)
    swapped_ids = _reachable_pairs_csr(csr.backward, tables, _dense_ids(csr, target_list))
    nodes = csr.nodes
    return {(nodes[source], nodes[target]) for target, source in swapped_ids}


def evaluate_rpq(
    db: GraphDatabase,
    regex: rx.Xregex,
    alphabet: Optional[Alphabet] = None,
) -> Set[Tuple[Node, Node]]:
    """Evaluate a regular path query given by a classical regular expression."""
    nfa = NFA.from_regex(regex, alphabet or db.alphabet())
    return reachable_pairs(db, nfa)


def find_path_word(
    db: GraphDatabase,
    nfa: NFA,
    source: Node,
    target: Node,
    max_length: Optional[int] = None,
) -> Optional[str]:
    """A shortest word labelling a path ``source -> target`` accepted by ``nfa``.

    Returns ``None`` when no such path exists (or none within ``max_length``).
    Used to extract witness words for matching morphisms.
    """
    if source not in db.nodes or target not in db.nodes:
        # No path (not even the empty one) involves a node outside the database.
        return None
    initial = nfa.epsilon_closure({nfa.start})
    start_keys = [(source, state) for state in initial]
    parents: Dict[Tuple[Node, int], Optional[Tuple[Tuple[Node, int], Optional[str]]]] = {
        key: None for key in start_keys
    }
    queue: deque = deque((key, 0) for key in start_keys)
    if target == source and initial & nfa.accepting:
        return ""
    while queue:
        (node, state), depth = queue.popleft()
        if max_length is not None and depth >= max_length:
            continue
        for label, nfa_target in nfa.transitions_from(state):
            if label is EPSILON_LABEL:
                key = (node, nfa_target)
                if key not in parents:
                    parents[key] = ((node, state), None)
                    queue.append((key, depth))
                    if node == target and nfa_target in nfa.accepting:
                        return _reconstruct(parents, key)
                continue
            for db_target in db.successors_by_label(node, label):
                key = (db_target, nfa_target)
                if key not in parents:
                    parents[key] = ((node, state), label)
                    queue.append((key, depth + 1))
                    if db_target == target and nfa_target in nfa.accepting:
                        return _reconstruct(parents, key)
    return None


def _reconstruct(
    parents: Dict[Tuple[Node, int], Optional[Tuple[Tuple[Node, int], Optional[str]]]],
    key: Tuple[Node, int],
) -> str:
    symbols: List[str] = []
    current: Optional[Tuple[Node, int]] = key
    while current is not None and parents[current] is not None:
        parent, label = parents[current]  # type: ignore[misc]
        if label is not None:
            symbols.append(label)
        current = parent
    return "".join(reversed(symbols))


def db_nfa_between(db: GraphDatabase, source: Node, targets: Iterable[Node]) -> NFA:
    """Interpret the database as an NFA with start ``source`` and finals ``targets``.

    This is the observation of Section 2.2 that NFAs are just graph databases
    with designated states.  It rebuilds the whole transition table per call;
    the evaluation algorithms use the shared
    :class:`~repro.graphdb.cache.DatabaseAutomatonView` instead, and this
    construction stays as its independent oracle.
    """
    nfa = NFA()
    mapping: Dict[Node, int] = {}

    def state_of(node: Node) -> int:
        if node not in mapping:
            mapping[node] = nfa.add_state()
        return mapping[node]

    if source in db.nodes:
        mapping[source] = nfa.start
    # lint-allow: RA104 (the test oracle of DatabaseAutomatonView.between; no evaluation path builds it)
    for edge in db.edges:
        nfa.add_transition(state_of(edge.source), edge.label, state_of(edge.target))
    for target in targets:
        if target in db.nodes:
            nfa.set_accepting(state_of(target))
    return nfa
