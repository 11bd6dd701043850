"""Evaluation of ECRPQs (extended CRPQs with regular relations).

The algorithm combines the CRPQ join with one synchronous product check per
relation constraint: the words matched along the constrained edges, read in
lock-step with end-of-word padding, must be accepted by the relation's
synchronous automaton while each individual word labels a database path
between the morphism's endpoints and belongs to the edge's own regular
language.  This realises the PSpace combined / NL data complexity algorithm
of Barceló et al. [8] at the scale needed for the expressiveness experiments
of Section 7.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.alphabet import Alphabet
from repro.automata.nfa import EPSILON_LABEL, NFA
from repro.automata.relations import PAD, RegularRelation
from repro.engine.crpq import edge_relations
from repro.engine.joins import join_morphisms
from repro.engine.results import DEFAULT_MATCH_LIMIT, EvaluationResult, Match
from repro.graphdb.cache import reachability_index
from repro.graphdb.database import GraphDatabase
from repro.graphdb.paths import find_path_word
from repro.queries.ecrpq import ECRPQ

Node = Hashable


def evaluate_ecrpq(
    query: ECRPQ,
    db: GraphDatabase,
    alphabet: Optional[Alphabet] = None,
    *,
    boolean_short_circuit: bool = True,
    collect_witnesses: bool = False,
    match_limit: int = DEFAULT_MATCH_LIMIT,
    fixed: Optional[Dict[str, Node]] = None,
) -> EvaluationResult:
    """Evaluate an ECRPQ, returning ``q(D)``."""
    alphabet = alphabet or db.alphabet()
    # Lazy CSR relations (see engine.crpq.edge_relations): with ``fixed``
    # endpoints the join expands per-source rows — backward for
    # target-bound edges — instead of materialising full pair sets.
    relations, nfas = edge_relations(query, db, alphabet)
    endpoints = [(edge.source, edge.target) for edge in query.pattern.edges]
    constraint_automata = [
        constraint.relation.automaton(alphabet) for constraint in query.constraints
    ]
    # The synchronisation verdict only depends on the relation automaton,
    # the constrained edges' automata and the endpoint pairs the morphism
    # assigns to them; those repeat heavily across the morphisms of a join
    # *and* across evaluations.  Two memo levels: an unbounded
    # per-evaluation dict (the verdict key space is O(|V|^k) per constraint
    # and must never thrash mid-join), backed by the shared per-database
    # index so verdicts survive across evaluations.
    index = reachability_index(db)
    local_verdicts: Dict[Tuple[int, Tuple[Tuple[Node, Node], ...]], bool] = {}

    def check(morphism: Dict[str, Node]) -> bool:
        for constraint_index, (constraint, relation_nfa) in enumerate(
            zip(query.constraints, constraint_automata)
        ):
            tracks = []
            for edge_index in constraint.edge_indices:
                source, target = endpoints[edge_index]
                tracks.append((morphism[source], morphism[target], nfas[edge_index]))
            track_endpoints = tuple((s, t) for s, t, _nfa in tracks)
            local_key = (constraint_index, track_endpoints)
            verdict = local_verdicts.get(local_key)
            if verdict is None:
                verdict = index.sync_verdict(
                    relation_nfa,
                    [nfas[edge_index] for edge_index in constraint.edge_indices],
                    track_endpoints,
                    lambda tracks=tracks, relation_nfa=relation_nfa: synchronized_relation_check(
                        db, tracks, relation_nfa
                    ),
                )
                local_verdicts[local_key] = verdict
            if not verdict:
                return False
        return True

    result = EvaluationResult()
    for morphism in join_morphisms(
        endpoints,
        relations,
        query.pattern.nodes,
        sorted(db.nodes, key=repr),
        fixed=fixed,
        check=check,
    ):
        output = tuple(morphism[variable] for variable in query.output_variables)
        result.tuples.add(output)
        if collect_witnesses and len(result.matches) < match_limit:
            words = [
                find_path_word(db, nfa, morphism[source], morphism[target]) or ""
                for (source, target), nfa in zip(endpoints, nfas)
            ]
            result.matches.append(Match.from_dict(morphism, words))
        if query.is_boolean and boolean_short_circuit:
            return result
    return result


def ecrpq_holds(query: ECRPQ, db: GraphDatabase, alphabet: Optional[Alphabet] = None) -> bool:
    """Boolean evaluation ``D |= q`` for ECRPQs."""
    return evaluate_ecrpq(query, db, alphabet).boolean


def synchronized_relation_check(
    db: GraphDatabase,
    tracks: Sequence[Tuple[Node, Node, NFA]],
    relation_nfa: NFA,
) -> bool:
    """Decide whether words ``w_1, …, w_s`` exist such that

    * ``w_i`` labels a database path from ``source_i`` to ``target_i``,
    * ``w_i`` is accepted by the ``i``-th edge automaton, and
    * the padded tuple ``(w_1, …, w_s)`` is accepted by ``relation_nfa``.

    Implemented as a breadth-first search over the lazy product of the
    database walks, the edge automata and the relation automaton; tracks that
    have reached their target and an accepting automaton state may switch to
    the padding symbol and must then stay padded.
    """
    start_states = []
    for source, _target, nfa in tracks:
        start_states.append((source, frozenset(nfa.epsilon_closure({nfa.start})), False))
    relation_start = frozenset(relation_nfa.epsilon_closure({relation_nfa.start}))
    initial = (tuple(start_states), relation_start)
    seen = {initial}
    queue = deque([initial])
    while queue:
        track_states, relation_states = queue.popleft()
        if relation_states & relation_nfa.accepting and all(
            _track_can_finish(track, tracks[i]) for i, track in enumerate(track_states)
        ):
            return True
        # Collect candidate tuple labels from the relation automaton.
        labels: Set[Tuple[object, ...]] = set()
        for state in relation_states:
            for label, _t in relation_nfa.transitions_from(state):
                if label is not EPSILON_LABEL:
                    labels.add(label)
        for label in labels:
            successor_tracks = []
            feasible = True
            for position, symbol in enumerate(label):
                node, states, padded = track_states[position]
                _source, target, nfa = tracks[position]
                if symbol is PAD:
                    if not _track_can_finish(track_states[position], tracks[position]):
                        feasible = False
                        break
                    successor_tracks.append((node, states, True))
                    continue
                if padded:
                    feasible = False
                    break
                next_nodes = db.successors_by_label(node, symbol)
                next_states = nfa.step(states, symbol)
                if not next_nodes or not next_states:
                    feasible = False
                    break
                # Nondeterministic choice of the database successor: expand all.
                successor_tracks.append((next_nodes, frozenset(next_states), False))
            if not feasible:
                continue
            for expanded in _expand_track_choices(successor_tracks):
                successor = (expanded, relation_nfa.step(relation_states, label))
                if not successor[1]:
                    continue
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
    return False


def _track_can_finish(track_state: Tuple[object, FrozenSet[int], bool], track: Tuple[Node, Node, NFA]) -> bool:
    node, states, _padded = track_state
    _source, target, nfa = track
    return node == target and bool(states & nfa.accepting)


def _expand_track_choices(successor_tracks: List[object]):
    """Expand the per-track nondeterministic database successors into tuples."""
    results: List[List[Tuple[object, FrozenSet[int], bool]]] = [[]]
    for entry in successor_tracks:
        node_or_nodes, states, padded = entry
        if isinstance(node_or_nodes, list):
            choices = [(node, states, padded) for node in node_or_nodes]
        else:
            choices = [(node_or_nodes, states, padded)]
        results = [prefix + [choice] for prefix in results for choice in choices]
    return [tuple(expanded) for expanded in results]
