"""Backtracking join of per-edge relations into matching morphisms.

Every evaluation algorithm of the paper ultimately searches for a matching
morphism ``h`` from the pattern nodes to the database nodes such that each
edge's endpoints land in a per-edge relation (plus, for CXRPQ/ECRPQ,
additional synchronisation constraints).  This module implements that search
once: a greedy, index-backed backtracking join.

Planning decisions — which edge to bind next, which deferred lazy edge an
all-lazy component forces, and which direction a lazy edge expands from —
are delegated to an explicit :class:`repro.engine.planner.JoinPlan` built
once per join, whose costs come from per-database cardinality statistics.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.engine.planner import JoinPlan

Node = Hashable

#: Shared immutable empty row, handed out for every miss instead of a fresh
#: ``set()`` allocation inside the innermost backtracking loop.
_EMPTY_NODES: FrozenSet[Node] = frozenset()


class EdgeRelation:
    """A binary relation over database nodes with hash indexes on both columns.

    The row indexes hold **frozen** sets: ``targets_of``/``sources_of`` hand
    them out directly (no defensive copy per call), and a caller that tries
    to mutate a returned row gets an ``AttributeError`` instead of silently
    corrupting the index for every later lookup.  Callers that need a
    mutable set make their own copy on demand.
    """

    #: Eager relations always hold their full pair set; the lazy CSR-backed
    #: relation (:class:`repro.graphdb.cache.LazyRelation`) overrides this.
    materialised = True

    __slots__ = ("pairs", "by_source", "by_target")

    def __init__(self, pairs: Iterable[Tuple[Node, Node]]):
        self.pairs: Set[Tuple[Node, Node]] = set(pairs)
        by_source: Dict[Node, Set[Node]] = {}
        by_target: Dict[Node, Set[Node]] = {}
        for source, target in self.pairs:
            by_source.setdefault(source, set()).add(target)
            by_target.setdefault(target, set()).add(source)
        self.by_source: Dict[Node, FrozenSet[Node]] = {
            source: frozenset(targets) for source, targets in by_source.items()
        }
        self.by_target: Dict[Node, FrozenSet[Node]] = {
            target: frozenset(sources) for target, sources in by_target.items()
        }

    def __contains__(self, pair: Tuple[Node, Node]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def size_hint(self) -> int:
        """The cost-model size (exact for eager relations)."""
        return len(self.pairs)

    def targets_of(self, source: Node) -> FrozenSet[Node]:
        return self.by_source.get(source, _EMPTY_NODES)

    def sources_of(self, target: Node) -> FrozenSet[Node]:
        return self.by_target.get(target, _EMPTY_NODES)


def semijoin_reduce(
    edge_endpoints: Sequence[Tuple[str, str]],
    edge_relations: Sequence[EdgeRelation],
    fixed: Optional[Dict[str, Node]] = None,
    plan: Optional[JoinPlan] = None,
) -> List[EdgeRelation]:
    """Restrict each relation by its neighbours before backtracking.

    Classic semi-join pre-pruning: the admissible domain of every pattern
    variable is the intersection, over its incident edges, of the matching
    relation column (seeded by ``fixed``); relations are filtered down to
    pairs whose endpoints survive, and the process iterates to a fixpoint.
    Self-loop edges (``source == target``) are restricted to the diagonal up
    front.  The result enumerates exactly the same complete morphisms, but
    the backtracking search touches far fewer dead branches.  Relations that
    lose no pairs are returned as the original objects (identity preserved).

    Two refinements over the naive fixpoint loop:

    * **dirty-variable worklist** — after the initial pass, an edge is only
      refiltered when one of its incident variables' domains actually
      shrank, instead of refiltering every edge's whole pair set per round;
    * **lazy relations stay lazy** — an unmaterialised CSR-backed relation
      (``relation.materialised`` is ``False``) enters the fixpoint only
      once one of its endpoint domains is known, and is then expanded *from
      that domain* with per-source rows — **backward** (``sources_of``, the
      reversed product search) or forward, as chosen by the plan's
      estimated frontier costs.  Only when no domain ever becomes available
      (a pattern component with no fixed variable and no eager edge) is a
      single lazy edge — the one the plan estimates cheapest to materialise
      — forced to its full pair set per component, and the domains it
      yields activate its neighbours row-wise.
    """
    if not edge_endpoints:
        return list(edge_relations)
    if plan is None:
        plan = JoinPlan(edge_endpoints, edge_relations)
    count = len(edge_endpoints)
    domains: Dict[str, Set[Node]] = {
        variable: {value} for variable, value in (fixed or {}).items()
    }
    edges_of_variable: Dict[str, List[int]] = {}
    for index, (source, target) in enumerate(edge_endpoints):
        edges_of_variable.setdefault(source, []).append(index)
        if target != source:
            edges_of_variable.setdefault(target, []).append(index)

    # ``None`` marks a lazy edge whose expansion is still deferred.
    pairs_per_edge: List[Optional[Set[Tuple[Node, Node]]]] = [None] * count
    deferred: Set[int] = set()

    pending: deque = deque()
    in_pending: Set[str] = set()

    def mark_dirty(variable: str) -> None:
        if variable not in in_pending:
            in_pending.add(variable)
            pending.append(variable)

    def update_domains(index: int) -> None:
        source, target = edge_endpoints[index]
        pairs = pairs_per_edge[index]
        for variable, column in (
            (source, {u for u, _ in pairs}),
            (target, {v for _, v in pairs}),
        ):
            previous = domains.get(variable)
            if previous is None:
                domains[variable] = column
                mark_dirty(variable)
            elif not previous <= column:
                domains[variable] = previous & column
                mark_dirty(variable)

    def filter_edge(index: int) -> None:
        source, target = edge_endpoints[index]
        domain_source = domains.get(source)
        domain_target = domains.get(target)
        pairs = pairs_per_edge[index]
        filtered = {
            (u, v)
            for u, v in pairs
            if (source != target or u == v)
            and (domain_source is None or u in domain_source)
            and (domain_target is None or v in domain_target)
        }
        pairs_per_edge[index] = filtered
        update_domains(index)

    def activate_lazy(index: int) -> None:
        """Expand a deferred lazy edge from its known endpoint domain(s).

        The expansion direction is the plan's call: with one bound side
        there is no choice; with both bound, planner v2 compares the
        estimated frontiers (domain size × direction-aware expected
        fanout), v1 simply the domain sizes.  ``sources_of`` rows run the
        backward product search over the reversed CSR arrays.
        """
        relation = edge_relations[index]
        source, target = edge_endpoints[index]
        domain_source = domains.get(source)
        domain_target = domains.get(target)
        if source == target:
            pairs = {
                (value, value)
                for value in domain_source
                if value in relation.targets_of(value)
            }
        elif plan.activation_direction(index, domain_source, domain_target) == "forward":
            pairs = {
                (u, v)
                for u in domain_source
                for v in relation.targets_of(u)
                if domain_target is None or v in domain_target
            }
        else:
            pairs = {
                (u, v)
                for v in domain_target
                for u in relation.sources_of(v)
                if domain_source is None or u in domain_source
            }
        deferred.discard(index)
        pairs_per_edge[index] = pairs
        update_domains(index)

    # Initial pass: eager (or already materialised) edges are filtered once;
    # lazy edges whose endpoints have no domain yet are deferred.
    for index, relation in enumerate(edge_relations):
        source, target = edge_endpoints[index]
        if not getattr(relation, "materialised", True) and not (
            source in domains or target in domains
        ):
            deferred.add(index)
            continue
        if getattr(relation, "materialised", True):
            pairs_per_edge[index] = relation.pairs
            filter_edge(index)
        else:
            activate_lazy(index)

    while True:
        while pending:
            variable = pending.popleft()
            in_pending.discard(variable)
            for index in edges_of_variable.get(variable, ()):
                if index in deferred:
                    activate_lazy(index)
                elif pairs_per_edge[index] is not None:
                    filter_edge(index)
        if not deferred:
            break
        # A pattern component made solely of lazy edges with no fixed
        # variable: force exactly one edge — the plan's estimated-cheapest
        # relation — whose columns then activate the rest of the component
        # row-wise through the worklist (the forced edge's endpoints had no
        # domains, so ``update_domains`` necessarily creates them and marks
        # both variables dirty).
        forced = plan.forced_edge(deferred)
        deferred.discard(forced)
        pairs_per_edge[forced] = edge_relations[forced].pairs
        plan.note_forced(len(pairs_per_edge[forced]))
        filter_edge(forced)

    reduced: List[EdgeRelation] = []
    for pairs, relation in zip(pairs_per_edge, edge_relations):
        # The identity check would force an unmaterialised lazy relation to
        # its full pair set — compare only when the pairs already exist.
        if getattr(relation, "materialised", True) and pairs == relation.pairs:
            reduced.append(relation)
        else:
            reduced.append(EdgeRelation(pairs))
    return reduced


def join_morphisms(
    edge_endpoints: Sequence[Tuple[str, str]],
    edge_relations: Sequence[EdgeRelation],
    pattern_nodes: Sequence[str],
    database_nodes: Sequence[Node],
    fixed: Optional[Dict[str, Node]] = None,
    check: Optional[Callable[[Dict[str, Node]], bool]] = None,
    prune: bool = True,
) -> Iterator[Dict[str, Node]]:
    """Enumerate all morphisms consistent with the per-edge relations.

    Parameters
    ----------
    edge_endpoints:
        ``(source_variable, target_variable)`` per edge.
    edge_relations:
        The admissible node pairs per edge, positionally aligned with
        ``edge_endpoints``.
    pattern_nodes:
        Every node variable of the pattern (including isolated ones).
    database_nodes:
        The nodes of the database (candidates for isolated variables).
    fixed:
        A partial assignment that every produced morphism must extend
        (used by the Check problem, where the output tuple is given).
    check:
        An optional predicate evaluated on each complete assignment; only
        assignments passing the predicate are yielded (used for string
        variable synchronisation and relation constraints).
    prune:
        Apply :func:`semijoin_reduce` before searching (default).  The set
        of produced morphisms is identical either way.
    """
    if len(edge_endpoints) != len(edge_relations):
        raise ValueError("edge_endpoints and edge_relations must have equal length")
    assignment: Dict[str, Node] = dict(fixed or {})
    unknown = [node for node in assignment if node not in pattern_nodes]
    if unknown:
        raise ValueError(f"fixed assignment mentions unknown pattern nodes {unknown}")
    if prune:
        edge_relations = semijoin_reduce(
            edge_endpoints,
            edge_relations,
            fixed,
            plan=JoinPlan(edge_endpoints, edge_relations),
        )
    # The backtracking phase plans over the (possibly reduced) relations —
    # the reduction replaces pair sets, so pre-reduction estimates are stale.
    plan = JoinPlan(edge_endpoints, edge_relations)
    remaining = list(range(len(edge_endpoints)))
    yield from _extend(
        assignment,
        remaining,
        edge_endpoints,
        edge_relations,
        pattern_nodes,
        database_nodes,
        check,
        plan,
    )


def _select_edge(
    remaining: List[int],
    edge_endpoints: Sequence[Tuple[str, str]],
    edge_relations: Sequence[EdgeRelation],
    assignment: Dict[str, Node],
    plan: Optional[JoinPlan] = None,
) -> int:
    """Pick the remaining edge with the smallest estimated branching cost.

    The cost model counts the *candidate-domain size* the edge would branch
    over given the current partial assignment — the exact indexed fan-out of
    the bound endpoint for half-bound edges — rather than the raw relation
    size alone.  Fully bound edges cost nothing (a membership check that can
    only prune), half-bound edges cost their column fan-out, unbound edges
    cost the plan's estimated relation cardinality (planner v2: a
    statistics sketch for unmaterialised lazy relations, exact otherwise;
    v1: the raw ``size_hint``, a pessimistic ``n²`` for lazy relations, so
    binding goes through already-materialised edges first).  Ties break on
    the position in ``remaining``, keeping the selection deterministic;
    relation sizes only enter through the actual domains, which keeps the
    semi-join pre-pruning from shifting the search into a worse region (the
    thm2 @ 160 nodes regression).

    For a target-bound edge the fan-out probe *is* the backward product
    search: a lazy relation's ``sources_of`` row runs over the reversed CSR
    arrays with the reversed NFA, and the memoised row is then reused by
    the expansion itself — the planner chooses the search direction simply
    by which endpoint is bound.
    """
    if plan is None:
        plan = JoinPlan(edge_endpoints, edge_relations)
    best_index = remaining[0]
    best_cost: Optional[Tuple[int, int]] = None
    for index in remaining:
        source, target = edge_endpoints[index]
        relation = edge_relations[index]
        source_value = assignment.get(source)
        target_value = assignment.get(target)
        if source_value is not None and target_value is not None:
            cost = (0, 0)
        elif source_value is not None:
            cost = (1, len(relation.targets_of(source_value)))
        elif target_value is not None:
            cost = (1, len(relation.sources_of(target_value)))
        else:
            cost = (2, plan.unbound_cost(index))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_index = index
            if cost == (0, 0):
                break
    return best_index


def _extend(
    assignment: Dict[str, Node],
    remaining: List[int],
    edge_endpoints: Sequence[Tuple[str, str]],
    edge_relations: Sequence[EdgeRelation],
    pattern_nodes: Sequence[str],
    database_nodes: Sequence[Node],
    check: Optional[Callable[[Dict[str, Node]], bool]],
    plan: Optional[JoinPlan] = None,
) -> Iterator[Dict[str, Node]]:
    if plan is None:
        plan = JoinPlan(edge_endpoints, edge_relations)
    if not remaining:
        # Assign any pattern nodes that occur in no edge.
        unassigned = [node for node in pattern_nodes if node not in assignment]
        yield from _assign_isolated(assignment, unassigned, database_nodes, check)
        return
    index = _select_edge(remaining, edge_endpoints, edge_relations, assignment, plan)
    rest = [edge for edge in remaining if edge != index]
    source, target = edge_endpoints[index]
    relation = edge_relations[index]
    source_value = assignment.get(source)
    target_value = assignment.get(target)
    if source_value is not None and target_value is not None:
        if (source_value, target_value) in relation:
            yield from _extend(assignment, rest, edge_endpoints, edge_relations, pattern_nodes, database_nodes, check, plan)
        return
    if source_value is not None:
        candidates = relation.targets_of(source_value)
        if source == target:
            candidates = candidates & {source_value}
        for candidate in sorted(candidates, key=repr):
            assignment[target] = candidate
            yield from _extend(assignment, rest, edge_endpoints, edge_relations, pattern_nodes, database_nodes, check, plan)
            del assignment[target]
        return
    if target_value is not None:
        candidates = relation.sources_of(target_value)
        for candidate in sorted(candidates, key=repr):
            assignment[source] = candidate
            yield from _extend(assignment, rest, edge_endpoints, edge_relations, pattern_nodes, database_nodes, check, plan)
            del assignment[source]
        return
    for pair_source, pair_target in sorted(relation.pairs, key=repr):
        if source == target and pair_source != pair_target:
            continue
        assignment[source] = pair_source
        assignment[target] = pair_target
        yield from _extend(assignment, rest, edge_endpoints, edge_relations, pattern_nodes, database_nodes, check, plan)
        if source != target:
            del assignment[target]
        del assignment[source]


def _assign_isolated(
    assignment: Dict[str, Node],
    unassigned: List[str],
    database_nodes: Sequence[Node],
    check: Optional[Callable[[Dict[str, Node]], bool]],
) -> Iterator[Dict[str, Node]]:
    if not unassigned:
        if check is None or check(assignment):
            yield dict(assignment)
        return
    node = unassigned[0]
    for candidate in sorted(database_nodes, key=repr):
        assignment[node] = candidate
        yield from _assign_isolated(assignment, unassigned[1:], database_nodes, check)
        del assignment[node]
