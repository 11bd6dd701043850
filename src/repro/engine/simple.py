"""Evaluation of simple CXRPQs (Lemma 3).

A simple conjunctive xregex is a concatenation of units — classical blocks,
variable references and basic variable definitions.  Following the proof of
Lemma 3, every pattern edge is split into a path of unit edges; units that
mention the same string variable must be matched by the *same* word.

The implementation decomposes the paper's big synchronous product into

1. a backtracking join over matching morphisms, driven by per-unit
   reachability relations (a necessary condition), and
2. one synchronisation check per string variable: the words readable along
   the database between the chosen endpoints of all units of that variable,
   intersected with the unit automata, must have a common element (computed
   with a lazy product automaton).

This is language-equivalent to the product graph ``G_{q',D}`` of Lemma 3 and
keeps the state space at ``O(|V_D|^{|group|})`` per variable group instead of
``O(|V_D|^{m'})`` overall.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.alphabet import Alphabet
from repro.core.errors import FragmentError
from repro.automata.nfa import NFA, intersect_all
from repro.engine.joins import join_morphisms
from repro.engine.results import DEFAULT_MATCH_LIMIT, EvaluationResult, Match
from repro.graphdb.cache import reachability_index
from repro.graphdb.database import GraphDatabase
from repro.graphdb.paths import csr_kernel_enabled, find_path_word
from repro.queries.cxrpq import CXRPQ
from repro.queries.pattern import GraphPattern
from repro.regex import properties as props
from repro.regex import syntax as rx

Node = Hashable

#: Prefix used for the fresh intermediate pattern nodes created by unit splitting.
_SEGMENT_PREFIX = "__seg"


def evaluate_simple(
    query: CXRPQ,
    db: GraphDatabase,
    alphabet: Optional[Alphabet] = None,
    *,
    boolean_short_circuit: bool = True,
    collect_witnesses: bool = False,
    match_limit: int = DEFAULT_MATCH_LIMIT,
    image_bound: Optional[int] = None,
    fixed: Optional[Dict[str, Node]] = None,
) -> EvaluationResult:
    """Evaluate a CXRPQ whose conjunctive xregex is simple (Lemma 3)."""
    conjunctive = query.conjunctive_xregex
    if not conjunctive.is_simple():
        raise FragmentError(
            "evaluate_simple requires a simple conjunctive xregex; "
            "use evaluate_vsf or evaluate_bounded for more general queries"
        )
    if image_bound is None:
        image_bound = query.resolve_image_bound(db.size())
    return evaluate_simple_components(
        query.pattern,
        list(conjunctive.components),
        query.output_variables,
        db,
        alphabet,
        defined_globally=conjunctive.defined_variables(),
        boolean_short_circuit=boolean_short_circuit,
        collect_witnesses=collect_witnesses,
        match_limit=match_limit,
        image_bound=image_bound,
        fixed=fixed,
    )


def evaluate_simple_components(
    pattern: GraphPattern,
    components: Sequence[rx.Xregex],
    output_variables: Sequence[str],
    db: GraphDatabase,
    alphabet: Optional[Alphabet] = None,
    *,
    defined_globally: Optional[Set[str]] = None,
    boolean_short_circuit: bool = True,
    collect_witnesses: bool = False,
    match_limit: int = DEFAULT_MATCH_LIMIT,
    image_bound: Optional[int] = None,
    fixed: Optional[Dict[str, Node]] = None,
) -> EvaluationResult:
    """Lemma 3 evaluation on raw components.

    ``defined_globally`` lists the variables that have a definition in the
    *original* query; references of such variables whose definition is not
    present among ``components`` (because a different alternation branch was
    chosen by the caller) are forced to the empty word, exactly as in the
    conjunctive semantics.
    """
    alphabet = alphabet or db.alphabet()
    components = _eliminate_alias_definitions(list(components))
    defined_now: Set[str] = set()
    for component in components:
        defined_now |= component.defined_variables()
    if defined_globally is None:
        defined_globally = set(defined_now)
    forced_epsilon = defined_globally - defined_now

    plan = _UnitPlan.build(pattern, components, alphabet, forced_epsilon)
    evaluator = _SimpleEvaluator(plan, db, alphabet, image_bound)
    is_boolean = not output_variables
    result = EvaluationResult()
    for morphism in evaluator.morphisms(fixed=fixed):
        output = tuple(morphism[variable] for variable in output_variables)
        result.tuples.add(output)
        if collect_witnesses and len(result.matches) < match_limit:
            words = evaluator.witness_words(morphism)
            restricted = {node: morphism[node] for node in pattern.nodes}
            result.matches.append(Match.from_dict(restricted, words))
        if is_boolean and boolean_short_circuit:
            return result
    return result


# ---------------------------------------------------------------------------
# Alias elimination (definitions of the form x{&y}, see the proof of Lemma 3)
# ---------------------------------------------------------------------------


def _eliminate_alias_definitions(components: List[rx.Xregex]) -> List[rx.Xregex]:
    """Replace definitions ``x{&y}`` and all references of ``x`` by references of ``y``."""
    while True:
        alias: Optional[Tuple[str, str]] = None
        for component in components:
            for definition in component.definitions():
                if isinstance(definition.body, rx.VarRef):
                    alias = (definition.name, definition.body.name)
                    break
            if alias:
                break
        if alias is None:
            return components
        source, target = alias
        replacement = rx.VarRef(target)
        components = [
            component.substitute_definitions({source: replacement}).substitute_references(
                {source: replacement}
            )
            for component in components
        ]


# ---------------------------------------------------------------------------
# Unit plan: edges split into units, automata and synchronisation groups
# ---------------------------------------------------------------------------


class _Unit:
    """One unit edge of the split pattern."""

    __slots__ = ("source", "target", "nfa", "variable", "kind", "edge_index")

    def __init__(self, source: str, target: str, nfa: NFA, variable: Optional[str], kind: str, edge_index: int):
        self.source = source
        self.target = target
        self.nfa = nfa
        self.variable = variable
        self.kind = kind  # "classical" | "definition" | "reference"
        self.edge_index = edge_index


class _UnitPlan:
    """The result of splitting all pattern edges into unit edges."""

    def __init__(self, pattern: GraphPattern, units: List[_Unit], groups: Dict[str, List[int]], edge_units: List[List[int]]):
        self.pattern = pattern
        self.units = units
        self.groups = groups
        self.edge_units = edge_units

    @property
    def nodes(self) -> List[str]:
        names: List[str] = list(self.pattern.nodes)
        for unit in self.units:
            for node in (unit.source, unit.target):
                if node not in names:
                    names.append(node)
        return names

    @classmethod
    def build(
        cls,
        pattern: GraphPattern,
        components: Sequence[rx.Xregex],
        alphabet: Alphabet,
        forced_epsilon: Set[str],
    ) -> "_UnitPlan":
        units: List[_Unit] = []
        groups: Dict[str, List[int]] = defaultdict(list)
        edge_units: List[List[int]] = []
        for edge_index, (edge, component) in enumerate(zip(pattern.edges, components)):
            pieces = props.split_simple(component)
            indices: List[int] = []
            current = edge.source
            for piece_index, piece in enumerate(pieces):
                is_last = piece_index == len(pieces) - 1
                target = edge.target if is_last else f"{_SEGMENT_PREFIX}{edge_index}_{piece_index}"
                if isinstance(piece, props.ClassicalUnit):
                    unit = _Unit(current, target, NFA.from_regex(piece.regex, alphabet), None, "classical", edge_index)
                elif isinstance(piece, props.DefinitionUnit):
                    unit = _Unit(current, target, NFA.from_regex(piece.body, alphabet), piece.variable, "definition", edge_index)
                else:  # ReferenceUnit
                    if piece.variable in forced_epsilon:
                        nfa = NFA.epsilon_only()
                    else:
                        nfa = NFA.universal(alphabet.symbols)
                    unit = _Unit(current, target, nfa, piece.variable, "reference", edge_index)
                units.append(unit)
                indices.append(len(units) - 1)
                if unit.variable is not None and unit.variable not in forced_epsilon:
                    groups[unit.variable].append(len(units) - 1)
                current = target
            edge_units.append(indices)
        return cls(pattern, units, dict(groups), edge_units)


class _SimpleEvaluator:
    """Morphism enumeration plus synchronisation checks for a unit plan.

    All reachability work goes through the shared per-database
    :class:`~repro.graphdb.cache.ReachabilityIndex`: unit relations are
    memoised by NFA fingerprint (identical units — e.g. repeated ``VarRef``
    universal automata — share one relation).  With the CSR kernel active
    the unit relations are :class:`~repro.graphdb.cache.LazyRelation`
    views: on endpoint-bound evaluations (``fixed``, the Check problem)
    dense ``VarRef`` relations expand row by row — backward over the
    reversed CSR arrays when the target side is the bound one — instead of
    materialising ``O(n²)`` pair sets, and the synchronisation products
    explore bitmask track states.  Only the reference arm
    (:func:`~repro.graphdb.paths.csr_kernel_disabled`) builds the DB-as-NFA
    view, for its direct ``intersect_all`` construction.
    """

    def __init__(self, plan: _UnitPlan, db: GraphDatabase, alphabet: Alphabet, image_bound: Optional[int]):
        self.plan = plan
        self.db = db
        self.alphabet = alphabet
        self.image_bound = image_bound
        index = reachability_index(db)
        self._index = index
        # The arm is captured with the relations, so one evaluation never
        # mixes production relations with reference-arm synchronisation.
        self._reference_arm = not csr_kernel_enabled()
        self.relations = [index.relation(unit.nfa) for unit in plan.units]
        # Shortest synchronising word per (variable, group endpoints); the
        # check only depends on the endpoints, which repeat across morphisms.
        self._sync_cache: Dict[Tuple[str, Tuple[Tuple[Node, Node], ...]], Optional[Tuple]] = {}
        # The endpoint-parameterised product view of each variable group,
        # resolved once per evaluation (not once per morphism).
        self._group_views: Dict[str, object] = {}

    # -- morphism enumeration -----------------------------------------------------

    def morphisms(self, fixed: Optional[Dict[str, Node]] = None) -> Iterator[Dict[str, Node]]:
        endpoints = [(unit.source, unit.target) for unit in self.plan.units]
        yield from join_morphisms(
            endpoints,
            self.relations,
            self.plan.nodes,
            sorted(self.db.nodes, key=repr),
            fixed=fixed,
            check=self._check_synchronisation,
        )

    # -- synchronisation -----------------------------------------------------------

    def _group_product(self, morphism: Dict[str, Node], members: Sequence[int]) -> NFA:
        """The direct Lemma 3 construction of the reference arm."""
        db_view = self._index.view()
        automata: List[NFA] = []
        for index in members:
            unit = self.plan.units[index]
            automata.append(db_view.between(morphism[unit.source], [morphism[unit.target]]))
            automata.append(unit.nfa)
        return intersect_all(automata)

    def _group_shortest(self, morphism: Dict[str, Node], variable: str) -> Optional[Tuple]:
        """The shortest word synchronising ``variable``'s units, memoised.

        The synchronisation product only depends on the endpoints the
        morphism assigns to the group's units, so the result is cached per
        endpoint tuple and shared across the (many) morphisms that agree on
        that part of the assignment.  In production the product automaton
        itself comes from the per-database
        :class:`~repro.graphdb.cache.SynchronisationProductCache` — built
        once per (db version, unit fingerprints) and parameterised by the
        endpoints — so its memoised expansion and shortest words are shared
        across evaluations (e.g. the VSF disjunct combinations) as well.
        """
        members = self.plan.groups[variable]
        endpoints = tuple(
            (morphism[self.plan.units[i].source], morphism[self.plan.units[i].target]) for i in members
        )
        key = (variable, endpoints)
        if key in self._sync_cache:
            return self._sync_cache[key]
        if self._reference_arm:
            shortest = self._group_product(morphism, members).shortest_word()
        else:
            view = self._group_views.get(variable)
            if view is None:
                view = self._index.group_product([self.plan.units[i].nfa for i in members])
                self._group_views[variable] = view
            shortest = view.shortest_word(endpoints)
        self._sync_cache[key] = shortest
        return shortest

    def _check_synchronisation(self, morphism: Dict[str, Node]) -> bool:
        for variable, members in self.plan.groups.items():
            needs_check = len(members) > 1 or self.image_bound is not None or any(
                self.plan.units[index].kind == "definition" for index in members
            )
            if not needs_check:
                continue
            shortest = self._group_shortest(morphism, variable)
            if shortest is None:
                return False
            if self.image_bound is not None and len(shortest) > self.image_bound:
                return False
        return True

    # -- witnesses --------------------------------------------------------------------

    def witness_words(self, morphism: Dict[str, Node]) -> List[str]:
        """One witness word per original pattern edge (concatenated unit words)."""
        variable_word: Dict[str, str] = {}
        for variable in self.plan.groups:
            shortest = self._group_shortest(morphism, variable)
            variable_word[variable] = "".join(shortest or ())
        words: List[str] = []
        for indices in self.plan.edge_units:
            pieces: List[str] = []
            for index in indices:
                unit = self.plan.units[index]
                if unit.variable is not None and unit.variable in variable_word:
                    pieces.append(variable_word[unit.variable])
                else:
                    source = morphism[unit.source]
                    target = morphism[unit.target]
                    pieces.append(find_path_word(self.db, unit.nfa, source, target) or "")
            words.append("".join(pieces))
        return words
