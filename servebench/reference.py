"""An answer checker written apart from the program under test.

It shares no code with ``repro``: it has its own parser for the query
syntax the benchmark sends (single-letter symbols, ``()``, grouping, ``|``,
``*``, ``+``, ``?``, variable definitions ``w{...}`` and references
``&w``), its own Thompson construction, and a breadth-first search over
(graph node, automaton state) pairs on a plain edge list.

String variables are handled by literal instantiation: each variable takes
every word of its definition's language up to the image bound (or, for a
star-free definition without a bound, every word of its finite language);
the definition and every reference are replaced by that word, and the
union of the answers of the resulting classical queries is the answer.
That is exact when every definition lies on the mandatory spine of its
edge expression (not under ``|``, ``*``, ``+`` or ``?``), which holds for
every template the benchmark sends; other shapes raise
:class:`UnsupportedQuery` instead of answering.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

Triple = Tuple[str, str, str]


class UnsupportedQuery(ValueError):
    """Raised for query shapes literal instantiation cannot answer exactly."""


# -- parsing -----------------------------------------------------------------------
# Nodes are tuples: ("sym", a), ("eps",), ("alt", parts), ("cat", parts),
# ("star", x), ("plus", x), ("opt", x), ("def", name, body), ("ref", name).


def parse(text: str):
    tokens = [char for char in text if not char.isspace()]
    position = 0

    def peek() -> Optional[str]:
        return tokens[position] if position < len(tokens) else None

    def take() -> str:
        nonlocal position
        if position >= len(tokens):
            raise ValueError(f"unexpected end of expression {text!r}")
        position += 1
        return tokens[position - 1]

    def name() -> str:
        start = position
        while peek() is not None and (peek().isalnum() or peek() == "_"):
            take()
        if start == position:
            raise ValueError(f"expected a variable name in {text!r}")
        return "".join(tokens[start:position])

    def alternation():
        parts = [concatenation()]
        while peek() == "|":
            take()
            parts.append(concatenation())
        return parts[0] if len(parts) == 1 else ("alt", parts)

    def concatenation():
        parts = []
        while peek() is not None and peek() not in "|)}":
            parts.append(repetition())
        if not parts:
            return ("eps",)
        return parts[0] if len(parts) == 1 else ("cat", parts)

    def repetition():
        node = atom()
        while peek() is not None and peek() in "*+?":
            node = ({"*": "star", "+": "plus", "?": "opt"}[take()], node)
        return node

    def atom():
        nonlocal position
        char = take()
        if char == "(":
            inner = alternation()
            if take() != ")":
                raise ValueError(f"unbalanced parenthesis in {text!r}")
            return inner
        if char == "&":
            return ("ref", name())
        if char.isalpha() or char == "_":
            start = position - 1
            position = start
            label = name()
            if peek() == "{":
                take()
                body = alternation()
                if take() != "}":
                    raise ValueError(f"unbalanced brace in {text!r}")
                return ("def", label, body)
            position = start + 1
            return ("sym", char)
        raise ValueError(f"unexpected character {char!r} in {text!r}")

    node = alternation()
    if position != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return node


# -- automata ----------------------------------------------------------------------


class Automaton:
    """A Thompson NFA: ``moves[state]`` lists ``(symbol or None, next)``."""

    def __init__(self, node) -> None:
        self.moves: List[List[Tuple[Optional[str], int]]] = []
        self.start, self.accept = self._build(node)
        self._closures: Dict[int, FrozenSet[int]] = {}

    def _state(self) -> int:
        self.moves.append([])
        return len(self.moves) - 1

    def _build(self, node) -> Tuple[int, int]:
        kind = node[0]
        if kind in ("sym", "eps"):
            start, end = self._state(), self._state()
            self.moves[start].append((node[1] if kind == "sym" else None, end))
            return start, end
        if kind == "cat":
            start, end = self._build(node[1][0])
            for part in node[1][1:]:
                inner_start, inner_end = self._build(part)
                self.moves[end].append((None, inner_start))
                end = inner_end
            return start, end
        if kind == "alt":
            start, end = self._state(), self._state()
            for part in node[1]:
                inner_start, inner_end = self._build(part)
                self.moves[start].append((None, inner_start))
                self.moves[inner_end].append((None, end))
            return start, end
        if kind in ("star", "plus", "opt"):
            start, end = self._state(), self._state()
            inner_start, inner_end = self._build(node[1])
            self.moves[start].append((None, inner_start))
            self.moves[inner_end].append((None, end))
            if kind != "plus":
                self.moves[start].append((None, end))
            if kind != "opt":
                self.moves[inner_end].append((None, inner_start))
            return start, end
        raise UnsupportedQuery(f"string variables must be instantiated first ({kind})")

    def closure(self, state: int) -> FrozenSet[int]:
        cached = self._closures.get(state)
        if cached is None:
            seen, stack = {state}, [state]
            while stack:
                for symbol, target in self.moves[stack.pop()]:
                    if symbol is None and target not in seen:
                        seen.add(target)
                        stack.append(target)
            cached = self._closures[state] = frozenset(seen)
        return cached

    def accepts(self, word: str) -> bool:
        current = set(self.closure(self.start))
        for char in word:
            current = {
                reached
                for state in current
                for symbol, target in self.moves[state]
                if symbol == char
                for reached in self.closure(target)
            }
        return self.accept in current


# -- graphs ------------------------------------------------------------------------


class Graph:
    """An edge multiset plus its node set, with the out-adjacency it implies."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[Triple]) -> None:
        self.edges: Counter = Counter(edges)
        self.nodes: Set[str] = set(nodes)
        self.out: Dict[str, List[Tuple[str, str]]] = {}
        for (source, label, target) in self.edges:
            self.nodes.update((source, target))
            self.out.setdefault(source, []).append((label, target))

    def after(self, additions: Sequence[Triple], removals: Sequence[Triple]) -> "Graph":
        """The next generation: removals matched first, then additions."""
        edges = Counter(self.edges)
        for triple in removals:
            if edges[triple] < 1:
                raise ValueError(f"delta removes an absent edge {triple}")
            edges[triple] -= 1
        edges.update(additions)
        return Graph(self.nodes, +edges)

    def relation(self, automaton: Automaton) -> Set[Tuple[str, str]]:
        """Every ``(u, v)`` joined by a path whose label word the automaton accepts."""
        pairs: Set[Tuple[str, str]] = set()
        for source in self.nodes:
            seen = {(source, state) for state in automaton.closure(automaton.start)}
            queue = list(seen)
            while queue:
                node, state = queue.pop()
                if state == automaton.accept:
                    pairs.add((source, node))
                for symbol, after in automaton.moves[state]:
                    if symbol is None:
                        continue
                    for label, target in self.out.get(node, ()):
                        if label != symbol:
                            continue
                        for reached in automaton.closure(after):
                            if (target, reached) not in seen:
                                seen.add((target, reached))
                                queue.append((target, reached))
        return pairs


def parse_edge_list(text: str) -> Graph:
    """The ``.edges`` text format: ``source label target`` or ``node name`` lines."""
    nodes: List[str] = []
    edges: List[Triple] = []
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if len(fields) == 2 and fields[0] == "node":
            nodes.append(fields[1])
        elif len(fields) == 3:
            edges.append((fields[0], fields[1], fields[2]))
        elif fields:
            raise ValueError(f"bad edge line {line!r}")
    return Graph(nodes, edges)


def parse_delta(text: str) -> Tuple[List[Triple], List[Triple]]:
    """The delta text format: ``[+|-] source label target`` lines."""
    additions: List[Triple] = []
    removals: List[Triple] = []
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        into = additions
        if fields[0] in "+-" and len(fields) == 4:
            into = removals if fields[0] == "-" else additions
            fields = fields[1:]
        if len(fields) != 3:
            raise ValueError(f"bad delta line {line!r}")
        into.append((fields[0], fields[1], fields[2]))
    return additions, removals


# -- queries -----------------------------------------------------------------------


def _definitions(node, guarded: bool, found: Dict[str, object]) -> None:
    kind = node[0]
    if kind == "def":
        if guarded:
            raise UnsupportedQuery(f"definition of {node[1]!r} is not on the mandatory spine")
        if node[1] in found:
            raise UnsupportedQuery(f"variable {node[1]!r} is defined twice")
        found[node[1]] = node[2]
        _definitions(node[2], guarded, found)
    elif kind == "cat":
        for part in node[1]:
            _definitions(part, guarded, found)
    elif kind == "alt":
        for part in node[1]:
            _definitions(part, True, found)
    elif kind in ("star", "plus", "opt"):
        _definitions(node[1], True, found)


def _max_length(node) -> Optional[int]:
    kind = node[0]
    if kind == "sym":
        return 1
    if kind == "eps":
        return 0
    if kind in ("star", "plus"):
        return None
    if kind == "opt":
        return _max_length(node[1])
    if kind in ("cat", "alt"):
        lengths = [_max_length(part) for part in node[1]]
        if None in lengths:
            return None
        return sum(lengths) if kind == "cat" else max(lengths)
    raise UnsupportedQuery("nested string variables are not supported")


def _symbols(node, into: Set[str]) -> Set[str]:
    if node[0] == "sym":
        into.add(node[1])
    for part in node[1:]:
        if isinstance(part, tuple):
            _symbols(part, into)
        elif isinstance(part, list):
            for inner in part:
                _symbols(inner, into)
    return into


def _images(body, bound: Optional[int], alphabet: Set[str]) -> List[str]:
    longest = _max_length(body)
    if bound is None:
        if longest is None:
            raise UnsupportedQuery("an unbounded definition needs an image bound")
        bound = longest
    elif longest is not None:
        bound = min(bound, longest)
    automaton = Automaton(body)
    symbols = sorted(alphabet)
    return [
        "".join(letters)
        for length in range(bound + 1)
        for letters in product(symbols, repeat=length)
        if automaton.accepts("".join(letters))
    ]


def _substitute(node, images: Dict[str, str]):
    kind = node[0]
    if kind in ("def", "ref"):
        word = images[node[1]]
        return ("cat", [("sym", char) for char in word]) if word else ("eps",)
    if kind in ("cat", "alt"):
        return (kind, [_substitute(part, images) for part in node[1]])
    if kind in ("star", "plus", "opt"):
        return (kind, _substitute(node[1], images))
    return node


def _join(
    edges: Sequence[Tuple[str, Set[Tuple[str, str]], str]], output: Sequence[str]
) -> Set[Tuple[str, ...]]:
    answers: Set[Tuple[str, ...]] = set()
    by_source: List[Dict[str, List[Tuple[str, str]]]] = []
    by_target: List[Dict[str, List[Tuple[str, str]]]] = []
    for _source, pairs, _target in edges:
        forward: Dict[str, List[Tuple[str, str]]] = {}
        backward: Dict[str, List[Tuple[str, str]]] = {}
        for pair in pairs:
            forward.setdefault(pair[0], []).append(pair)
            backward.setdefault(pair[1], []).append(pair)
        by_source.append(forward)
        by_target.append(backward)

    def extend(index: int, binding: Dict[str, str]) -> bool:
        if index == len(edges):
            answers.add(tuple(binding[variable] for variable in output))
            return not output  # a Boolean query stops at the first match
        source, pairs, target = edges[index]
        if source in binding:
            candidates = by_source[index].get(binding[source], ())
        elif target in binding:
            candidates = by_target[index].get(binding[target], ())
        else:
            candidates = pairs
        for left, right in candidates:
            if binding.get(source, left) != left or binding.get(target, right) != right:
                continue
            if source == target and left != right:
                continue
            added = [v for v in (source, target) if v not in binding]
            binding.update({source: left, target: right})
            if extend(index + 1, binding):
                return True
            for variable in added:
                del binding[variable]
        return False

    extend(0, {})
    return answers


def answer(
    graph: Graph,
    edges: Sequence[Triple],
    output: Sequence[str] = (),
    image_bound: Optional[int] = None,
) -> Set[Tuple[str, ...]]:
    """The answer tuples of the query (``{()}``/``set()`` for a Boolean query)."""
    parsed = [(source, parse(label), target) for source, label, target in edges]
    definitions: Dict[str, object] = {}
    for _source, node, _target in parsed:
        _definitions(node, False, definitions)
    alphabet = {label for (_s, label, _t) in graph.edges}
    for _source, node, _target in parsed:
        _symbols(node, alphabet)
    names = sorted(definitions)
    choices = [_images(definitions[name], image_bound, alphabet) for name in names]
    answers: Set[Tuple[str, ...]] = set()
    relations: Dict[object, Set[Tuple[str, str]]] = {}
    for words in product(*choices):
        images = dict(zip(names, words))
        instantiated = []
        for source, node, target in parsed:
            node = _substitute(node, images)
            key = repr(node)
            if key not in relations:
                relations[key] = graph.relation(Automaton(node))
            instantiated.append((source, relations[key], target))
        answers |= _join(instantiated, output)
        if not output and answers:
            break
    return answers
