"""Shared helpers for the test suite: random generators and cross-validation."""

from __future__ import annotations

import random
from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple

from repro.core.alphabet import Alphabet
from repro.automata.nfa import NFA
from repro.graphdb.database import GraphDatabase
from repro.graphdb.generators import random_graph, scale_free_graph
from repro.graphdb.paths import csr_kernel_disabled
from repro.graphdb.storage import dump_snapshot_bytes, load_snapshot_bytes
from repro.regex import syntax as rx
from repro.regex.parser import parse_xregex

#: A small alphabet used throughout the tests.
AB = Alphabet("ab")
ABC = Alphabet("abc")

# -- kernel cross-validation fixtures -----------------------------------------
#
# One pool of regular expressions and database shapes shared by every
# equivalence suite (set kernel, CSR, differential): the production kernel
# and the reference arm must be pinned to each other on the *same* inputs,
# or a drift could hide in the gap between two ad-hoc pools.

#: Regular expressions exercised against every kernel arm.
REGEX_POOL = [
    "a",
    "a*",
    "a+b",
    "(a|b)+",
    "ab*c",
    "(ab)+",
    "a?b+c?",
    "(a|bc)*",
]

#: ``(family, num_nodes, num_edges)`` shapes of the random equivalence
#: databases.  ``uniform`` draws endpoints uniformly; ``hot-key-skew`` uses
#: preferential attachment, so a few hub nodes carry most of the degree —
#: the regime in which per-node caches actually churn (see
#: ``tests/test_cache.py::TestSkewedEviction``).
DB_SHAPES = [
    ("uniform", 6, 10),
    ("uniform", 12, 30),
    ("uniform", 20, 55),
    ("hot-key-skew", 16, 44),
]

#: Both kernel arms as ``(name, context-manager factory)``: production (the
#: CSR kernel, lazy relations, bitmask synchronisation products) and the
#: reference arm (set-based BFS, eager relations, direct ``intersect_all``).
KERNEL_ARMS = [
    ("csr", nullcontext),
    ("reference", csr_kernel_disabled),
]


def compiled(pattern: str) -> NFA:
    """Compile a surface-syntax regex over the shared ``abc`` alphabet."""
    return NFA.from_regex(parse_xregex(pattern), ABC)


def skewed_graph(num_nodes: int, num_edges: int, seed: int = 0) -> GraphDatabase:
    """A degree-skewed (preferential-attachment) equivalence database."""
    edges_per_node = max(1, round(num_edges / max(1, num_nodes)))
    return scale_free_graph(
        num_nodes, ABC, edges_per_node=edges_per_node, seed=seed
    )


def databases():
    """The shared random equivalence databases (deterministic seeds)."""
    for family, num_nodes, num_edges in DB_SHAPES:
        for seed in (0, 1, 2):
            if family == "hot-key-skew":
                yield skewed_graph(num_nodes, num_edges, seed=seed)
            else:
                yield random_graph(num_nodes, num_edges, ABC, seed=seed)


def stringified(db: GraphDatabase) -> GraphDatabase:
    """A copy of ``db`` with every node name forced to a string.

    The on-disk formats (edge list, JSON, ``.rgsnap``) all keep node
    identifiers as strings; comparing an in-memory database with integer
    nodes against its own round trip would therefore always fail.  Running
    every arm on the stringified copy makes answers directly comparable.
    """
    copy = GraphDatabase()
    for node in db.nodes:
        copy.add_node(str(node))
    for source, label, target in db.edges:
        copy.add_edge(str(source), label, str(target))
    return copy


def snapshot_round_trip(db: GraphDatabase):
    """``db`` serialised to ``.rgsnap`` bytes and loaded back (in memory)."""
    return load_snapshot_bytes(dump_snapshot_bytes(db))


def snapshot_with_deltas(db: GraphDatabase, deltas, directory):
    """Write ``db`` as a snapshot file, append delta segments, load it back.

    The on-disk path of the live-graph flow: base written once, each delta
    appended without rewriting the base sections, and the loader applying
    them overlay-style.  Returns the loaded :class:`SnapshotDatabase`.
    """
    from pathlib import Path

    from repro.graphdb.storage import append_delta, load_snapshot, save_snapshot

    path = Path(directory) / "delta_base.rgsnap"
    save_snapshot(db, path)
    for delta in deltas:
        append_delta(path, delta)
    return load_snapshot(path)


def rebuilt_with_delta(db: GraphDatabase, additions, removals) -> GraphDatabase:
    """A from-scratch rebuild of ``db`` with a delta applied (the oracle arm).

    Mirrors the delta contract by construction: each removal drops one
    occurrence of its triple from the original edge multiset, additions are
    appended afterwards, and nodes are never removed (emptied endpoints
    survive as isolated nodes).
    """
    from collections import Counter

    pending = Counter((source, label, target) for source, label, target in removals)
    rebuilt = GraphDatabase()
    for node in db.nodes:
        rebuilt.add_node(node)
    for source, label, target in db.edges:
        if pending.get((source, label, target), 0) > 0:
            pending[(source, label, target)] -= 1
            continue
        rebuilt.add_edge(source, label, target)
    assert not +pending, f"delta removals not present in the base graph: {+pending}"
    for source, label, target in additions:
        rebuilt.add_edge(source, label, target)
    return rebuilt


def edge_multiset(db: GraphDatabase) -> List[Tuple]:
    """The sorted multiset of ``(source, label, target)`` triples."""
    return sorted((tuple(edge) for edge in db.edges), key=repr)


def assert_same_database(left: GraphDatabase, right: GraphDatabase) -> None:
    """Structural equality: same node set, same edge multiset."""
    assert left.nodes == right.nodes
    assert edge_multiset(left) == edge_multiset(right)


def random_classical_regex(rng: random.Random, symbols: str = "ab", depth: int = 3) -> rx.Xregex:
    """A random classical regular expression of bounded depth."""
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.75:
            return rx.Symbol(rng.choice(symbols))
        if choice < 0.9:
            return rx.EPSILON
        return rx.SymbolClass(frozenset(rng.sample(symbols, rng.randint(1, len(symbols)))))
    operator = rng.choice(["concat", "alt", "star", "plus", "opt"])
    if operator == "concat":
        return rx.concat(
            random_classical_regex(rng, symbols, depth - 1),
            random_classical_regex(rng, symbols, depth - 1),
        )
    if operator == "alt":
        return rx.alternation(
            random_classical_regex(rng, symbols, depth - 1),
            random_classical_regex(rng, symbols, depth - 1),
        )
    inner = random_classical_regex(rng, symbols, depth - 1)
    if operator == "star":
        return rx.star(inner)
    if operator == "plus":
        return rx.plus(inner)
    return rx.optional(inner)


def random_vstar_free_xregex(
    rng: random.Random,
    variables: Sequence[str],
    symbols: str = "ab",
    depth: int = 3,
    allow_defs: bool = True,
) -> rx.Xregex:
    """A random variable-star free xregex using the given variables.

    Definitions only appear at alternation-free positions to keep the result
    sequential with high probability; callers should still validate.
    """
    if depth <= 0:
        if variables and rng.random() < 0.4:
            return rx.VarRef(rng.choice(list(variables)))
        return rx.Symbol(rng.choice(symbols))
    roll = rng.random()
    if roll < 0.25:
        return rx.concat(
            random_vstar_free_xregex(rng, variables, symbols, depth - 1, allow_defs),
            random_vstar_free_xregex(rng, variables, symbols, depth - 1, allow_defs),
        )
    if roll < 0.4:
        return rx.alternation(
            random_vstar_free_xregex(rng, variables, symbols, depth - 1, allow_defs=False),
            random_vstar_free_xregex(rng, variables, symbols, depth - 1, allow_defs=False),
        )
    if roll < 0.55:
        return rx.star(random_classical_regex(rng, symbols, depth - 1))
    if roll < 0.7 and allow_defs and variables:
        name = rng.choice(list(variables))
        body = random_classical_regex(rng, symbols, depth - 1)
        return rx.VarDef(name, body)
    if roll < 0.8 and variables:
        return rx.VarRef(rng.choice(list(variables)))
    return rx.Symbol(rng.choice(symbols))


def words_up_to(symbols: str, length: int) -> List[str]:
    """All words over ``symbols`` up to the given length (test-sized)."""
    from repro.core.words import all_words_up_to

    return list(all_words_up_to(Alphabet(symbols), length))
