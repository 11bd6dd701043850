"""Shared helpers for the paper-experiment benchmarks.

Every benchmark module reproduces one figure, theorem or corollary of the
paper (named in its own docstring).  The helpers here keep the modules
small: workload caching (so expensive inputs are generated once per
session) and a tiny table printer so each benchmark also emits the
rows/series the corresponding figure or theorem talks about (run pytest
with ``-s`` to see them).  Serving performance is measured by
``servebench/``, not here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Sequence


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print a small aligned table (visible with ``pytest -s``)."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(column) for column in header]
    for row in rows:
        widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
    line = "  ".join(cell.ljust(width) for cell, width in zip(header, widths))
    print(f"\n[{title}]")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def boolean_version(query):
    """The Boolean variant of a CXRPQ (drop the output variables)."""
    from repro.queries.cxrpq import CXRPQ

    return CXRPQ(
        [(edge.source, edge.label, edge.target) for edge in query.pattern.edges],
        output_variables=(),
        image_bound=query.image_bound,
    )


@lru_cache(maxsize=None)
def cached_random_db(num_nodes: int, seed: int = 0, symbols: str = "abc", edge_factor: float = 2.0):
    """Cache random databases across benchmark rounds."""
    from repro.workloads import random_workload

    return random_workload(num_nodes, alphabet_symbols=symbols, edge_factor=edge_factor, seed=seed)


@lru_cache(maxsize=None)
def cached_genealogy(num_families: int, generations: int, seed: int = 0):
    from repro.workloads import genealogy_workload

    return genealogy_workload(num_families, generations, seed=seed)


@lru_cache(maxsize=None)
def cached_message_network(num_persons: int, seed: int = 0):
    from repro.workloads import message_workload

    return message_workload(num_persons, seed=seed)


@lru_cache(maxsize=None)
def cached_nfa_workload(num_nfas: int, states: int, seed: int = 0, vstar_free: bool = False):
    from repro.workloads import nfa_intersection_workload

    return nfa_intersection_workload(num_nfas, states_per_nfa=states, seed=seed, vstar_free=vstar_free)


@lru_cache(maxsize=None)
def cached_hitting_set(universe: int, sets: int, budget: int, seed: int = 0):
    from repro.workloads import hitting_set_workload

    return hitting_set_workload(universe, sets, budget, seed=seed)
