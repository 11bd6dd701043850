"""Property-style equivalence tests of the production kernel's searches.

The set-based kernel (the seed implementation, kept as the reference arm
behind ``csr_kernel_disabled``) serves as the oracle: on random databases
from :mod:`repro.graphdb.generators` and a pool of regular expressions, the
production forward kernel, its backward (reversed-product) search and the
single-source product search must produce identical answers.
"""

import pytest

from repro.graphdb.generators import random_graph
from repro.graphdb.paths import (
    csr_kernel_disabled,
    product_search,
    reachable_from,
    reachable_pairs,
    reachable_to,
)

from helpers import ABC, KERNEL_ARMS, REGEX_POOL, compiled, databases


class TestKernelEquivalence:
    @pytest.mark.parametrize("pattern", REGEX_POOL)
    def test_reachable_pairs_matches_set_kernel(self, pattern):
        nfa = compiled(pattern)
        for db in databases():
            fast = reachable_pairs(db, nfa)
            with csr_kernel_disabled():
                oracle = reachable_pairs(db, nfa)
            assert fast == oracle

    @pytest.mark.parametrize("pattern", ["a*", "a+b", "(a|b)+", "(ab)+"])
    def test_product_search_matches_set_kernel(self, pattern):
        nfa = compiled(pattern)
        for db in databases():
            for source in list(sorted(db.nodes, key=repr))[:5] + ["ghost"]:
                fast = product_search(db, nfa, source)
                with csr_kernel_disabled():
                    oracle = product_search(db, nfa, source)
                assert fast == oracle
                fast_from = reachable_from(db, nfa, source)
                with csr_kernel_disabled():
                    oracle_from = reachable_from(db, nfa, source)
                assert fast_from == oracle_from

    @pytest.mark.parametrize("pattern", REGEX_POOL)
    def test_backward_search_matches_forward(self, pattern):
        nfa = compiled(pattern)
        for db in databases():
            with csr_kernel_disabled():
                full = reachable_pairs(db, nfa)
            nodes = sorted(db.nodes, key=repr)
            # A single target out of many sources selects the production
            # backward kernel (|targets| * ratio <= |sources|); the reference
            # arm answers the same restriction by a forward search.
            for target in nodes[:4]:
                expected_sources = {source for source, t in full if t == target}
                for _name, arm in KERNEL_ARMS:
                    with arm():
                        restricted = reachable_pairs(db, nfa, targets=[target])
                        assert restricted == {pair for pair in full if pair[1] == target}
                        assert reachable_to(db, nfa, target) == expected_sources

    def test_backward_search_respects_explicit_sources(self):
        nfa = compiled("a+b")
        for db in databases():
            nodes = sorted(db.nodes, key=repr)
            sources = nodes[: len(nodes) // 2]
            target = nodes[-1]
            with csr_kernel_disabled():
                full = reachable_pairs(db, nfa)
            expected = {(u, v) for u, v in full if u in set(sources) and v == target}
            for _name, arm in KERNEL_ARMS:
                with arm():
                    restricted = reachable_pairs(db, nfa, sources=sources, targets=[target])
                assert restricted == expected

    def test_ghost_endpoints_are_ignored(self):
        db = random_graph(8, 20, ABC, seed=3)
        nfa = compiled("a*")
        for _name, arm in KERNEL_ARMS:
            with arm():
                assert reachable_pairs(db, nfa, sources=["ghost"]) == set()
                assert reachable_pairs(db, nfa, targets=["ghost"]) == set()
                assert reachable_to(db, nfa, "ghost") == set()
