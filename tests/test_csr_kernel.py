"""Property-style tests for the production kernel (CSR + lazy relations).

The seed set-based kernel, kept as the reference arm behind
``csr_kernel_disabled``, serves as the oracle: on random databases and a
pool of regular expressions the CSR searches, the lazy relations and the
worklist semi-join must produce identical answers — including duplicate
candidate lists and target-bound (backward) queries.  The bitmask
synchronisation product is checked against the direct Lemma 3
construction, ``intersect_all`` over the DB-as-NFA views.
"""

import gc
import random
import tracemalloc
from contextlib import nullcontext

import pytest

from repro.automata.nfa import NFA, intersect_all
from repro.engine.crpq import crpq_check, edge_relations
from repro.engine.joins import EdgeRelation, semijoin_reduce
from repro.engine.planner import planner_stats, reset_planner_stats
from repro.graphdb.cache import (
    LazyRelation,
    SynchronisationProduct,
    cache_stats,
    invalidate_cache,
    reachability_index,
)
from repro.graphdb.generators import random_graph
from repro.graphdb.paths import (
    CsrAdjacency,
    csr_kernel_disabled,
    csr_kernel_enabled,
    db_nfa_between,
    product_search,
    reachable_from,
    reachable_pairs,
    reachable_to,
)
from repro.queries.crpq import CRPQ
from repro.workloads import random_workload

from helpers import ABC, REGEX_POOL, compiled, databases


class TestCsrToggle:
    def test_toggle_is_context_local(self):
        assert csr_kernel_enabled()
        with csr_kernel_disabled():
            assert not csr_kernel_enabled()
            with csr_kernel_disabled():
                assert not csr_kernel_enabled()
            assert not csr_kernel_enabled()
        assert csr_kernel_enabled()


class TestCsrAdjacency:
    def test_arrays_match_the_database(self):
        for db in databases():
            csr = CsrAdjacency(db)
            assert csr.num_nodes == db.num_nodes()
            for edge in db.edges:
                u = csr.node_id[edge.source]
                v = csr.node_id[edge.target]
                indptr, indices = csr.forward[edge.label]
                assert v in indices[indptr[u] : indptr[u + 1]]
                indptr, indices = csr.backward[edge.label]
                assert u in indices[indptr[v] : indptr[v + 1]]

    def test_step_masks_match_successor_sets(self):
        db = random_graph(10, 30, ABC, seed=4)
        csr = CsrAdjacency(db)
        for label in "abc":
            masks = csr.step_masks(label)
            if masks is None:
                continue
            for node in csr.nodes:
                expected = 0
                for target in db.successors_by_label(node, label):
                    expected |= 1 << csr.node_id[target]
                assert masks[csr.node_id[node]] == expected


class TestCsrSearchEquivalence:
    @pytest.mark.parametrize("pattern", ["a*", "a+b", "(a|b)+", "(ab)+"])
    def test_single_source_matches_oracles(self, pattern):
        nfa = compiled(pattern)
        for db in databases():
            for source in list(sorted(db.nodes, key=repr))[:5] + ["ghost"]:
                fast = product_search(db, nfa, source)
                with csr_kernel_disabled():
                    oracle = product_search(db, nfa, source)
                assert fast == oracle
                assert reachable_from(db, nfa, source) == {
                    node for node, states in oracle.items() if states & nfa.accepting
                }

    @pytest.mark.parametrize("pattern", REGEX_POOL)
    def test_backward_and_duplicate_candidates(self, pattern):
        nfa = compiled(pattern)
        for db in databases():
            full = reachable_pairs(db, nfa)
            nodes = sorted(db.nodes, key=repr)
            # Duplicate candidate lists must collapse, not distort.
            doubled = reachable_pairs(db, nfa, sources=nodes + nodes)
            assert doubled == full
            for target in nodes[:3]:
                # A single target out of many sources selects the backward
                # (reversed-CSR) kernel.
                restricted = reachable_pairs(db, nfa, targets=[target, target])
                assert restricted == {pair for pair in full if pair[1] == target}
                assert reachable_to(db, nfa, target) == {
                    source for source, t in full if t == target
                }


class TestLazyRelation:
    def oracle_pairs(self, db, nfa):
        with csr_kernel_disabled():
            return reachable_pairs(db, nfa)

    @pytest.mark.parametrize("pattern", ["a*", "(a|b)+", "a+b", "(a|bc)*"])
    def test_rows_membership_and_pairs_match_oracle(self, pattern):
        nfa = compiled(pattern)
        for db in databases():
            oracle = self.oracle_pairs(db, nfa)
            relation = LazyRelation(CsrAdjacency(db), nfa)
            assert not relation.materialised
            nodes = sorted(db.nodes, key=repr)
            for node in nodes[:6] + ["ghost"]:
                assert relation.targets_of(node) == {
                    v for u, v in oracle if u == node
                }
                assert relation.sources_of(node) == {
                    u for u, v in oracle if v == node
                }
            # Row queries must not have forced the full pair set.
            assert not relation.materialised
            sample = random.Random(7).sample(nodes, min(4, len(nodes)))
            for u in sample:
                for v in sample:
                    assert ((u, v) in relation) == ((u, v) in oracle)
            assert relation.pairs == oracle
            assert relation.materialised
            assert len(relation) == len(oracle)
            # Materialisation completes the row indexes consistently.
            for node in nodes[:6]:
                assert relation.targets_of(node) == {v for u, v in oracle if u == node}
                assert relation.sources_of(node) == {u for u, v in oracle if v == node}

    def test_size_hint_never_forces(self):
        db = random_graph(8, 20, ABC, seed=2)
        relation = LazyRelation(CsrAdjacency(db), compiled("(a|b|c)*"))
        assert relation.size_hint() == 64
        assert not relation.materialised
        relation.pairs
        assert relation.size_hint() == len(relation.pairs)

    def test_index_returns_lazy_by_default_and_eager_under_toggle(self):
        db = random_graph(8, 20, ABC, seed=3)
        invalidate_cache(db)
        index = reachability_index(db)
        nfa = compiled("a+b")
        lazy = index.relation(nfa)
        assert isinstance(lazy, LazyRelation)
        assert index.relation(compiled("a+b")) is lazy
        with csr_kernel_disabled():
            eager = index.relation(nfa)
        assert isinstance(eager, EdgeRelation)
        assert lazy.pairs == eager.pairs
        invalidate_cache(db)


class TestDenseCheckMemory:
    """Lazy relations keep a dense Check problem far below the eager peak.

    The edge languages are near-universal, so their relations on a
    connected random database are ~n² pairs.  The Check problem binds both
    output endpoints, so production answers from a few per-source and
    per-target rows (the target-bound edge runs the backward search) while
    the reference arm materialises both pair sets.
    """

    QUERY = CRPQ(
        [("x", "(a|b|c)*", "y"), ("y", "(a|b)*c*", "z")],
        output_variables=("x", "z"),
    )

    def peak(self, db, arm, check):
        invalidate_cache(db)
        reset_planner_stats()
        gc.collect()
        tracemalloc.start()
        try:
            with arm():
                answer = crpq_check(self.QUERY, db, check)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return answer, peak

    def test_lazy_peak_is_at_least_4x_below_eager(self):
        db = random_workload(60, alphabet_symbols="abc", edge_factor=3.0, seed=13)
        names = sorted(db.nodes, key=repr)
        check = (names[0], names[-1])
        lazy_answer, lazy_peak = self.peak(db, nullcontext, check)
        relations, _nfas = edge_relations(self.QUERY, db)
        assert all(isinstance(relation, LazyRelation) for relation in relations)
        assert not any(relation.materialised for relation in relations)
        assert planner_stats()["forced_pairs"] == 0
        eager_answer, eager_peak = self.peak(db, csr_kernel_disabled, check)
        invalidate_cache(db)
        assert lazy_answer == eager_answer
        assert eager_peak >= 4 * lazy_peak, (
            f"lazy peak {lazy_peak} B is not 4x below eager {eager_peak} B"
        )


class TestReverseAdjacencyMemo:
    def test_backward_queries_build_the_reversed_index_once(self):
        # Regression: ``reachable_to``/``reachable_pairs(targets=…)`` used
        # to rebuild the full reversed-edge index on every call.  The CSR
        # snapshot (forward + reversed) is built once per db version.
        db = random_graph(12, 30, ABC, seed=9)
        invalidate_cache(db)
        nfa = compiled("a+b")
        nodes = sorted(db.nodes, key=repr)
        for target in nodes[:5]:
            reachable_to(db, nfa, target)
            reachable_pairs(db, nfa, targets=[target])
        stats = cache_stats(db)["csr"]
        assert stats["misses"] == 1, "reversed adjacency was rebuilt"
        assert stats["hits"] >= 9
        # Mutation invalidates the snapshot: exactly one further build.
        db.add_edge(nodes[0], "c", nodes[1])
        reachable_to(db, nfa, nodes[2])
        stats = cache_stats(db)["csr"]
        assert stats["misses"] == 2
        invalidate_cache(db)


class TestBitmaskProductTracks:
    def unit_pools(self):
        return [
            [compiled("a*b")],
            [compiled("a*b"), NFA.universal("abc")],
            [compiled("(a|b)+"), compiled("a?b+c?")],
        ]

    def direct_construction(self, db, units, endpoints):
        """The reference arm's Lemma 3 product: DB-as-NFA views ∩ units."""
        automata = []
        for (source, target), unit in zip(endpoints, units):
            automata.append(db_nfa_between(db, source, [target]))
            automata.append(unit)
        return intersect_all(automata).shortest_word()

    def test_mask_search_matches_intersect_all(self):
        for db in [random_graph(8, 22, ABC, seed=s) for s in (0, 1)]:
            nodes = sorted(db.nodes, key=repr)
            for units in self.unit_pools():
                product = SynchronisationProduct(db, units)
                for s in nodes[:4]:
                    for t in nodes[:4]:
                        endpoints = tuple((s, t) for _ in units)
                        fast = product.shortest_word(endpoints)
                        oracle = self.direct_construction(db, units, endpoints)
                        if oracle is None:
                            assert fast is None
                            continue
                        assert fast is not None
                        assert len(fast) == len(oracle)
                        word = "".join(fast)
                        for (source, target), unit in zip(endpoints, units):
                            assert unit.accepts(fast)
                            assert db.path_exists(source, word, target)

    def test_absent_endpoints_have_no_word(self):
        db = random_graph(6, 14, ABC, seed=5)
        product = SynchronisationProduct(db, [compiled("a*")])
        assert product.shortest_word((("ghost", sorted(db.nodes, key=repr)[0]),)) is None


class TestWorklistSemijoin:
    def reference_semijoin(self, edge_endpoints, edge_relations, fixed=None):
        """The pre-worklist implementation, kept verbatim as the oracle."""
        if not edge_endpoints:
            return list(edge_relations)
        domains = {variable: {value} for variable, value in (fixed or {}).items()}
        pairs_per_edge = [relation.pairs for relation in edge_relations]
        changed = True
        while changed:
            changed = False
            filtered_per_edge = []
            for (source, target), pairs in zip(edge_endpoints, pairs_per_edge):
                domain_source = domains.get(source)
                domain_target = domains.get(target)
                filtered = {
                    (u, v)
                    for u, v in pairs
                    if (source != target or u == v)
                    and (domain_source is None or u in domain_source)
                    and (domain_target is None or v in domain_target)
                }
                filtered_per_edge.append(filtered)
                for variable, column in (
                    (source, {u for u, _ in filtered}),
                    (target, {v for _, v in filtered}),
                ):
                    previous = domains.get(variable)
                    if previous is None:
                        domains[variable] = column
                        changed = True
                    elif not previous <= column:
                        domains[variable] = previous & column
                        changed = True
            pairs_per_edge = filtered_per_edge
        return [
            relation if pairs == relation.pairs else EdgeRelation(pairs)
            for pairs, relation in zip(pairs_per_edge, edge_relations)
        ]

    def random_patterns(self):
        rng = random.Random(42)
        variables = ["x", "y", "z", "w", "v"]
        for _case in range(40):
            num_edges = rng.randint(1, 5)
            endpoints = [
                (rng.choice(variables), rng.choice(variables)) for _ in range(num_edges)
            ]
            relations = []
            for _ in range(num_edges):
                pairs = {
                    (rng.randint(0, 6), rng.randint(0, 6))
                    for _ in range(rng.randint(0, 12))
                }
                relations.append(EdgeRelation(pairs))
            fixed = None
            if rng.random() < 0.4:
                fixed = {rng.choice([s for s, _t in endpoints]): rng.randint(0, 6)}
            yield endpoints, relations, fixed

    def test_reduction_matches_reference_on_random_patterns(self):
        for endpoints, relations, fixed in self.random_patterns():
            reduced = semijoin_reduce(endpoints, relations, fixed)
            reference = self.reference_semijoin(endpoints, relations, fixed)
            assert [r.pairs for r in reduced] == [r.pairs for r in reference]
            # Identity preservation for untouched relations is kept too.
            for ours, theirs, original in zip(reduced, reference, relations):
                assert (ours is original) == (theirs is original)

    def test_lazy_relations_reduce_to_the_same_fixpoint(self):
        # Random patterns over real databases: lazy CSR-backed relations
        # (activated row-wise, backward for target-bound sides) must reach
        # exactly the eager fixpoint.
        rng = random.Random(11)
        variables = ["x", "y", "z", "w"]
        for db in [random_graph(9, 24, ABC, seed=s) for s in (0, 2)]:
            csr = CsrAdjacency(db)
            for _case in range(12):
                num_edges = rng.randint(1, 4)
                endpoints = [
                    (rng.choice(variables), rng.choice(variables))
                    for _ in range(num_edges)
                ]
                nfas = [compiled(rng.choice(REGEX_POOL)) for _ in range(num_edges)]
                lazy = [LazyRelation(csr, nfa) for nfa in nfas]
                with csr_kernel_disabled():
                    eager = [EdgeRelation(reachable_pairs(db, nfa)) for nfa in nfas]
                fixed = None
                if rng.random() < 0.5:
                    fixed = {endpoints[0][rng.randint(0, 1)]: rng.choice(sorted(db.nodes, key=repr))}
                reduced_lazy = semijoin_reduce(endpoints, lazy, fixed)
                reduced_eager = semijoin_reduce(endpoints, eager, fixed)
                assert [r.pairs for r in reduced_lazy] == [
                    r.pairs for r in reduced_eager
                ]
