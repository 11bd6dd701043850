"""Tests for the shared reachability/product cache subsystem."""

import pytest

from repro.core.alphabet import Alphabet
from repro.core.errors import FrozenAutomatonError
from repro.automata.nfa import NFA, intersect_all
from repro.engine.vsf import evaluate_vsf
from repro.graphdb.cache import (
    DatabaseAutomatonView,
    LRUCache,
    ReachabilityIndex,
    SynchronisationProductCache,
    cache_capacity,
    cache_stats,
    invalidate_cache,
    reachability_index,
)
from repro.graphdb.database import GraphDatabase
from repro.graphdb.generators import random_graph
from repro.graphdb.paths import db_nfa_between, reachable_pairs
from repro.regex.parser import parse_xregex
from repro.workloads import vsf_scaling_query

ABC = Alphabet("abc")


def chain_db() -> GraphDatabase:
    return GraphDatabase.from_edges(
        [(0, "a", 1), (1, "a", 2), (2, "b", 3), (3, "c", 0), (2, "a", 2)]
    )


def compiled(pattern: str) -> NFA:
    return NFA.from_regex(parse_xregex(pattern), ABC)


class TestFingerprint:
    def test_identical_constructions_share_a_fingerprint(self):
        assert compiled("a+b").fingerprint() == compiled("a+b").fingerprint()
        assert NFA.universal("abc").fingerprint() == NFA.universal("abc").fingerprint()

    def test_different_languages_differ(self):
        assert compiled("a+b").fingerprint() != compiled("a*b").fingerprint()

    def test_fingerprint_invalidated_on_mutation(self):
        nfa = compiled("ab")
        before = nfa.fingerprint()
        nfa.set_accepting(nfa.start)
        assert nfa.fingerprint() != before


class TestReachabilityIndex:
    def test_cache_hit_returns_same_object(self):
        db = chain_db()
        index = ReachabilityIndex(db)
        first = index.reachable_pairs(compiled("a+b"))
        second = index.reachable_pairs(compiled("a+b"))
        assert first is second
        assert first == reachable_pairs(db, compiled("a+b"))
        assert index.hits == 1 and index.misses == 1

    def test_relation_objects_are_deduplicated(self):
        db = chain_db()
        index = ReachabilityIndex(db)
        assert index.relation(NFA.universal("abc")) is index.relation(NFA.universal("abc"))

    def test_invalidation_on_database_mutation(self):
        db = chain_db()
        index = ReachabilityIndex(db)
        nfa = compiled("b")
        assert (0, 3) not in index.reachable_pairs(nfa)
        db.add_edge(0, "b", 3)
        pairs = index.reachable_pairs(nfa)
        assert (0, 3) in pairs
        assert pairs == reachable_pairs(db, nfa)

    def test_invalidation_on_added_node(self):
        db = chain_db()
        index = ReachabilityIndex(db)
        nfa = compiled("a*")
        assert ("late", "late") not in index.reachable_pairs(nfa)
        db.add_node("late")
        assert ("late", "late") in index.reachable_pairs(nfa)

    def test_reachable_from_uses_full_pairs_when_available(self):
        db = chain_db()
        index = ReachabilityIndex(db)
        nfa = compiled("a+")
        index.reachable_pairs(nfa)
        # The first lookup derives a source-indexed map from the cached
        # all-pairs set — a one-time, counted miss, NOT a linear filter
        # counted as a hit (the seed's accounting bug).
        assert index.reachable_from(nfa, 0) == {1, 2}
        stats = index.stats()
        assert stats["by_source"]["misses"] == 1
        assert stats["by_source"]["hits"] == 0
        # Every further source lookup is an O(1) dictionary hit, whatever
        # the source, without touching the pair set again.
        assert index.reachable_from(nfa, 0) == {1, 2}
        assert index.reachable_from(nfa, 1) == {2}
        assert index.reachable_from(nfa, 3) == set()
        stats = index.stats()
        assert stats["by_source"]["hits"] == 3
        assert stats["by_source"]["misses"] == 1
        # No single-source product searches were run at all.
        assert stats["from"]["misses"] == 0

    def test_reachable_from_without_pairs_counts_one_miss_per_lookup(self):
        # Without a cached all-pairs set the lookup goes straight to the
        # per-source path: exactly one counted miss per new source, and the
        # ``by_source`` counters stay untouched (no double counting).
        db = chain_db()
        index = ReachabilityIndex(db)
        nfa = compiled("a+")
        assert index.reachable_from(nfa, 0) == {1, 2}
        assert index.reachable_from(nfa, 1) == {2}
        assert index.reachable_from(nfa, 0) == {1, 2}
        stats = index.stats()
        assert stats["from"]["misses"] == 2
        assert stats["from"]["hits"] == 1
        assert stats["by_source"]["misses"] == 0
        assert stats["by_source"]["hits"] == 0

    def test_registry_releases_dropped_databases(self):
        # Regression: the index must not hold a strong reference back to its
        # database, or the weak registry would keep every database (and its
        # pair caches) alive for the process lifetime.
        import gc
        import weakref

        db = chain_db()
        reachability_index(db).reachable_pairs(compiled("a"))
        witness = weakref.ref(db)
        del db
        gc.collect()
        assert witness() is None

    def test_registry_shares_one_index_per_database(self):
        db = chain_db()
        index = reachability_index(db)
        assert reachability_index(db) is index
        invalidate_cache(db)
        assert reachability_index(db) is not index


class TestDatabaseAutomatonView:
    def test_between_matches_db_nfa_between(self):
        db = chain_db()
        view = DatabaseAutomatonView(db)
        words = ["", "a", "ab", "aab", "aaab", "aabc", "bcaa"]
        for source in [0, 2, 3]:
            for target in [2, 3]:
                fresh = db_nfa_between(db, source, [target])
                shared = view.between(source, [target])
                for word in words:
                    assert shared.accepts(word) == fresh.accepts(word)

    def test_missing_endpoints_give_the_empty_language(self):
        db = chain_db()
        view = DatabaseAutomatonView(db)
        assert view.between("ghost", [3]).is_empty()
        assert view.between(0, ["ghost"]).is_empty()

    def test_views_share_the_transition_table(self):
        db = chain_db()
        view = DatabaseAutomatonView(db)
        first = view.between(0, [3])
        second = view.between(2, [2])
        assert first._transitions is second._transitions

    def test_index_view_is_built_once_and_invalidated(self):
        db = chain_db()
        index = ReachabilityIndex(db)
        view = index.view()
        assert index.view() is view
        db.add_edge(1, "b", 3)
        rebuilt = index.view()
        assert rebuilt is not view
        assert rebuilt.between(1, [3]).accepts("b")

    def test_views_are_frozen(self):
        # Regression: views share the base transition table, so a mutation
        # on one view used to silently corrupt every other view (and the
        # cached base).  Views are now read-only.
        db = chain_db()
        view = DatabaseAutomatonView(db)
        first = view.between(0, [3])
        with pytest.raises(FrozenAutomatonError):
            first.add_transition(first.start, "c", first.start)
        with pytest.raises(FrozenAutomatonError):
            first.add_state()
        with pytest.raises(FrozenAutomatonError):
            first.set_accepting(first.start)
        # The shared table (observed through a second view) is untouched.
        second = view.between(0, [3])
        assert not second.accepts("c")
        assert second.accepts("aab")
        assert first.frozen and second.frozen

    def test_base_automaton_is_frozen_too(self):
        db = chain_db()
        view = DatabaseAutomatonView(db)
        with pytest.raises(FrozenAutomatonError):
            view._base.add_transition(view._base.start, "a", view._base.start)


class TestLRUCache:
    def test_eviction_order_and_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.get("b") is None
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "entries": 2,
            "capacity": 2,
        }

    def test_peek_does_not_count(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("zzz") is None
        assert cache.hits == 0 and cache.misses == 0

    def test_unbounded_capacity(self):
        cache = LRUCache(None)
        for index in range(100):
            cache.put(index, index)
        assert len(cache) == 100 and cache.evictions == 0


class TestSynchronisationProductCache:
    def two_unit_case(self):
        db = chain_db()
        units = [compiled("a*b"), NFA.universal("abc")]
        return db, units

    def oracle_shortest(self, db, units, endpoints):
        automata = []
        for (source, target), unit in zip(endpoints, units):
            automata.append(db_nfa_between(db, source, [target]))
            automata.append(unit)
        return intersect_all(automata).shortest_word()

    def assert_equivalent(self, db, units, endpoints, word):
        oracle = self.oracle_shortest(db, units, endpoints)
        if oracle is None:
            assert word is None
            return
        assert word is not None
        assert len(word) == len(oracle)
        text = "".join(word)
        for (source, target), unit in zip(endpoints, units):
            assert unit.accepts(word)
            assert db.path_exists(source, text, target)

    def test_matches_intersect_all_oracle(self):
        db, units = self.two_unit_case()
        cache = SynchronisationProductCache()
        nodes = sorted(db.nodes, key=repr)
        for s1 in nodes:
            for t1 in nodes[:2]:
                endpoints = ((s1, t1), (s1, t1))
                word = cache.product(db, units).shortest_word(endpoints)
                self.assert_equivalent(db, units, endpoints, word)

    def test_product_is_shared_across_endpoints_and_permutations(self):
        db, units = self.two_unit_case()
        cache = SynchronisationProductCache()
        first = cache.product(db, units)
        second = cache.product(db, units)
        permuted = cache.product(db, list(reversed(units)))
        assert first.product is second.product
        assert first.product is permuted.product
        assert cache.stats()["entries"] == 1
        # The permuted view re-aligns the endpoints, so asymmetric endpoint
        # pairs give the same answer either way.
        endpoints = ((0, 3), (1, 2))
        straight = first.shortest_word(endpoints)
        swapped = permuted.shortest_word((endpoints[1], endpoints[0]))
        assert (straight is None) == (swapped is None)
        if straight is not None:
            assert len(straight) == len(swapped)

    def test_keyed_by_database_version(self):
        db, units = self.two_unit_case()
        cache = SynchronisationProductCache()
        before = cache.product(db, units).product
        db.add_edge(0, "b", 3)
        after = cache.product(db, units).product
        assert before is not after
        word = after.shortest_word(((0, 3), (0, 3)))
        self.assert_equivalent(db, units, ((0, 3), (0, 3)), word)

    def test_absent_endpoints_have_no_word(self):
        db, units = self.two_unit_case()
        cache = SynchronisationProductCache()
        assert cache.product(db, units).shortest_word((("ghost", 3), (0, 3))) is None
        assert cache.product(db, units).shortest_word(((0, "ghost"), (0, 3))) is None

    def test_track_count_mismatch_rejected(self):
        db, units = self.two_unit_case()
        cache = SynchronisationProductCache()
        with pytest.raises(ValueError):
            cache.product(db, units).shortest_word(((0, 3),))


class TestCacheStats:
    def test_index_stats_shape(self):
        db = chain_db()
        with cache_capacity(7):
            index = ReachabilityIndex(db)
        index.reachable_pairs(compiled("a+b"))
        index.reachable_pairs(compiled("a+b"))
        stats = index.stats()
        for name in ("pairs", "from", "by_source", "relations", "verdicts", "products", "totals"):
            assert name in stats
        assert stats["pairs"]["hits"] == 1
        assert stats["pairs"]["misses"] == 1
        assert stats["pairs"]["capacity"] == 7
        assert stats["totals"]["hits"] == index.hits
        assert stats["totals"]["misses"] == index.misses

    def test_module_level_cache_stats(self):
        db = chain_db()
        invalidate_cache(db)
        index = reachability_index(db)
        index.reachable_pairs(compiled("ab"))
        per_db = cache_stats(db)
        assert per_db["pairs"]["misses"] >= 1
        aggregate = cache_stats()
        assert aggregate["pairs"]["misses"] >= per_db["pairs"]["misses"]
        invalidate_cache(db)
        cold = cache_stats(db)
        assert cold["pairs"]["misses"] == 0 and cold["pairs"]["hits"] == 0


class TestNfaTablesMemo:
    def test_tables_memoised_by_fingerprint(self):
        db = chain_db()
        invalidate_cache(db)
        index = reachability_index(db)
        first = index.nfa_tables(compiled("a+b"))
        again = index.nfa_tables(compiled("a+b"))
        assert first is again
        stats = index.stats()["nfa_tables"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_forward_and_reverse_memoised_separately(self):
        db = chain_db()
        invalidate_cache(db)
        index = reachability_index(db)
        nfa = compiled("a+b")
        forward = index.nfa_tables(nfa)
        backward = index.nfa_tables(nfa, reverse=True)
        assert forward is not backward
        assert index.nfa_tables(nfa, reverse=True) is backward
        assert index.stats()["nfa_tables"]["entries"] == 2

    def test_public_paths_calls_hit_the_memo(self):
        from repro.graphdb.paths import reachable_from, reachable_to

        db = chain_db()
        invalidate_cache(db)
        nfa = compiled("a*b")
        for _ in range(3):
            reachable_from(db, nfa, 0)
        reachable_to(db, nfa, 3)
        stats = cache_stats(db)["nfa_tables"]
        assert stats["misses"] == 2  # one forward, one reversed build
        assert stats["hits"] >= 2

    def test_invalidated_on_database_mutation(self):
        db = chain_db()
        invalidate_cache(db)
        index = reachability_index(db)
        index.nfa_tables(compiled("a+b"))
        db.add_edge(0, "b", 2)
        index.nfa_tables(compiled("a+b"))
        # The mutation dropped the memo, so the second build is a miss, not
        # a hit (counters themselves persist across invalidation).
        assert index.stats()["nfa_tables"]["hits"] == 0
        assert index.stats()["nfa_tables"]["misses"] == 2


class TestLruInvariance:
    def test_eviction_never_changes_answers(self):
        query = vsf_scaling_query()
        db = random_graph(14, 35, ABC, seed=11)
        reference = evaluate_vsf(query, db)
        invalidate_cache(db)
        with cache_capacity(2):
            index = reachability_index(db)
            assert index.capacity == 2
            constrained = evaluate_vsf(query, db)
            assert constrained.tuples == reference.tuples
            assert index.evictions > 0, "the workload must exceed the LRU cap"
        invalidate_cache(db)

    def test_evicted_entries_are_recomputed_correctly(self):
        from helpers import REGEX_POOL

        db = random_graph(10, 25, ABC, seed=5)
        patterns = [compiled(pattern) for pattern in REGEX_POOL]
        expected = [reachable_pairs(db, nfa) for nfa in patterns]
        # The oracle runs above went through the shared index (the CSR
        # kernel memoises its adjacency snapshot there); drop it so the
        # capped index below is the one the registry hands out.
        invalidate_cache(db)
        with cache_capacity(3):
            index = reachability_index(db)
            # Two passes over more fingerprints than the cap: the second
            # pass re-misses evicted entries but the answers are identical.
            for _round in range(2):
                for nfa, pairs in zip(patterns, expected):
                    assert index.reachable_pairs(nfa) == pairs
            assert index.evictions > 0
            stats = index.stats()
            assert stats["pairs"]["entries"] <= 3
        invalidate_cache(db)


class TestSkewedEviction:
    """Regression: the hot-key-skew DB_SHAPES family must actually churn the
    bounded caches.

    On the old uniform-only shapes the suite never drove ``nfa_tables`` or
    ``lazy_rows`` past capacity, so their eviction counters sat at zero and
    the eviction paths went untested.  A degree-skewed graph under a
    many-fingerprint workload at small capacity must move both counters.
    """

    def test_eviction_counters_move_on_skewed_traffic(self):
        from helpers import skewed_graph

        db = skewed_graph(16, 44, seed=0)
        invalidate_cache(db)
        patterns = [
            "a", "b", "c", "a*", "b*", "c*",
            "a+b", "b+c", "c+a", "(a|b)+", "(b|c)+", "ab*c",
        ]
        hubs = sorted(db.nodes)[:6]
        with cache_capacity(2):
            index = reachability_index(db)
            for pattern in patterns:
                nfa = compiled(pattern)
                index.nfa_tables(nfa)
                relation = index.relation(nfa)
                for node in hubs:
                    relation.targets_of(node)
        stats = cache_stats(db)
        # 12 distinct fingerprints through a capacity-2 tables memo...
        assert stats["nfa_tables"]["evictions"] > 0, (
            "the nfa_tables eviction path never fired"
        )
        # ...and 12 x 6 lazy rows through a capacity-8 row store.
        assert stats["lazy_rows"]["evictions"] > 0, (
            "the lazy_rows eviction path never fired"
        )
        invalidate_cache(db)


class TestLazyRowStoreSharing:
    def test_rows_survive_relation_eviction(self):
        db = chain_db()
        invalidate_cache(db)
        with cache_capacity(2):
            index = reachability_index(db)
            relation = index.relation(compiled("a+b"))
            row = relation.targets_of(0)
            # Two more fingerprints evict the first relation object from the
            # capacity-2 relations LRU...
            index.relation(compiled("b"))
            index.relation(compiled("c"))
            rebuilt = index.relation(compiled("a+b"))
            assert rebuilt is not relation
            # ...but the rebuilt relation starts from the shared row store.
            assert rebuilt._store is relation._store
            assert rebuilt.targets_of(0) == row
            stats = index.stats()["lazy_rows"]
            assert stats["hits"] == 1
        invalidate_cache(db)

    def test_store_capacity_outsizes_the_relation_lru(self):
        from repro.graphdb.cache import LAZY_ROW_GENERATIONS

        db = chain_db()
        invalidate_cache(db)
        with cache_capacity(3):
            index = reachability_index(db)
            index.relation(compiled("a"))
            stats = index.stats()
            assert stats["relations"]["capacity"] == 3
            assert stats["lazy_rows"]["capacity"] == 3 * LAZY_ROW_GENERATIONS
        invalidate_cache(db)

    def test_store_dropped_on_database_mutation(self):
        db = chain_db()
        invalidate_cache(db)
        index = reachability_index(db)
        relation = index.relation(compiled("a+b"))
        relation.targets_of(0)
        db.add_edge(3, "b", 1)
        rebuilt = index.relation(compiled("a+b"))
        assert rebuilt._store is not relation._store
        assert index.stats()["lazy_rows"]["misses"] == 2  # both builds were misses

    def test_stats_include_new_cache_names(self):
        db = chain_db()
        invalidate_cache(db)
        for mapping in (reachability_index(db).stats(), cache_stats(db), cache_stats()):
            assert "nfa_tables" in mapping
            assert "lazy_rows" in mapping
