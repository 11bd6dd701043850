"""One differential harness pinning production to the reference arm.

Three arms evaluate identical workloads on identical inputs:

* **csr** — production: the CSR kernel, lazy relations, the bitmask
  synchronisation product and the cost-based planner,
* **reference** — behind ``csr_kernel_disabled``: the seed's set-based BFS,
  eager relations and the direct Lemma 3 construction (``intersect_all``),
* **snapshot** — both arms again on a database round-tripped through the
  binary ``.rgsnap`` format (mmap-style preloaded CSR arrays).

Graphs come from :mod:`repro.graphdb.generators` under a fixed seed and are
stringified first (the on-disk formats keep node identifiers as strings, so
all arms see the same node names).  Answers are compared as canonical
strings — byte-identical, not merely set-equal — and the engine-level cases
additionally pin the fragment classification and dispatcher verdict.
The shared pools in ``tests/helpers.py`` keep every equivalence suite on
the same inputs.  Caches are invalidated before each arm, so production
plans from cold relations; plans may differ between the arms — edge order,
forced-edge choice, expansion direction — but answers may not.
"""

import random
from pathlib import Path

from repro.automata.nfa import NFA
from repro.core.alphabet import Alphabet
from repro.engine.engine import _select_cxrpq_engine, evaluate
from repro.graphdb.cache import cache_stats, invalidate_cache, reachability_index
from repro.graphdb.generators import (
    cycle_database,
    deep_chain,
    layered_graph,
    random_graph,
    scale_free_graph,
    temporal_layered_graph,
)
from repro.graphdb.paths import csr_kernel_disabled, reachable_pairs
from repro.queries.cxrpq import CXRPQ
from repro.regex.parser import parse_xregex

from helpers import (
    ABC,
    KERNEL_ARMS,
    REGEX_POOL,
    assert_same_database,
    compiled,
    rebuilt_with_delta,
    snapshot_round_trip,
    snapshot_with_deltas,
    stringified,
)

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Engine-level workloads: ``(edges, output variables, image bound)``.  The
#: pool deliberately spans the dispatcher: a classical CRPQ, a string-variable
#: synchronisation query (simple fragment), a vstar-free query with output,
#: and an image-bounded interpretation.
QUERY_TEMPLATES = [
    ((("x", "(a|b)*c", "y"),), ("x", "y"), None),
    ((("x", "w{a|b}", "y"), ("y", "&w", "z")), (), None),
    ((("x", "w{a|b}c*", "y"), ("y", "&w|c", "z")), ("x", "z"), None),
    ((("x", "w{(a|b)+}&w", "y"),), (), 2),
]


def case_graphs():
    """The randomized differential graphs (deterministic, string nodes)."""
    graphs = []
    for num_nodes, num_edges in ((6, 14), (10, 26), (14, 40)):
        for seed in (3, 4):
            graphs.append(random_graph(num_nodes, num_edges, ABC, seed=seed))
    graphs.append(layered_graph(3, 4, ABC, seed=5))
    graphs.append(cycle_database("abcab"))
    # The PR 10 workload families: degree-skewed hubs (preferential
    # attachment) and tick-stamped temporal layers — topologies whose cache
    # and traversal behaviour differs sharply from the uniform graphs above.
    graphs.append(scale_free_graph(14, ABC, seed=8))
    graphs.append(temporal_layered_graph(12, ticks=3, alphabet=ABC, seed=8))
    return [stringified(graph) for graph in graphs]


def build_query(template) -> CXRPQ:
    edges, output, image_bound = template
    return CXRPQ(
        [(source, parse_xregex(label), target) for source, label, target in edges],
        output_variables=output,
        image_bound=image_bound,
    )


def answer_signature(result, has_output: bool) -> str:
    """A canonical string of one evaluation's answer (byte-comparable)."""
    tuples = sorted(result.tuples, key=repr) if has_output else None
    return repr((result.boolean, tuples, result.exhaustive))


class TestRpqDifferential:
    def test_all_arms_agree_on_randomized_cases(self):
        rng = random.Random(96321)
        cases = 0
        for db in case_graphs():
            snapshot = snapshot_round_trip(db)
            for pattern in rng.sample(REGEX_POOL, 4):
                nfa = compiled(pattern)
                signatures = {}
                for name, arm in KERNEL_ARMS:
                    with arm():
                        signatures[name] = repr(sorted(reachable_pairs(db, nfa), key=repr))
                signatures["snapshot"] = repr(
                    sorted(reachable_pairs(snapshot, nfa), key=repr)
                )
                reference = signatures["reference"]
                for name, signature in signatures.items():
                    assert signature == reference, (
                        f"kernel arm {name!r} diverges on pattern {pattern!r}: "
                        f"{signature} != {reference}"
                    )
                cases += 1
        assert cases >= 25, f"the harness must cover >= 25 cases, ran {cases}"

    def test_snapshot_arm_never_rebuilds_the_adjacency(self):
        snapshot = snapshot_round_trip(stringified(random_graph(12, 30, ABC, seed=7)))
        reachable_pairs(snapshot, compiled("(a|b)+"))
        stats = cache_stats(snapshot)["csr"]
        assert stats["preloaded"] == 1
        assert stats["misses"] == 0, "the snapshot arm rebuilt the CSR arrays"
        # The hot path must not have forced the per-edge dictionary indexes.
        assert not snapshot.hydrated


class TestEngineDifferential:
    def test_all_arms_agree_on_query_workloads(self):
        for db in case_graphs()[:4]:
            snapshot = snapshot_round_trip(db)
            for template in QUERY_TEMPLATES:
                query = build_query(template)
                has_output = bool(query.output_variables)
                # The dispatcher verdict is a function of the query alone;
                # pin it so a future arm cannot silently change engines.
                verdict = _select_cxrpq_engine(query, None)
                assert verdict is not None
                signatures = {}
                for name, arm in KERNEL_ARMS:
                    # Cold relations per arm: rows the other arm already
                    # materialised would make the plans moot.
                    invalidate_cache(db)
                    invalidate_cache(snapshot)
                    with arm():
                        assert _select_cxrpq_engine(query, None) == verdict
                        signatures[f"memory/{name}"] = answer_signature(
                            evaluate(query, db), has_output
                        )
                        signatures[f"snapshot/{name}"] = answer_signature(
                            evaluate(query, snapshot), has_output
                        )
                reference = signatures["memory/reference"]
                for name, signature in signatures.items():
                    assert signature == reference, (
                        f"engine arm {name!r} diverges on {template}: "
                        f"{signature} != {reference}"
                    )


    def test_production_keeps_snapshots_unhydrated_on_every_template(self):
        # Regression: the simple and vstar-free engines built the DB-as-NFA
        # view on every evaluation, although only the reference arm reads
        # it; building the view iterates ``db.edges``, which hydrated the
        # snapshot's per-edge dictionary indexes.
        for db in case_graphs()[:4]:
            for template in QUERY_TEMPLATES:
                snapshot = snapshot_round_trip(db)
                evaluate(build_query(template), snapshot)
                assert not snapshot.hydrated, f"{template} hydrated the snapshot"
                assert reachability_index(snapshot)._view is None, (
                    f"{template} built the DB-as-NFA view"
                )


class TestDeltaDifferential:
    """The delta arm: base + appended delta segments versus a from-scratch
    rebuild of the mutated graph.

    The overlay answers must be **byte-identical** to rebuilding the mutated
    graph from its edges, on both kernel arms — the overlay is not a new
    semantics, just a cheaper way to reach the same graph.
    """

    def mutated_case(self, db, rng):
        """A deterministic delta for ``db``: ~15% removals plus additions.

        The additions deliberately include a brand-new node and a parallel
        duplicate of a surviving edge; one removal targets a multigraph
        triple so the one-occurrence semantics is exercised.
        """
        from repro.graphdb.delta import EdgeDelta

        triples = sorted((tuple(edge) for edge in db.edges), key=repr)
        removals = [
            triples[index]
            for index in rng.sample(
                range(len(triples)), max(1, len(triples) // 7)
            )
        ]
        survivors = [triple for triple in triples if triple not in removals]
        keep = survivors[0] if survivors else triples[-1]
        nodes = sorted(db.nodes, key=repr)
        additions = [
            (nodes[0], "c", "fresh_node"),
            ("fresh_node", "a", nodes[-1]),
            keep,  # parallel duplicate of a surviving arc
        ]
        return EdgeDelta(additions, removals)

    def test_overlay_matches_from_scratch_rebuild_across_arms(self, tmp_path):
        rng = random.Random(42180)
        cases = 0
        for index, db in enumerate(case_graphs()[:4]):
            delta = self.mutated_case(db, rng)
            case_dir = tmp_path / str(index)
            case_dir.mkdir()
            overlay = snapshot_with_deltas(db, [delta], case_dir)
            rebuilt = rebuilt_with_delta(db, delta.additions, delta.removals)
            assert_same_database(rebuilt, overlay)
            for template in QUERY_TEMPLATES:
                query = build_query(template)
                has_output = bool(query.output_variables)
                signatures = {}
                for name, arm in KERNEL_ARMS:
                    invalidate_cache(rebuilt)
                    invalidate_cache(overlay)
                    with arm():
                        signatures[f"rebuild:{name}"] = answer_signature(
                            evaluate(query, rebuilt), has_output
                        )
                        signatures[f"overlay:{name}"] = answer_signature(
                            evaluate(query, overlay), has_output
                        )
                reference = signatures["rebuild:reference"]
                for name, signature in signatures.items():
                    assert signature == reference, (
                        f"delta arm {name!r} diverges on {template}: "
                        f"{signature} != {reference}"
                    )
                cases += 1
        assert cases >= 16

    def test_overlay_refresh_stays_on_the_preloaded_csr(self, tmp_path):
        """The delta arm must not pay hydration or a CSR rebuild, whether
        the delta is loaded from the file or applied to a serving shard."""
        from repro.graphdb.delta import EdgeDelta

        db = stringified(random_graph(12, 30, ABC, seed=9))
        triple = tuple(next(iter(db.edges)))
        delta = EdgeDelta([("n0", "a", "delta_node")], [triple])
        overlay = snapshot_with_deltas(db, [delta], tmp_path)
        serving = snapshot_round_trip(db)
        serving.apply_delta(delta.additions, delta.removals)
        for loaded, preloaded in ((overlay, 1), (serving, 2)):
            reachable_pairs(loaded, compiled("(a|b)+"))
            stats = cache_stats(loaded)["csr"]
            assert stats["preloaded"] == preloaded, "each CSR is preloaded"
            assert stats["misses"] == 0, "the delta arm rebuilt the CSR arrays"
            assert not loaded.hydrated
        assert reachable_pairs(serving, compiled("(a|b)+")) == reachable_pairs(
            rebuilt_with_delta(db, delta.additions, delta.removals), compiled("(a|b)+")
        )


class TestPlannerDifferential:
    """All-lazy workloads — where production's planner decisions are live.

    ``QUERY_TEMPLATES`` above carries string variables and passes through
    the simple or vstar-free engines too.  The workloads here are pure
    conjunctions of classical regexes: in production every relation is lazy
    and every planner decision (edge order, forced materialisation,
    expansion direction) is live, in memory and from ``.rgsnap``.  The
    eager reference arm makes no lazy-edge decision at all, which is what
    makes it the oracle.
    """

    ALL_LAZY_TEMPLATES = [
        ((("x", "b+", "y"), ("y", "c", "z")), (), None),
        ((("x", "(a|b)+", "y"), ("y", "c", "z")), ("x", "z"), None),
        ((("x", "a*c", "y"), ("y", "b", "z"), ("z", "a", "w")), ("x", "w"), None),
        ((("x", "a+", "y"), ("z", "c", "w")), (), None),  # two components
    ]

    def planner_graphs(self):
        graphs = [
            stringified(random_graph(10, 26, ABC, seed=13)),
            stringified(layered_graph(3, 4, ABC, seed=6)),
        ]
        graphs.append(deep_chain(24, seed=2))  # adversarial forced-edge family
        return graphs

    def test_planner_arms_agree_on_all_lazy_components(self):
        cases = 0
        for db in self.planner_graphs():
            snapshot = snapshot_round_trip(db)
            for template in self.ALL_LAZY_TEMPLATES:
                query = build_query(template)
                has_output = bool(query.output_variables)
                invalidate_cache(db)
                invalidate_cache(snapshot)
                signatures = {
                    "memory/csr": answer_signature(evaluate(query, db), has_output),
                    "snapshot/csr": answer_signature(evaluate(query, snapshot), has_output),
                }
                invalidate_cache(db)
                with csr_kernel_disabled():
                    signatures["memory/reference"] = answer_signature(
                        evaluate(query, db), has_output
                    )
                reference = signatures["memory/reference"]
                for name, signature in signatures.items():
                    assert signature == reference, (
                        f"arm {name!r} diverges on {template}: "
                        f"{signature} != {reference}"
                    )
                cases += 1
        assert cases >= 12


class TestExampleFixtures:
    def fixture_paths(self):
        return sorted(EXAMPLES_DIR.rglob("*.edges")) + sorted(
            EXAMPLES_DIR.rglob("*.json")
        )

    def test_every_fixture_round_trips_and_evaluates_identically(self):
        from repro.graphdb.io import load_database

        paths = self.fixture_paths()
        assert paths, "no graph fixtures found under examples/"
        for path in paths:
            db = load_database(path)
            snapshot = snapshot_round_trip(db)
            assert_same_database(db, snapshot)
            symbols = sorted(db.alphabet())
            patterns = [symbols[0], f"{symbols[0]}*"]
            if len(symbols) >= 2:
                patterns.append(f"({symbols[0]}|{symbols[1]})+")
            if len(symbols) >= 3:
                patterns.append(f"({symbols[0]}|{symbols[1]})*{symbols[2]}")
            for pattern in patterns:
                nfa = NFA.from_regex(parse_xregex(pattern), Alphabet(symbols))
                assert sorted(reachable_pairs(db, nfa), key=repr) == sorted(
                    reachable_pairs(snapshot, nfa), key=repr
                )
