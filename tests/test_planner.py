"""Tests for the cost-based join planner (engine/planner.py).

Three angles:

* **unit** — ``_select_edge`` tie-breaking and the forced-edge choice of
  :class:`JoinPlan`;
* **property** — the production arm (lazy relations, cost-based plans)
  and the eager reference arm produce byte-identical answers on randomized
  all-lazy components (plans may differ, answers may not);
* **regression** — on the ``deep_chain`` adversarial family the forced
  materialisation stays at the three marker arcs, whatever the chain
  length (pinned through the planner's ``forced_pairs`` telemetry).
"""

import random

import pytest

from repro.engine.engine import evaluate
from repro.engine.joins import EdgeRelation, _select_edge, join_morphisms, semijoin_reduce
from repro.engine.planner import JoinPlan, planner_stats, reset_planner_stats
from repro.graphdb.cache import invalidate_cache, reachability_index
from repro.graphdb.generators import deep_chain, random_graph
from repro.queries.cxrpq import CXRPQ
from repro.regex.parser import parse_xregex

from helpers import ABC, KERNEL_ARMS, compiled, stringified


def lazy_relation(db, pattern: str):
    """An unmaterialised CSR-backed relation over ``db``."""
    relation = reachability_index(db).relation(pattern if not isinstance(pattern, str) else compiled(pattern))
    assert not relation.materialised
    return relation


def answer_signature(result, has_output: bool) -> str:
    tuples = sorted(result.tuples, key=repr) if has_output else None
    return repr((result.boolean, tuples, result.exhaustive))


class TestSelectEdge:
    def test_bound_edges_beat_half_bound_beat_unbound(self):
        endpoints = [("x", "y"), ("y", "z"), ("w", "v")]
        relations = [
            EdgeRelation([(1, 2)]),
            EdgeRelation([(2, 3), (2, 4)]),
            EdgeRelation([(5, 6)]),
        ]
        # x and y bound: edge 0 is fully bound and wins outright.
        assert _select_edge([0, 1, 2], endpoints, relations, {"x": 1, "y": 2}) == 0
        # Only y bound: edge 1 is half bound, edges 0/2 cost their sizes.
        assert _select_edge([1, 2], endpoints, relations, {"y": 2}) == 1

    def test_unbound_ties_break_on_remaining_order(self):
        endpoints = [("x", "y"), ("z", "w")]
        relations = [EdgeRelation([(1, 2)]), EdgeRelation([(3, 4)])]
        # Equal sizes, nothing bound: the first edge in ``remaining`` wins.
        assert _select_edge([0, 1], endpoints, relations, {}) == 0
        assert _select_edge([1, 0], endpoints, relations, {}) == 1

    def test_v2_prefers_the_estimated_cheaper_lazy_edge(self):
        db = deep_chain(40)
        dense = lazy_relation(db, "b+")
        rare = lazy_relation(db, "c")
        endpoints = [("x", "y"), ("z", "w")]
        # Statistics rank the rare 'c' relation below the hub 'b+' one,
        # although both size_hint to n².
        assert dense.size_hint() == rare.size_hint()
        assert _select_edge([0, 1], endpoints, [dense, rare], {}) == 1


class TestForcedEdge:
    def endpoints(self):
        return [("x", "y"), ("y", "z")]

    def test_v2_forces_the_estimated_cheapest(self):
        db = deep_chain(40)
        relations = [lazy_relation(db, "b+"), lazy_relation(db, "c")]
        plan = JoinPlan(self.endpoints(), relations)
        assert plan.forced_edge({0, 1}) == 1

    def test_v2_ties_degrade_to_the_lowest_index(self):
        db = deep_chain(40)
        # Two relations over the same label have identical estimates.
        relations = [lazy_relation(db, "c"), lazy_relation(db, "c?c")]
        plan = JoinPlan(self.endpoints(), relations)
        costs = [plan.unbound_cost(0), plan.unbound_cost(1)]
        if costs[0] == costs[1]:
            assert plan.forced_edge({0, 1}) == 0

    def test_forced_pairs_telemetry_counts_the_materialisation(self):
        db = deep_chain(40)
        relations = [lazy_relation(db, "b+"), lazy_relation(db, "c")]
        reset_planner_stats()
        reduced = semijoin_reduce(self.endpoints(), relations)
        counters = planner_stats()
        assert counters["forced_materialisations"] == 1
        assert counters["forced_pairs"] == 3  # the three 'c' marker arcs
        # The reduction result is still correct: every surviving pair of the
        # b+ edge has a 'c' continuation.
        assert all(pair in relations[0].pairs for pair in reduced[0].pairs)


class TestPlannerEquivalence:
    """Property tests: the planned production arm and the eager reference
    arm agree byte-for-byte; only the work differs."""

    def all_lazy_queries(self):
        # Every edge is a classical regex (a lazy CSR relation), no fixed
        # variables: exactly the all-lazy-component shape the forced-edge
        # logic exists for.  Mixed selectivities stress the estimate order.
        return [
            (((("x", "b+", "y"), ("y", "c", "z"))), ("x", "z")),
            (((("x", "(a|b)+", "y"), ("y", "c", "z"))), ()),
            (((("x", "a+", "y"), ("z", "c", "w"))), ("y", "z")),  # two components
            (((("x", "a*c", "y"), ("y", "b", "z"), ("z", "a", "w"))), ("x", "w")),
            (((("x", "(a|c)+", "x"), ("x", "b", "y"))), ("x", "y")),  # self-loop
        ]

    def test_identical_answers_on_randomized_all_lazy_components(self):
        rng = random.Random(20260808)
        graphs = [
            stringified(random_graph(10, 28, ABC, seed=seed)) for seed in (1, 2, 3)
        ]
        graphs.append(deep_chain(24, seed=1))
        cases = 0
        for db in graphs:
            for edges, output in self.all_lazy_queries():
                query = CXRPQ(
                    [(s, parse_xregex(r), t) for s, r, t in edges],
                    output_variables=output,
                )
                signatures = {}
                for name, arm in KERNEL_ARMS:
                    # A fresh index per arm: production must plan from cold
                    # relations, not over rows another run already forced.
                    invalidate_cache(db)
                    with arm():
                        signatures[name] = answer_signature(
                            evaluate(query, db), bool(output)
                        )
                assert signatures["csr"] == signatures["reference"], (
                    f"kernel arms diverge on {edges} over {db}"
                )
                cases += 1
        assert cases >= 20

    def test_identical_morphisms_through_join_morphisms(self):
        db = deep_chain(20)
        endpoints = [("x", "y"), ("y", "z")]
        per_arm = {}
        for name, arm in KERNEL_ARMS:
            invalidate_cache(db)
            with arm():
                index = reachability_index(db)
                relations = [index.relation(compiled("b+")), index.relation(compiled("c"))]
                per_arm[name] = sorted(
                    (m["x"], m["y"], m["z"])
                    for m in join_morphisms(
                        endpoints, relations, ["x", "y", "z"], list(db.nodes)
                    )
                )
        assert per_arm["csr"] == per_arm["reference"]
        assert per_arm["csr"], "the workload must produce morphisms"


class TestDeepChainRegression:
    @pytest.mark.parametrize("length", [30, 60, 120])
    def test_v2_never_materialises_more_than_v1(self, length):
        # The hub relation ``b+`` is near-quadratic on this family and the
        # ``c`` markers are O(1): the cost-based (v2) forced-edge choice
        # must materialise the markers, however long the chain grows.  The
        # removed lowest-index heuristic (v1) forced at least ``length``
        # pairs here, so this absolute bound keeps the old comparison.
        db = deep_chain(length)
        query = CXRPQ(
            [("x", parse_xregex("b+"), "y"), ("y", parse_xregex("c"), "z")],
            output_variables=(),
        )
        invalidate_cache(db)
        reset_planner_stats()
        assert evaluate(query, db, boolean_short_circuit=True).boolean is True
        assert planner_stats()["forced_pairs"] <= 3
