"""Cost-based join planning.

:mod:`repro.engine.joins` delegates its planning decisions to an explicit
:class:`JoinPlan` whose costs come from the per-database cardinality
sketches of :mod:`repro.graphdb.stats`:

* **edge selection** — an unbound edge's branching cost is its *estimated*
  relation cardinality (exact once materialised), so the backtracking
  search binds through selective relations first;
* **forced-edge choice** — an all-lazy component forces the edge whose
  relation is estimated *cheapest to materialise*, not the one that happens
  to come first in the pattern;
* **activation direction** — a lazy edge with both endpoint domains known
  expands from the side whose estimated frontier (domain size × expected
  per-node fanout, direction-aware) is smaller, not merely the smaller
  domain.

Estimates never affect answers — only the order and direction work happens
in; the differential harness pins the production arm to the eager reference
arm, byte for byte.

Module-level counters (:func:`planner_stats`) record what the planner did —
edges planned, activation directions, forced materialisations and the pair
counts they produced — and surface through ``repro evaluate --stats`` /
``serve --stats`` via :func:`repro.service.telemetry.render_planner_stats`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Set, Tuple

Node = Hashable


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------

#: What the counters start from (also documents the full counter set).
_ZERO_COUNTERS = {
    "plans": 0,
    "edges_planned": 0,
    "forward_activations": 0,
    "backward_activations": 0,
    "forced_materialisations": 0,
    "forced_pairs": 0,
}

_COUNTERS: Dict[str, int] = dict(_ZERO_COUNTERS)


def planner_stats() -> Dict[str, int]:
    """A snapshot of the process-wide planner decision counters.

    ``plans``/``edges_planned`` count constructed plans and the edges they
    cost; ``forward_activations``/``backward_activations`` count lazy-edge
    expansion directions; ``forced_materialisations`` counts all-lazy
    components that forced a full relation, and ``forced_pairs`` the total
    pairs those forced materialisations produced — the quantity the
    cost-based forced-edge choice exists to shrink.
    """
    return dict(_COUNTERS)


def reset_planner_stats() -> None:
    """Zero the planner decision counters (tests and benchmarks)."""
    _COUNTERS.update(_ZERO_COUNTERS)


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


class JoinPlan:
    """The planning decisions of one backtracking join, estimate-driven.

    Built once per join from the edge endpoints and (possibly lazy)
    relations; the join consults it at each decision point.  Per-edge
    unbound-cost estimates are memoised — within one plan an edge's
    estimate is stable even as its lazy relation materialises, keeping the
    edge order deterministic for the whole search.
    """

    __slots__ = ("edge_endpoints", "edge_relations", "_unbound_costs")

    def __init__(
        self,
        edge_endpoints: Sequence[Tuple[str, str]],
        edge_relations: Sequence,
    ):
        self.edge_endpoints = edge_endpoints
        self.edge_relations = edge_relations
        self._unbound_costs: Dict[int, int] = {}
        _COUNTERS["plans"] += 1
        _COUNTERS["edges_planned"] += len(edge_endpoints)

    # -- per-edge cost estimates -------------------------------------------------

    def unbound_cost(self, index: int) -> int:
        """The branching cost of enumerating edge ``index`` fully unbound.

        The estimated relation cardinality (``estimate_pairs`` — exact for
        materialised relations, a statistics sketch for lazy ones), or the
        raw ``size_hint`` for relations without estimates.  Memoised per
        edge for the lifetime of the plan.
        """
        cost = self._unbound_costs.get(index)
        if cost is None:
            relation = self.edge_relations[index]
            estimate = getattr(relation, "estimate_pairs", None)
            cost = estimate() if estimate is not None else relation.size_hint()
            self._unbound_costs[index] = cost
        return cost

    # -- decision points ---------------------------------------------------------

    def forced_edge(self, deferred: Set[int]) -> int:
        """Which deferred lazy edge an all-lazy component materialises.

        The edge whose relation is estimated cheapest to materialise; ties
        break on index, so the choice degrades to the lowest index when no
        statistics discriminate.
        """
        return min(deferred, key=lambda index: (self.unbound_cost(index), index))

    def note_forced(self, pair_count: int) -> None:
        """Record one forced materialisation and the pairs it produced."""
        _COUNTERS["forced_materialisations"] += 1
        _COUNTERS["forced_pairs"] += pair_count

    def activation_direction(
        self,
        index: int,
        domain_source: Optional[Set[Node]],
        domain_target: Optional[Set[Node]],
    ) -> str:
        """``"forward"`` or ``"backward"``: which side a lazy edge expands from.

        With only one domain known there is no choice.  With both known,
        each domain size is weighted by the expected per-node fanout of the
        relation's labels in that direction (the statistics' reachability
        sketch), since expanding few high-fanout nodes can cost more than
        many low-fanout ones.  Falls back to comparing the raw domain sizes
        when no statistics are available or the estimates tie.  The
        direction never changes the expanded pair set — only the work to
        compute it.
        """
        direction = self._direction(index, domain_source, domain_target)
        if direction == "forward":
            _COUNTERS["forward_activations"] += 1
        else:
            _COUNTERS["backward_activations"] += 1
        return direction

    def _direction(
        self,
        index: int,
        domain_source: Optional[Set[Node]],
        domain_target: Optional[Set[Node]],
    ) -> str:
        if domain_target is None:
            return "forward"
        if domain_source is None:
            return "backward"
        relation = self.edge_relations[index]
        statistics_of = getattr(relation, "plan_statistics", None)
        statistics = statistics_of() if statistics_of is not None else None
        if statistics is not None:
            labels = relation.labels()
            forward_cost = statistics.estimate_frontier(
                len(domain_source), labels, forward=True
            )
            backward_cost = statistics.estimate_frontier(
                len(domain_target), labels, forward=False
            )
            if forward_cost != backward_cost:
                return "forward" if forward_cost < backward_cost else "backward"
            # Identical estimates fall through to the domain-size tie-break,
            # so they never flip the deterministic choice.
        return (
            "forward" if len(domain_source) <= len(domain_target) else "backward"
        )
