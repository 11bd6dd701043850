"""Evaluation algorithms for the query classes of the paper.

Every fragment gets the algorithm the paper gives for it:

* :mod:`repro.engine.crpq` — CRPQs (Lemma 1): per-edge product reachability
  plus a backtracking join over matching morphisms,
* :mod:`repro.engine.ecrpq` — ECRPQs: the CRPQ join plus synchronous product
  checks for the regular-relation constraints,
* :mod:`repro.engine.simple` — simple CXRPQs (Lemma 3),
* :mod:`repro.engine.normal_form` — the normal-form construction for
  variable-star free conjunctive xregex (Lemmas 4, 5, 6 and 8),
* :mod:`repro.engine.vsf` — evaluation of ``CXRPQ^vsf`` and ``CXRPQ^vsf,fl``
  (Theorem 2, Lemma 7, Lemma 9, Theorem 5),
* :mod:`repro.engine.instantiation` — the ``v̄``-instantiation of Lemma 10/11,
* :mod:`repro.engine.bounded` — evaluation of ``CXRPQ^<=k`` and ``CXRPQ^log``
  (Theorem 6, Corollary 1),
* :mod:`repro.engine.generic` — a sound, bounded oracle for unrestricted
  CXRPQs (no complete algorithm is known, Section 8),
* :mod:`repro.engine.engine` — a dispatcher that classifies a query and picks
  the appropriate algorithm.

The backtracking join underneath them plans with per-database cardinality
statistics (:mod:`repro.engine.planner`).
"""

from repro.engine.planner import planner_stats, reset_planner_stats
from repro.engine.results import EvaluationResult, Match
from repro.engine.crpq import evaluate_crpq
from repro.engine.ecrpq import evaluate_ecrpq
from repro.engine.simple import evaluate_simple
from repro.engine.normal_form import normal_form
from repro.engine.vsf import evaluate_vsf
from repro.engine.bounded import evaluate_bounded
from repro.engine.generic import evaluate_generic
from repro.engine.engine import evaluate, evaluate_union

__all__ = [
    "EvaluationResult",
    "Match",
    "evaluate_crpq",
    "evaluate_ecrpq",
    "evaluate_simple",
    "normal_form",
    "evaluate_vsf",
    "evaluate_bounded",
    "evaluate_generic",
    "evaluate",
    "evaluate_union",
    "planner_stats",
    "reset_planner_stats",
]
