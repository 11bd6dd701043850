"""E-T2 — Theorem 2: NL data complexity of CXRPQ^vsf.

A fixed vstar-free query is evaluated on random databases of increasing size;
the paper's claim is that data complexity is in NL, i.e. for a fixed query
the cost grows polynomially (not exponentially) in |D|.  The benchmark series
over |D| is the reproduced "figure"; the normal form is precomputed once, as
the data-complexity view treats the query as a constant.

Run ``python -m benchmarks.bench_thm2_vsf_data_complexity`` to print the
series; ``--smoke`` limits it to the two smallest sizes.
"""

import sys
import time

import pytest

from repro.engine.normal_form import normal_form
from repro.engine.vsf import evaluate_vsf
from repro.workloads import vsf_scaling_query

from benchmarks.common import cached_random_db, print_table

SIZES = [20, 40, 80, 160]
_QUERY = vsf_scaling_query()
_NORMAL_FORM = normal_form(_QUERY.conjunctive_xregex)


@pytest.mark.parametrize("nodes", SIZES)
def test_vsf_fixed_query_data_scaling(benchmark, nodes):
    db = cached_random_db(nodes, seed=7)
    result = benchmark.pedantic(
        lambda: evaluate_vsf(_QUERY, db, precomputed_normal_form=_NORMAL_FORM),
        rounds=3,
        iterations=1,
    )
    assert isinstance(result.boolean, bool)


def test_vsf_data_scaling_table(benchmark):
    def build_rows():
        rows = []
        for nodes in SIZES:
            db = cached_random_db(nodes, seed=7)
            result = evaluate_vsf(_QUERY, db, precomputed_normal_form=_NORMAL_FORM)
            rows.append([db.num_nodes(), db.num_edges(), result.boolean])
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    print_table(
        "Theorem 2 — fixed vsf query over growing databases",
        ["nodes", "edges", "satisfied"],
        rows,
    )


def main(argv):
    sizes = SIZES[:2] if "--smoke" in argv else SIZES
    rows = []
    for nodes in sizes:
        db = cached_random_db(nodes, seed=7)
        start = time.perf_counter()
        result = evaluate_vsf(_QUERY, db, precomputed_normal_form=_NORMAL_FORM)
        elapsed = time.perf_counter() - start
        rows.append(
            [db.num_nodes(), db.num_edges(), f"{elapsed * 1000:.1f}", result.boolean]
        )
    print_table(
        "Theorem 2 — fixed vsf query over growing databases",
        ["nodes", "edges", "ms", "satisfied"],
        rows,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
