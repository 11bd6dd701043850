"""Tests of the benchmark itself: the reference evaluator, the tracer and whole runs.

Run from the repository root with ``python3 -m pytest servebench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import tracing
from loads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE = ROOT / "examples" / "service"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke() -> reference.Graph:
    return reference.parse_edge_list((SMOKE / "smoke.edges").read_text())


# -- the reference evaluator, on answers worked out by hand -------------------------


def test_classical_rpq_on_the_smoke_graph(smoke):
    # (a|b)* reaches n3 from n1..n4, and the only c arc is n3 -> n4.
    answers = reference.answer(smoke, [("x", "(a|b)*c", "y")], ("x", "y"))
    assert answers == {("n1", "n4"), ("n2", "n4"), ("n3", "n4"), ("n4", "n4")}


def test_the_smoke_delta_adds_one_answer(smoke):
    additions, removals = reference.parse_delta((SMOKE / "smoke.delta").read_text())
    assert removals == [("n2", "b", "n4")]
    after = smoke.after(additions, removals)
    answers = reference.answer(after, [("x", "(a|b)*c", "y")], ("x", "y"))
    assert len(answers) == 5 and ("n5", "n4") in answers


def test_a_string_variable_forces_equal_words(smoke):
    edges = [("x", "w{a|b}", "y"), ("y", "&w", "z")]
    # aa runs n1 n2 n3 and n4 n1 n2; no two b arcs are consecutive.
    assert reference.answer(smoke, edges, ("x", "z")) == {("n1", "n3"), ("n4", "n2")}
    assert reference.answer(smoke, edges) == {()}


def test_image_bound_enumerates_words_up_to_the_bound(smoke):
    body = reference.parse("(a|b)+")
    assert sorted(reference._images(body, 2, {"a", "b", "c"})) == ["a", "aa", "ab", "b", "ba", "bb"]
    # ww over those images: aa gives (n1,n3) and (n4,n2), abab gives (n1,n3).
    answers = reference.answer(smoke, [("x", "w{(a|b)+}&w", "y")], ("x", "y"), image_bound=2)
    assert answers == {("n1", "n3"), ("n4", "n2")}


def test_empty_word_and_optional():
    graph = reference.Graph(["u", "v"], [("u", "a", "v")])
    assert reference.answer(graph, [("x", "a?", "y")], ("x", "y")) == {("u", "u"), ("v", "v"), ("u", "v")}
    assert reference.answer(graph, [("x", "b", "y")]) == set()


def test_definitions_off_the_spine_are_refused(smoke):
    with pytest.raises(reference.UnsupportedQuery):
        reference.answer(smoke, [("x", "(w{a}|b)&w", "y")], ("x", "y"))
    with pytest.raises(reference.UnsupportedQuery):
        reference.answer(smoke, [("x", "w{a*}&w", "y")], ("x", "y"))


def test_a_delta_must_remove_present_edges(smoke):
    with pytest.raises(ValueError):
        smoke.after([], [("n5", "a", "n1")])


# -- the tracer ---------------------------------------------------------------------


def test_uninstall_restores_every_entry_point():
    before = [owner.__dict__[attribute] for owner, attribute, _layer, _counter in tracing.ENTRY_POINTS]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(
        owner.__dict__[attribute] is not original
        for (owner, attribute, _layer, _counter), original in zip(tracing.ENTRY_POINTS, before)
    )
    tracer.uninstall()
    after = [owner.__dict__[attribute] for owner, attribute, _layer, _counter in tracing.ENTRY_POINTS]
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer._wrap(lambda inner: inner(), "outer", "outer.calls")
    inner = tracer._wrap(lambda: sum(range(20000)), "inner", None)
    outer(inner)
    self_s, counts = tracer.aggregate()
    spans = {span.layer: span for span in tracer.spans}
    assert spans["inner"].parent is spans["outer"]
    assert self_s["outer"] == pytest.approx(spans["outer"].busy - spans["inner"].busy)
    assert counts["outer.calls"] == 1


# -- whole runs ---------------------------------------------------------------------


def run_benchmark(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "servebench/run.py", *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_names_the_workloads():
    assert [workload["name"] for workload in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(workload["why"] == WORKLOADS[workload["name"]].why for workload in BENCHMARK["workloads"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_each_workload_runs_and_checks_its_answers(workload, trace):
    done = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "1.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "servebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("--workload", "longtail-thread", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
