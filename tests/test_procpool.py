"""Tests for the multi-process evaluation tier (``repro.service.procpool``).

Five layers:

* the **claim queue** in isolation: atomic claim, shard affinity, lease
  expiry, dead-worker requeue, idempotent completion, abort drain;
* the **message vocabulary**: every declared type pickles (the boundary
  contract RA107 checks statically, verified dynamically here);
* the **tier end-to-end**: process-pool answers are identical to the
  in-process tier's with 1, 2 and 4 workers, a refreshed snapshot shard is
  answered from the generation its envelope names, per-worker cache
  reports surface in ``stats()``, memory-backed shards are refused,
  ``repro batch --workers N`` works;
* the **worker's shard map**: one loaded copy per (path, version), at most
  two versions per path, and an item naming a version its file no longer
  holds fails instead of answering from another graph;
* **fault injection**: SIGKILL a worker while its items are deterministically
  claimed-but-uncompleted (``_debug_item_sleep_s``) — every admitted request
  still completes exactly once; with the restart budget exhausted the pool
  goes broken and fails pending requests loudly instead of hanging.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import signal
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.engine import evaluate
from repro.graphdb.database import GraphDatabase
from repro.graphdb.delta import EdgeDelta, load_delta_file
from repro.graphdb.io import load_database, save_edge_list
from repro.graphdb.storage import append_delta, load_snapshot, save_snapshot
from repro.service import (
    DatabaseRegistry,
    ProcessPoolBrokenError,
    QueryRequest,
    QueryService,
    QuerySpec,
    render_service_stats,
)
from repro.service.procpool import ClaimQueue
from repro.service.procpool.messages import (
    MESSAGE_TYPES,
    ClaimRequest,
    WorkItem,
    WorkResult,
    WorkerShutdown,
    WorkerStats,
)
from repro.service.procpool.worker import _execute

SERVICE_EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "service"


def small_db() -> GraphDatabase:
    return GraphDatabase.from_edges(
        [("n1", "a", "n2"), ("n2", "a", "n3"), ("n1", "b", "n3"), ("n3", "c", "n4")]
    )


def work_item(seq: int, shard: str = "g", path: str = "/snap/g.rgsnap") -> WorkItem:
    return WorkItem(
        item_id=(shard, 1, 0, f"fp{seq}", seq),
        shard=shard,
        path=path,
        fmt=None,
        spec={"edges": [["x", "a", "y"]], "boolean": True},
    )


def run(coroutine):
    return asyncio.run(coroutine)


async def _claimed_window(service: QueryService, minimum: int, timeout_s: float = 15.0):
    """Wait until ≥ ``minimum`` items sit in the claimed-but-uncompleted state.

    With ``_debug_item_sleep_s`` set, reaching this state guarantees a
    worker is parked inside its fault window — killing it now is
    deterministic, not a timing bet.
    """
    deadline = asyncio.get_running_loop().time() + timeout_s
    while True:
        stats = service.stats()["workers"]
        if stats.get("claimed_now", 0) >= minimum:
            return
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"never reached {minimum} live claims: {stats}")
        await asyncio.sleep(0.05)


# ---------------------------------------------------------------------------
# ClaimQueue
# ---------------------------------------------------------------------------


class TestClaimQueue:
    def test_claim_is_exclusive_and_fifo(self):
        queue = ClaimQueue(lease_s=30.0)
        first, second = work_item(1), work_item(2)
        queue.offer(first)
        queue.offer(second)
        assert queue.claim(1, (), now=0.0) is first
        assert queue.claim(2, (), now=0.0) is second
        assert queue.claim(3, (), now=0.0) is None
        assert queue.outstanding() == 2  # both claimed, none completed

    def test_affinity_prefers_loaded_paths(self):
        queue = ClaimQueue(lease_s=30.0)
        cold = work_item(1, shard="a", path="/snap/a.rgsnap")
        warm = work_item(2, shard="b", path="/snap/b.rgsnap")
        queue.offer(cold)
        queue.offer(warm)
        # The worker has shard b loaded: it gets b's item even though a's
        # is older; a fresh worker then takes the remaining one.
        assert queue.claim(1, ("/snap/b.rgsnap",), now=0.0) is warm
        assert queue.claim(2, (), now=0.0) is cold
        stats = queue.stats()
        assert stats["affinity_hits"] == 1
        assert stats["affinity_misses"] == 1

    def test_lease_expiry_requeues_to_front(self):
        queue = ClaimQueue(lease_s=1.0)
        stuck, fresh = work_item(1), work_item(2)
        queue.offer(stuck)
        assert queue.claim(1, (), now=0.0) is stuck
        queue.offer(fresh)
        assert queue.expire(now=0.5) == []  # lease still live
        assert queue.expire(now=1.5) == [stuck]
        # The recovered item outranks the never-claimed one.
        assert queue.claim(2, (), now=1.5) is stuck
        stats = queue.stats()
        assert stats["expired_leases"] == 1 and stats["requeued"] == 1

    def test_release_worker_requeues_only_its_claims(self):
        queue = ClaimQueue(lease_s=30.0)
        mine, yours = work_item(1), work_item(2)
        queue.offer(mine)
        queue.offer(yours)
        queue.claim(1, (), now=0.0)
        queue.claim(2, (), now=0.0)
        assert queue.release_worker(1) == [mine]
        assert queue.claimed_by(1) == 0
        assert queue.claimed_by(2) == 1
        assert queue.claim(3, (), now=0.0) is mine

    def test_completion_is_idempotent(self):
        queue = ClaimQueue(lease_s=30.0)
        item = work_item(1)
        queue.offer(item)
        queue.claim(1, (), now=0.0)
        assert queue.complete(item.item_id, 1) is True
        assert queue.complete(item.item_id, 1) is False
        stats = queue.stats()
        assert stats["completed"] == 1
        assert stats["duplicate_completions"] == 1
        assert queue.outstanding() == 0

    def test_first_completion_cancels_the_requeued_copy(self):
        # The stuck-but-alive scenario: the lease expires and the item is
        # requeued, then the original claimant finishes after all.  Its
        # completion must win AND remove the requeued copy, so the item is
        # neither re-run nor double-delivered.
        queue = ClaimQueue(lease_s=1.0)
        item = work_item(1)
        queue.offer(item)
        queue.claim(1, (), now=0.0)
        assert queue.expire(now=2.0) == [item]
        assert queue.complete(item.item_id, 1) is True
        assert queue.outstanding() == 0
        assert queue.claim(2, (), now=2.0) is None

    def test_drain_aborts_and_poisons_late_completions(self):
        queue = ClaimQueue(lease_s=30.0)
        claimed, pending = work_item(1), work_item(2)
        queue.offer(claimed)
        queue.offer(pending)
        queue.claim(1, (), now=0.0)
        drained = queue.drain()
        assert {item.item_id for item in drained} == {
            claimed.item_id,
            pending.item_id,
        }
        assert queue.outstanding() == 0
        # A zombie worker's late result must not resurrect a failed future.
        assert queue.complete(claimed.item_id, 1) is False

    def test_rejects_nonpositive_lease(self):
        with pytest.raises(ValueError):
            ClaimQueue(lease_s=0.0)


# ---------------------------------------------------------------------------
# Message vocabulary
# ---------------------------------------------------------------------------


class TestMessages:
    def test_every_declared_message_type_pickles(self):
        samples = [
            ClaimRequest(worker_id=1, loaded=("/snap/g.rgsnap",)),
            work_item(1),
            WorkResult(
                item_id=("g", 1, 0, "fp1", 1),
                worker_id=1,
                ok=True,
                tuples=(("n1", "n2"),),
                worker_cache={"reachability": {"hits": 3, "misses": 1}},
            ),
            WorkerShutdown(),
            WorkerStats(worker_id=1, evaluations=4, errors=0),
        ]
        assert {type(sample) for sample in samples} == set(MESSAGE_TYPES)
        for sample in samples:
            assert pickle.loads(pickle.dumps(sample)) == sample


# ---------------------------------------------------------------------------
# The tier end-to-end: same answers as the in-process tier
# ---------------------------------------------------------------------------


def _payload(result):
    payload = json.loads(result.to_json())
    # Timing and cache numbers legitimately differ across tiers.
    for volatile in ("timing", "cache", "deduplicated"):
        payload.pop(volatile, None)
    return payload


class TestProcessTier:
    def requests(self):
        return [
            QueryRequest(
                "g",
                QuerySpec(edges=(("x", "w{a|b}", "y"), ("y", "&w", "z"))),
                request_id="bool",
            ),
            QueryRequest(
                "g",
                QuerySpec(edges=(("x", "a", "y"),), output_variables=("x", "y")),
                request_id="out",
            ),
            QueryRequest(
                "h",
                QuerySpec(edges=(("x", "aa", "y"),), output_variables=("x", "y")),
                request_id="other-shard",
            ),
            QueryRequest(
                "g",
                QuerySpec(edges=(("x", "b", "y"),), output_variables=("x", "y")),
                request_id="out-b",
            ),
        ]

    def registry(self, tmp_path) -> DatabaseRegistry:
        registry = DatabaseRegistry()
        for name in ("g", "h"):
            path = tmp_path / f"{name}.rgsnap"
            save_snapshot(small_db(), path)
            registry.load(name, str(path))
        return registry

    def test_answers_match_the_thread_tier(self, tmp_path):
        registry = self.registry(tmp_path)
        requests = self.requests()

        async def thread_tier():
            async with QueryService(registry, concurrency=2) as service:
                return await service.run_batch(requests)

        async def process_tier(workers):
            async with QueryService(
                registry, concurrency=workers, pool="process"
            ) as service:
                results = await service.run_batch(requests)
                return results, service.stats()

        expected = [_payload(result) for result in run(thread_tier())]
        for concurrency in (1, 2, 4):
            results, stats = run(process_tier(concurrency))
            assert [_payload(result) for result in results] == expected, concurrency
            assert stats["pool"] == "process"
            workers = stats["workers"]
            assert workers["concurrency"] == concurrency
            assert workers["evaluations"] == len(requests)
            assert workers["completed"] == len(requests)
            assert workers["deaths"] == 0 and not workers["broken"]

    def test_refreshed_snapshot_is_answered_from_the_new_generation(self, tmp_path):
        # One worker serves both requests, so it has the shard loaded when
        # the refresh lands: it must load version 1, not keep version 0.
        path = tmp_path / "smoke.rgsnap"
        save_snapshot(load_database(SERVICE_EXAMPLES / "smoke.edges"), path)
        spec = QuerySpec(edges=(("x", "(a|b)*c", "y"),), output_variables=("x", "y"))

        async def scenario():
            registry = DatabaseRegistry()
            registry.load("smoke", str(path))
            async with QueryService(
                registry, concurrency=1, pool="process"
            ) as service:
                before = await service.submit(QueryRequest("smoke", spec))
                append_delta(path, load_delta_file(SERVICE_EXAMPLES / "smoke.delta"))
                await service.refresh("smoke")
                after = await service.submit(QueryRequest("smoke", spec))
            return before, after

        before, after = run(scenario())
        assert before.ok and after.ok, (before.error, after.error)
        assert (len(before.tuples), len(after.tuples)) == (4, 5)
        for result, version in ((before, 0), (after, 1)):
            assert result.database_version == version
            direct = evaluate(spec.to_query(), load_snapshot(path, segments=version))
            assert [tuple(row) for row in result.tuples] == sorted(
                direct.tuples, key=repr
            ), f"version {version}"

    def test_worker_cache_reports_surface_and_render(self, tmp_path):
        registry = self.registry(tmp_path)

        async def scenario():
            async with QueryService(
                registry, concurrency=2, pool="process"
            ) as service:
                await service.run_batch(self.requests())
                return service.stats()

        stats = run(scenario())
        caches = stats["worker_caches"]
        assert isinstance(caches, list) and caches
        assert all(isinstance(report, dict) for report in caches)
        rendered = render_service_stats(stats)
        assert "worker caches (" in rendered and "worker[0]:" in rendered
        assert "pool    : process" in rendered

    def test_idle_worker_still_reports_its_cache(self, tmp_path):
        # One request, two workers: whichever worker wins the start-up race
        # serves it, and the other one never loads a shard.  Both must still
        # report a cache block at shutdown — the idle one all zeros.
        registry = self.registry(tmp_path)

        async def scenario():
            async with QueryService(
                registry, concurrency=2, pool="process"
            ) as service:
                result = await service.submit(self.requests()[0])
            return result, service.stats()

        result, stats = run(scenario())
        assert result.ok
        caches = stats["worker_caches"]
        assert len(caches) == 2
        misses = sorted(report["totals"]["misses"] for report in caches)
        assert misses[0] == 0 and misses[1] > 0

    def test_memory_backed_shard_is_refused(self):
        registry = DatabaseRegistry()
        registry.register("mem", small_db())
        request = QueryRequest(
            "mem", QuerySpec(edges=(("x", "a", "y"),), output_variables=("x",))
        )

        async def scenario():
            async with QueryService(
                registry, concurrency=1, pool="process"
            ) as service:
                return await service.submit(request)

        result = run(scenario())
        assert result.ok is False
        assert "not file-backed" in result.error

    def test_pool_argument_is_validated(self):
        with pytest.raises(ValueError):
            QueryService(DatabaseRegistry(), pool="fibers")


class TestWorkerShardMap:
    """``_execute`` in-process: which graph a worker answers an item from."""

    def item(self, path, version: int) -> WorkItem:
        return WorkItem(
            item_id=("g", 1, version, "fp", version),
            shard="g",
            path=str(path),
            fmt=None,
            spec={"edges": [["x", "a", "y"]], "output": ["x", "y"]},
        )

    def test_each_version_loads_its_own_segments_and_two_stay_loaded(self, tmp_path):
        path = tmp_path / "g.rgsnap"
        save_snapshot(small_db(), path)
        append_delta(path, EdgeDelta([("n4", "a", "n5")], ()))
        append_delta(path, EdgeDelta([("n5", "a", "n6")], ()))
        databases = {}
        for version, answers in ((0, 2), (1, 3), (2, 4), (1, 3)):
            result = _execute(0, self.item(path, version), databases)
            assert result.ok, result.error
            assert len(result.tuples) == answers, f"version {version}"
        assert sorted(databases) == [(str(path), 1), (str(path), 2)]

    def test_a_version_the_file_does_not_hold_fails_the_item(self, tmp_path):
        snapshot = tmp_path / "g.rgsnap"
        save_snapshot(small_db(), snapshot)
        result = _execute(0, self.item(snapshot, 1), {})
        assert not result.ok
        assert str(snapshot) in result.error and "holds 0" in result.error
        text = tmp_path / "g.edges"
        save_edge_list(small_db(), text)
        version = load_database(text).version
        assert _execute(0, self.item(text, version), {}).ok
        result = _execute(0, self.item(text, version + 1), {})
        assert not result.ok
        assert str(text) in result.error and f"version {version + 1}" in result.error


class TestCliWorkers:
    def test_batch_workers_flag_uses_the_process_tier(self, tmp_path, capsys):
        snapshot = tmp_path / "g.rgsnap"
        save_snapshot(small_db(), snapshot)
        lines = [
            {"id": "r1", "database": "g",
             "edges": [["x", "w{a|b}", "y"], ["y", "&w", "z"]], "boolean": True},
            {"id": "r2", "database": "g", "edges": [["x", "a", "y"]],
             "output": ["x", "y"]},
        ]
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8"
        )
        code = main(
            [
                "batch",
                str(requests),
                "--database", f"g={snapshot}",
                "--workers", "2",
                "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        out = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert [line["id"] for line in out] == ["r1", "r2"]
        assert all(line["ok"] for line in out)
        assert out[0]["boolean"] is True
        assert out[1]["tuples"] == [["n1", "n2"], ["n2", "n3"]]
        assert "pool    : process" in captured.err
        assert "worker caches (2 processes)" in captured.err

    def test_workers_must_be_positive(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"database": "g", "edges": [["x", "a", "y"]]}\n')
        code = main(["batch", str(requests), "--workers", "0"])
        assert code == 1
        assert "--workers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fault injection: SIGKILL and the restart budget
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def _requests(self, count: int):
        # Distinct labels keep the fingerprints distinct; dedup is also off
        # in the service, so every request is its own claim-queue item.
        return [
            QueryRequest(
                "g",
                QuerySpec(
                    edges=(("x", "a" if index % 2 else "aa", "y"),),
                    output_variables=("x", "y"),
                ),
                request_id=f"r{index}",
            )
            for index in range(count)
        ]

    def _registry(self, tmp_path) -> DatabaseRegistry:
        registry = DatabaseRegistry()
        path = tmp_path / "g.rgsnap"
        save_snapshot(small_db(), path)
        registry.load("g", str(path))
        return registry

    def test_sigkill_mid_batch_completes_every_request_exactly_once(self, tmp_path):
        registry = self._registry(tmp_path)
        requests = self._requests(8)

        async def scenario():
            async with QueryService(
                registry, concurrency=2, pool="process", dedup=False
            ) as service:
                # Park every worker for 0.3s between claim and evaluation:
                # the kill below lands inside that window by construction.
                service._pool._debug_item_sleep_s = 0.3
                batch = asyncio.create_task(service.run_batch(requests))
                await _claimed_window(service, minimum=2)
                victim = service._pool.worker_pids()[0]
                os.kill(victim, signal.SIGKILL)
                results = await batch
                return results, service.stats()

        results, stats = run(scenario())
        assert [result.request_id for result in results] == [
            f"r{index}" for index in range(8)
        ]
        assert all(result.ok for result in results)
        workers = stats["workers"]
        # The crash was noticed, the claims were requeued, a replacement
        # was spawned — and completion stayed exactly-once throughout.
        assert workers["deaths"] >= 1
        assert workers["respawns"] >= 1
        assert workers["requeued"] >= 1
        assert workers["completed"] == 8
        assert workers["evaluations"] == 8
        assert not workers["broken"]
        assert stats["completed"] == 8 and stats["failed"] == 0

    def test_exhausted_restart_budget_breaks_the_pool_loudly(self, tmp_path):
        registry = self._registry(tmp_path)
        requests = self._requests(3)

        async def scenario():
            async with QueryService(
                registry,
                concurrency=1,
                pool="process",
                dedup=False,
                restart_budget=0,
            ) as service:
                service._pool._debug_item_sleep_s = 5.0
                batch = asyncio.create_task(service.run_batch(requests))
                await _claimed_window(service, minimum=1)
                os.kill(service._pool.worker_pids()[0], signal.SIGKILL)
                results = await batch
                return results, service.stats()

        results, stats = run(scenario())
        assert all(result.ok is False for result in results)
        assert any("restart budget" in result.error for result in results)
        workers = stats["workers"]
        assert workers["broken"]
        assert workers["respawns"] == 0
        assert workers["workers_live"] == 0
        assert stats["failed"] == 3

    def test_submission_after_breakage_fails_fast(self, tmp_path):
        registry = self._registry(tmp_path)

        async def scenario():
            async with QueryService(
                registry, concurrency=1, pool="process", restart_budget=0
            ) as service:
                service._pool._debug_item_sleep_s = 5.0
                first = asyncio.create_task(
                    service.submit(self._requests(1)[0])
                )
                await _claimed_window(service, minimum=1)
                os.kill(service._pool.worker_pids()[0], signal.SIGKILL)
                broken = await first
                # The pool is now broken: new work is refused immediately
                # instead of queueing forever.
                late = await service.submit(self._requests(2)[1])
                return broken, late

        broken, late = run(scenario())
        assert broken.ok is False and "restart budget" in broken.error
        assert late.ok is False
        assert ProcessPoolBrokenError is not None  # exported surface
