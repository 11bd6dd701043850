"""Tests for the async batched query-serving layer (``repro.service``)."""

import asyncio
import json
import time
from io import StringIO

import pytest

import repro.service.workers as workers_module
from repro.cli import build_parser, command_serve, main
from repro.engine.engine import evaluate
from repro.graphdb.database import GraphDatabase
from repro.graphdb.io import save_edge_list, save_json
from repro.graphdb.storage import SnapshotDatabase, save_snapshot
from repro.service import (
    AdmissionQueueFull,
    DatabaseEvictedError,
    DatabaseRegistry,
    EvaluationWorkerPool,
    QueryBroker,
    QueryRequest,
    QueryService,
    QuerySpec,
    RequestFormatError,
    ServiceResult,
    UnknownDatabaseError,
    render_cache_stats,
    serve_batch,
)
from repro.graphdb.cache import cache_stats, invalidate_cache
from repro.workloads import get_scenario, realise


def small_db() -> GraphDatabase:
    return GraphDatabase.from_edges(
        [("n1", "a", "n2"), ("n2", "a", "n3"), ("n1", "b", "n3"), ("n3", "c", "n4")]
    )


def boolean_spec(label_pair=("w{a|b}", "&w")) -> QuerySpec:
    first, second = label_pair
    return QuerySpec(edges=(("x", first, "y"), ("y", second, "z")))


def output_spec(label="a") -> QuerySpec:
    return QuerySpec(edges=(("x", label, "y"),), output_variables=("x", "y"))


def run(coroutine):
    return asyncio.run(coroutine)


# ---------------------------------------------------------------------------
# Requests / envelopes
# ---------------------------------------------------------------------------


class TestRequests:
    def test_json_roundtrip(self):
        request = QueryRequest("g", output_spec(), request_id="r7")
        parsed = QueryRequest.from_json(request.to_json())
        assert parsed == request

    def test_boolean_flag(self):
        request = QueryRequest.from_payload(
            {"database": "g", "edges": [["x", "a", "y"]], "boolean": True}
        )
        assert request.spec.output_variables == ()

    def test_conflicting_boolean_and_output_rejected(self):
        with pytest.raises(RequestFormatError):
            QueryRequest.from_payload(
                {"database": "g", "edges": [["x", "a", "y"]], "output": ["x"], "boolean": True}
            )

    def test_fingerprint_is_syntax_insensitive(self):
        spelled = QuerySpec(edges=(("x", "a|b", "y"),))
        bracketed = QuerySpec(edges=(("x", "(a|b)", "y"),))
        assert spelled.fingerprint() == bracketed.fingerprint()
        assert spelled.fingerprint() != QuerySpec(edges=(("x", "a", "y"),)).fingerprint()

    def test_fingerprint_distinguishes_semantics(self):
        plain = QuerySpec(edges=(("x", "a", "y"),))
        bounded = QuerySpec(edges=(("x", "a", "y"),), image_bound=2)
        assert plain.fingerprint() != bounded.fingerprint()

    @pytest.mark.parametrize(
        "payload",
        [
            {"edges": [["x", "a", "y"]]},  # no database
            {"database": "g"},  # no edges
            {"database": "g", "edges": [["x", "a"]]},  # malformed edge
            {"database": "g", "edges": [["x", "a", "y"]], "image_bound": "seven"},
            # a bare string would split into per-character variables
            {"database": "g", "edges": [["x", "a", "y"]], "output": "xy"},
        ],
    )
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(RequestFormatError):
            QueryRequest.from_payload(payload)

    def test_invalid_json_line_rejected(self):
        with pytest.raises(RequestFormatError):
            QueryRequest.from_json("{not json")

    def test_result_envelope_payload(self):
        request = QueryRequest("g", output_spec(), request_id="r1")
        envelope = ServiceResult.failure(request, "boom")
        payload = envelope.to_payload()
        assert payload["ok"] is False and payload["error"] == "boom"
        assert payload["id"] == "r1"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_load_once_and_reuse(self, tmp_path):
        path = tmp_path / "g.edges"
        save_edge_list(small_db(), path)
        registry = DatabaseRegistry()
        first = registry.load("g", str(path))
        again = registry.load("g", str(path))
        assert first is again
        assert registry.stats()["loads"] == 1

    def test_resolve_auto_loads_paths(self, tmp_path):
        path = tmp_path / "g.json"
        save_json(small_db(), path)
        registry = DatabaseRegistry()
        entry = registry.resolve(str(path))
        assert entry.db.num_nodes() == 4
        assert registry.resolve(str(path)) is entry  # loaded once

    def test_unknown_reference(self):
        registry = DatabaseRegistry()
        with pytest.raises(UnknownDatabaseError):
            registry.resolve("nope")

    def test_evict_and_generation(self):
        registry = DatabaseRegistry()
        entry = registry.register("g", small_db())
        assert registry.is_current(entry)
        assert registry.evict("g")
        assert not registry.is_current(entry)
        assert not registry.evict("g")
        replacement = registry.register("g", small_db())
        assert replacement.generation > entry.generation
        assert not registry.is_current(entry)

    def test_cache_stats_per_shard(self):
        registry = DatabaseRegistry()
        registry.register("g", small_db())
        stats = registry.cache_stats("g")
        assert "totals" in stats and "nfa_tables" in stats

    def test_concurrent_lazy_loads_share_one_entry(self, tmp_path, monkeypatch):
        """Double-checked locking in ``load()``: many threads racing the same
        lazy declaration must share one entry, one load, one generation."""
        import threading

        import repro.service.registry as registry_module

        path = tmp_path / "g.edges"
        save_edge_list(small_db(), path)
        real_load = registry_module.load_database

        def slow_load(*args, **kwargs):
            # Widen the race window so every thread reaches the parse phase
            # before the first registration lands.
            time.sleep(0.05)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(registry_module, "load_database", slow_load)
        registry = DatabaseRegistry()
        registry.register_lazy("g", str(path))
        barrier = threading.Barrier(8)
        entries, failures = [], []

        def resolve():
            barrier.wait()
            try:
                entries.append(registry.resolve("g"))
            except Exception as error:  # pragma: no cover - diagnostic only
                failures.append(error)

        threads = [threading.Thread(target=resolve) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(entries) == 8
        assert len({entry.generation for entry in entries}) == 1
        assert all(entry.db is entries[0].db for entry in entries)
        stats = registry.stats()
        assert stats["loads"] == 1, "concurrent identical loads must coalesce"
        assert registry.peek("g").generation == entries[0].generation

    def test_swap_retires_exactly_one_generation(self):
        registry = DatabaseRegistry()
        first = registry.register("g", small_db())
        second = registry.swap(registry.begin_refresh("g", db=small_db()))
        # The swapped-out generation is retired, not dead: in-flight work
        # may finish against it, but it is no longer current.
        assert not registry.is_current(first)
        assert registry.is_serviceable(first)
        assert registry.is_current(second)
        assert registry.peek("g") is second
        third = registry.swap(registry.begin_refresh("g", db=small_db()))
        assert not registry.is_serviceable(first), "a second swap displaces it"
        assert registry.is_serviceable(second)
        assert registry.is_serviceable(third)
        stats = registry.stats()
        assert stats["swaps"] == 2
        assert stats["refreshes"] == 2
        assert stats["retired"] == 1
        assert registry.evict("g")
        assert not registry.is_serviceable(second)
        assert not registry.is_serviceable(third)
        assert registry.stats()["retired"] == 0

    def test_register_still_invalidates_not_retires(self):
        """Plain re-registration keeps its replacement semantics: the old
        generation is not serviceable (only ``swap`` retires)."""
        registry = DatabaseRegistry()
        first = registry.register("g", small_db())
        registry.register("g", small_db())
        assert not registry.is_current(first)
        assert not registry.is_serviceable(first)

    def test_begin_refresh_rereads_the_source_file(self, tmp_path):
        path = tmp_path / "g.edges"
        save_edge_list(small_db(), path)
        registry = DatabaseRegistry()
        entry = registry.load("g", str(path))
        assert entry.db.num_edges() == 4
        grown = small_db()
        grown.add_edge("n4", "a", "n5")
        save_edge_list(grown, path)
        pending = registry.begin_refresh("g")
        assert pending.replaces == entry.generation
        # Nothing visible until the swap: the live entry still serves.
        assert registry.peek("g") is entry
        swapped = registry.swap(pending)
        assert registry.peek("g") is swapped
        assert swapped.db.num_edges() == 5
        assert swapped.source == str(path)

    def test_begin_refresh_without_source_is_refused(self):
        registry = DatabaseRegistry()
        registry.register("g", small_db())  # source "<memory>"
        with pytest.raises(UnknownDatabaseError):
            registry.begin_refresh("g")
        with pytest.raises(UnknownDatabaseError):
            registry.begin_refresh("never-registered")


# ---------------------------------------------------------------------------
# Broker: admission, dedup, batching
# ---------------------------------------------------------------------------


class TestBroker:
    def _submit(self, broker, registry, spec, name="g"):
        entry = registry.get(name)
        request = QueryRequest(name, spec)
        return broker.submit(request, entry, spec.to_query())

    def test_overflow_rejection(self):
        async def scenario():
            registry = DatabaseRegistry()
            registry.register("g", small_db())
            broker = QueryBroker(max_pending=1, batch_size=4)
            self._submit(broker, registry, output_spec("a"))
            with pytest.raises(AdmissionQueueFull):
                self._submit(broker, registry, output_spec("b"))
            assert broker.stats()["rejected"] == 1

        run(scenario())

    def test_duplicate_shares_slot_even_when_full(self):
        async def scenario():
            registry = DatabaseRegistry()
            registry.register("g", small_db())
            broker = QueryBroker(max_pending=1, batch_size=4)
            ticket, deduplicated = self._submit(broker, registry, output_spec("a"))
            assert not deduplicated
            shared, deduplicated = self._submit(broker, registry, output_spec("a"))
            assert deduplicated and shared is ticket
            assert broker.pending_count == 1

        run(scenario())

    def test_per_shard_fifo_and_round_robin(self):
        async def scenario():
            registry = DatabaseRegistry()
            registry.register("g", small_db())
            registry.register("h", small_db())
            broker = QueryBroker(max_pending=16, batch_size=2)
            for label in ("a", "b", "c"):
                self._submit(broker, registry, output_spec(label), name="g")
            self._submit(broker, registry, output_spec("a"), name="h")
            shard1, batch1 = await broker.next_batch()
            shard2, batch2 = await broker.next_batch()
            shard3, batch3 = await broker.next_batch()
            assert (shard1, shard2, shard3) == ("g", "h", "g")
            labels = [ticket.query.xregexes()[0].to_string() for ticket in batch1 + batch3]
            assert labels == ["a", "b", "c"]  # arrival order within the shard

        run(scenario())

    def test_next_batch_returns_none_when_closed(self):
        async def scenario():
            broker = QueryBroker()
            broker.close()
            assert await broker.next_batch() is None

        run(scenario())


# ---------------------------------------------------------------------------
# Service: dedup, eviction, overflow, telemetry
# ---------------------------------------------------------------------------


class TestService:
    def test_concurrent_identical_requests_share_one_evaluation(self, monkeypatch):
        calls = []
        real_evaluate = workers_module.evaluate

        def counting_evaluate(query, db, **kwargs):
            calls.append(query)
            return real_evaluate(query, db, **kwargs)

        monkeypatch.setattr(workers_module, "evaluate", counting_evaluate)
        registry = DatabaseRegistry()
        registry.register("g", small_db())
        request = QueryRequest("g", boolean_spec(), request_id="twin")

        async def scenario():
            async with QueryService(registry, use_threads=False) as service:
                first = asyncio.create_task(service.submit(request))
                second = asyncio.create_task(service.submit(request))
                return await asyncio.gather(first, second), service.stats()

        (first, second), stats = run(scenario())
        assert len(calls) == 1
        assert first.ok and second.ok and first.boolean == second.boolean
        assert sorted([first.deduplicated, second.deduplicated]) == [False, True]
        assert stats["broker"]["deduplicated"] == 1
        assert stats["workers"]["evaluations"] == 1

    def test_distinct_requests_do_not_dedup(self):
        registry = DatabaseRegistry()
        registry.register("g", small_db())
        requests = [
            QueryRequest("g", output_spec("a")),
            QueryRequest("g", output_spec("b")),
        ]
        results = serve_batch(requests, registry, use_threads=False)
        assert [result.deduplicated for result in results] == [False, False]
        assert results[0].tuples != results[1].tuples

    def test_results_match_direct_evaluation(self):
        registry = DatabaseRegistry()
        db = small_db()
        registry.register("g", db)
        spec = output_spec("a")
        results = serve_batch([QueryRequest("g", spec)], registry, use_threads=False)
        direct = evaluate(spec.to_query(), db)
        assert results[0].boolean == direct.boolean
        assert [tuple(row) for row in results[0].tuples] == sorted(direct.tuples, key=repr)

    def test_hot_key_stream_matches_direct_evaluation_with_and_without_dedup(self):
        # 36 Zipf-drawn requests over 4 shards, all admitted at once: the
        # duplicates collapse onto in-flight tickets, and every envelope
        # still carries exactly the answer of a direct evaluate().
        workload = realise(get_scenario("service-dedup-smoke"))
        requests = [timed.request for timed in workload.requests]
        shards = dict(workload.databases)
        expected = []
        for request in requests:
            query = request.spec.to_query()
            direct = evaluate(
                query,
                shards[request.database],
                generic_path_bound=request.spec.generic_path_bound,
                boolean_short_circuit=query.is_boolean,
            )
            tuples = sorted(direct.tuples, key=repr) if query.output_variables else None
            expected.append((direct.boolean, tuples))

        async def scenario(dedup):
            async with QueryService(
                workload.build_registry(),
                concurrency=3,
                max_pending=len(requests),
                dedup=dedup,
            ) as service:
                return await service.run_batch(requests), service.stats()

        for dedup in (True, False):
            results, stats = run(scenario(dedup))
            assert all(result.ok for result in results)
            answers = [
                (
                    result.boolean,
                    None if result.tuples is None else [tuple(row) for row in result.tuples],
                )
                for result in results
            ]
            assert answers == expected, f"dedup={dedup}"
            evaluations = stats["workers"]["evaluations"]
            deduplicated = stats["broker"]["deduplicated"]
            if dedup:
                assert deduplicated > 0 and evaluations < len(requests)
            else:
                assert (deduplicated, evaluations) == (0, len(requests))

    def test_eviction_invalidates_queued_batches_safely(self):
        async def scenario():
            registry = DatabaseRegistry()
            entry = registry.register("g", small_db())
            broker = QueryBroker(max_pending=8, batch_size=4)
            spec = output_spec("a")
            ticket, _ = broker.submit(QueryRequest("g", spec), entry, spec.to_query())
            registry.evict("g")
            pool = EvaluationWorkerPool(
                broker, registry, concurrency=1, use_threads=False
            )
            pool.start()
            broker.close()
            await pool.join()
            with pytest.raises(DatabaseEvictedError):
                ticket.future.result()
            assert pool.stats()["evicted"] == 1
            assert pool.stats()["errors"] == 0  # evictions are not eval errors

        run(scenario())

    def test_mixed_generation_batch_only_fails_stale_tickets(self):
        async def scenario():
            registry = DatabaseRegistry()
            stale_entry = registry.register("g", small_db())
            broker = QueryBroker(max_pending=8, batch_size=4)
            old_spec = output_spec("a")
            stale, _ = broker.submit(
                QueryRequest("g", old_spec), stale_entry, old_spec.to_query()
            )
            # Re-register the shard: the earlier ticket is now stale, but a
            # request admitted against the *new* registration lands in the
            # same per-shard-name batch and must still be served.
            fresh_entry = registry.register("g", small_db())
            new_spec = output_spec("b")
            fresh, _ = broker.submit(
                QueryRequest("g", new_spec), fresh_entry, new_spec.to_query()
            )
            pool = EvaluationWorkerPool(
                broker, registry, concurrency=1, use_threads=False
            )
            pool.start()
            broker.close()
            await pool.join()
            with pytest.raises(DatabaseEvictedError):
                stale.future.result()
            assert fresh.future.result() is not None  # evaluated, not failed
            assert pool.stats()["evicted"] == 1

        run(scenario())

    def test_in_flight_batch_finishes_on_old_generation_across_swap(self):
        """The acceptance scenario: a request admitted before ``swap`` must
        evaluate against the generation it was admitted to, while a request
        admitted after the swap sees the new graph — both succeed."""

        async def scenario():
            registry = DatabaseRegistry()
            old_entry = registry.register("g", small_db())
            broker = QueryBroker(max_pending=8, batch_size=4)
            spec = output_spec("a")
            in_flight, _ = broker.submit(
                QueryRequest("g", spec), old_entry, spec.to_query()
            )
            # The background rebuild lands while the first ticket is still
            # queued: a disjoint graph so the answers identify the arm.
            replacement = GraphDatabase.from_edges([("m1", "a", "m2")])
            new_entry = registry.swap(registry.begin_refresh("g", db=replacement))
            after_swap, _ = broker.submit(
                QueryRequest("g", spec), new_entry, spec.to_query()
            )
            pool = EvaluationWorkerPool(
                broker, registry, concurrency=1, use_threads=False
            )
            pool.start()
            broker.close()
            await pool.join()
            old_tuples = sorted(in_flight.future.result().tuples)
            new_tuples = sorted(after_swap.future.result().tuples)
            assert old_tuples == [("n1", "n2"), ("n2", "n3")], (
                "the in-flight request must answer from the old generation"
            )
            assert new_tuples == [("m1", "m2")], (
                "the post-swap request must answer from the new generation"
            )
            assert pool.stats()["evicted"] == 0, "a swap strands no tickets"
            assert registry.stats()["swaps"] == 1

        run(scenario())

    def test_service_refresh_swaps_between_submissions(self, tmp_path):
        path = tmp_path / "g.edges"
        save_edge_list(small_db(), path)

        async def scenario():
            registry = DatabaseRegistry()
            registry.load("g", str(path))
            async with QueryService(registry, use_threads=False) as service:
                request = QueryRequest("g", output_spec("a"))
                before = await service.submit(request)
                grown = small_db()
                grown.add_edge("n3", "a", "n5")
                save_edge_list(grown, path)
                await service.refresh("g")
                after = await service.submit(request)
                return before, after, service.stats()

        before, after, stats = run(scenario())
        assert before.ok and sorted(before.tuples) == [("n1", "n2"), ("n2", "n3")]
        assert after.ok and ("n3", "n5") in after.tuples
        registry_stats = stats["registry"]
        assert registry_stats["swaps"] == 1
        assert registry_stats["refreshes"] == 1
        assert registry_stats["retired"] == 1

    def test_eviction_surfaces_as_error_envelope(self):
        registry = DatabaseRegistry()
        registry.register("g", small_db())
        request = QueryRequest("g", output_spec("a"), request_id="r1")

        async def scenario():
            async with QueryService(registry, use_threads=False) as service:
                task = asyncio.create_task(service.submit(request))
                # One loop step: the submit enqueues and blocks on its future
                # (call_soon is FIFO, so we resume before the worker runs).
                await asyncio.sleep(0)
                registry.evict("g")
                rejected = await task
                # The shard can be re-registered and served again at once.
                registry.register("g", small_db())
                recovered = await service.submit(request)
                return rejected, recovered

        rejected, recovered = run(scenario())
        assert not rejected.ok and "evicted" in rejected.error
        assert recovered.ok and recovered.tuples

    def test_service_overflow_rejection_under_load(self, monkeypatch):
        real_evaluate = workers_module.evaluate

        def slow_evaluate(query, db, **kwargs):
            time.sleep(0.15)
            return real_evaluate(query, db, **kwargs)

        monkeypatch.setattr(workers_module, "evaluate", slow_evaluate)
        registry = DatabaseRegistry()
        registry.register("g", small_db())

        async def scenario():
            service = QueryService(
                registry, concurrency=1, max_pending=1, batch_size=1, use_threads=True
            )
            async with service:
                first = asyncio.create_task(service.submit(QueryRequest("g", output_spec("a"))))
                await asyncio.sleep(0.05)  # the worker thread is now busy on it
                second = asyncio.create_task(service.submit(QueryRequest("g", output_spec("b"))))
                await asyncio.sleep(0.01)  # queued: the admission queue is full
                with pytest.raises(AdmissionQueueFull):
                    await service.submit(QueryRequest("g", output_spec("c")))
                return await asyncio.gather(first, second)

        first, second = run(scenario())
        assert first.ok and second.ok

    def test_run_batch_applies_backpressure_beyond_max_pending(self):
        registry = DatabaseRegistry()
        registry.register("g", small_db())
        labels = ["a", "b", "c", "a|b", "a|c", "b|c"]
        requests = [QueryRequest("g", output_spec(label)) for label in labels]
        async def scenario():
            async with QueryService(
                registry, use_threads=False, max_pending=2, batch_size=1
            ) as service:
                results = await service.run_batch(requests)
                return results, service.stats()

        results, stats = run(scenario())
        assert all(result.ok for result in results)
        assert len(results) == len(requests)
        # Backpressure waits are not shed load: nothing was rejected.
        assert stats["broker"]["rejected"] == 0

    def test_unknown_database_and_bad_query_become_envelopes(self):
        registry = DatabaseRegistry()
        registry.register("g", small_db())
        requests = [
            QueryRequest("missing", output_spec("a"), request_id="r1"),
            QueryRequest("g", QuerySpec(edges=(("x", "x{a&x}", "y"),)), request_id="r2"),
            # Not vstar-free and unbounded: rejected at admission time.
            QueryRequest("g", QuerySpec(edges=(("x", "z{a}(&z)+", "y"),)), request_id="r3"),
        ]
        results = serve_batch(requests, registry, use_threads=False)
        assert [result.ok for result in results] == [False, False, False]
        assert "unknown database" in results[0].error
        assert "image_bound" in results[2].error

    def test_unservable_query_accepted_with_oracle_opt_in(self):
        registry = DatabaseRegistry()
        registry.register("g", small_db())
        spec = QuerySpec(edges=(("x", "z{a}(&z)+", "y"),), generic_path_bound=4)
        results = serve_batch([QueryRequest("g", spec)], registry, use_threads=False)
        assert results[0].ok

    def test_telemetry_fields_populated(self):
        registry = DatabaseRegistry()
        registry.register("g", small_db())
        invalidate_cache(registry.get("g").db)
        results = serve_batch([QueryRequest("g", boolean_spec())], registry, use_threads=False)
        envelope = results[0]
        assert envelope.evaluation_s >= 0.0
        assert envelope.total_s >= envelope.evaluation_s
        assert envelope.cache_misses > 0  # cold shard: the evaluation populated caches
        payload = envelope.to_payload()
        assert set(payload["timing"]) == {"queue_wait_s", "evaluation_s", "total_s"}
        assert set(payload["cache"]) == {"hits", "misses"}

    def test_stats_expose_per_shard_cache_counters(self):
        registry = DatabaseRegistry()
        registry.register("g", small_db())

        async def scenario():
            async with QueryService(registry, use_threads=False) as service:
                await service.submit(QueryRequest("g", boolean_spec()))
                return service.stats()

        stats = run(scenario())
        shard = stats["registry"]["shards"]["g"]
        assert shard["cache_misses"] > 0
        assert stats["completed"] == 1

    def test_render_cache_stats_matches_cache_names(self):
        registry = DatabaseRegistry()
        registry.register("g", small_db())
        serve_batch([QueryRequest("g", boolean_spec())], registry, use_threads=False)
        text = render_cache_stats(cache_stats(registry.get("g").db))
        assert "totals" in text and "nfa_tables" in text


# ---------------------------------------------------------------------------
# Snapshot-backed shards: lazy cold-loading, shared files, eviction
# ---------------------------------------------------------------------------


class TestSnapshotShards:
    def snapshot_path(self, tmp_path):
        path = tmp_path / "g.rgsnap"
        save_snapshot(small_db(), path)
        return path

    def test_lazy_registration_defers_the_load_to_first_query(self, tmp_path):
        path = self.snapshot_path(tmp_path)
        registry = DatabaseRegistry()
        registry.register_lazy("g", str(path))
        # Declared but not loaded: addressable, no disk I/O yet.
        assert "g" in registry and len(registry) == 1
        assert registry.peek("g") is None
        assert registry.stats()["loads"] == 0
        assert registry.stats()["shards"]["g"] == {"source": str(path), "pending": True}
        entry = registry.resolve("g")
        assert isinstance(entry.db, SnapshotDatabase)
        assert registry.stats()["loads"] == 1
        assert registry.stats()["pending"] == 0
        # The cold load pre-seeded the CSR arrays from the snapshot.
        assert cache_stats(entry.db)["csr"]["preloaded"] == 1
        # Resolving again reuses the live entry (one load, warm caches).
        assert registry.resolve("g") is entry

    def test_lazy_shard_loads_through_the_service_on_first_request(self, tmp_path):
        path = self.snapshot_path(tmp_path)
        registry = DatabaseRegistry()
        registry.register_lazy("g", str(path))
        spec = output_spec("a")
        results = serve_batch([QueryRequest("g", spec)], registry, use_threads=False)
        assert results[0].ok
        direct = evaluate(spec.to_query(), small_db())
        assert [tuple(row) for row in results[0].tuples] == sorted(direct.tuples, key=repr)
        assert registry.stats()["loads"] == 1

    def test_two_shards_backed_by_one_snapshot_file_evaluate_concurrently(self, tmp_path):
        # Two registrations of the same .rgsnap file get independent mmaps,
        # databases and caches: concurrent batches across both shards (real
        # threads, so the kernel actually runs in parallel workers) must not
        # race each other or the mapping.
        path = self.snapshot_path(tmp_path)
        registry = DatabaseRegistry()
        registry.register_lazy("s1", str(path))
        registry.register_lazy("s2", str(path))
        specs = [boolean_spec(), output_spec("a"), output_spec("a|b")]
        requests = [
            QueryRequest(name, spec, request_id=f"{name}.{index}")
            for index, spec in enumerate(specs * 3)
            for name in ("s1", "s2")
        ]
        results = serve_batch(requests, registry, concurrency=3, use_threads=True)
        assert all(result.ok for result in results)
        entry_one, entry_two = registry.get("s1"), registry.get("s2")
        assert entry_one.db is not entry_two.db
        by_request = {result.request_id: result for result in results}
        for index, spec in enumerate(specs * 3):
            direct = evaluate(spec.to_query(), small_db())
            for name in ("s1", "s2"):
                result = by_request[f"{name}.{index}"]
                assert result.boolean == direct.boolean
                if spec.output_variables:
                    assert [tuple(row) for row in result.tuples] == sorted(
                        direct.tuples, key=repr
                    )

    def test_eviction_of_snapshot_shard_mid_batch_fails_safely(self, tmp_path):
        path = self.snapshot_path(tmp_path)

        async def scenario():
            registry = DatabaseRegistry()
            registry.register_lazy("g", str(path))
            entry = registry.resolve("g")
            assert isinstance(entry.db, SnapshotDatabase)
            broker = QueryBroker(max_pending=8, batch_size=4)
            spec = output_spec("a")
            ticket, _ = broker.submit(QueryRequest("g", spec), entry, spec.to_query())
            registry.evict("g")
            pool = EvaluationWorkerPool(
                broker, registry, concurrency=1, use_threads=False
            )
            pool.start()
            broker.close()
            await pool.join()
            with pytest.raises(DatabaseEvictedError):
                ticket.future.result()
            assert pool.stats()["evicted"] == 1

        run(scenario())

    def test_evicting_a_pending_declaration_drops_it(self, tmp_path):
        path = self.snapshot_path(tmp_path)
        registry = DatabaseRegistry()
        registry.register_lazy("g", str(path))
        assert registry.evict("g")
        assert "g" not in registry
        assert registry.stats()["loads"] == 0  # never touched the disk
        with pytest.raises(UnknownDatabaseError):
            registry.get("g")


# ---------------------------------------------------------------------------
# CLI: batch and serve end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture()
def service_files(tmp_path):
    save_edge_list(small_db(), tmp_path / "g.edges")
    lines = [
        {"id": "r1", "database": "g", "edges": [["x", "w{a|b}", "y"], ["y", "&w", "z"]],
         "boolean": True},
        {"id": "r2", "database": "g", "edges": [["x", "a", "y"]], "output": ["x", "y"]},
        {"id": "r3", "database": "g", "edges": [["x", "w{a|b}", "y"], ["y", "&w", "z"]],
         "boolean": True},
    ]
    requests = tmp_path / "requests.jsonl"
    requests.write_text("\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8")
    return tmp_path


class TestCliBatch:
    def test_batch_end_to_end(self, service_files, capsys):
        code = main(
            [
                "batch",
                str(service_files / "requests.jsonl"),
                "--database", f"g={service_files / 'g.edges'}",
            ]
        )
        assert code == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [line["id"] for line in lines] == ["r1", "r2", "r3"]  # input order
        assert all(line["ok"] for line in lines)
        assert lines[0]["boolean"] is True
        assert lines[1]["tuples"] == [["n1", "n2"], ["n2", "n3"]]

    def test_batch_reports_failures_via_exit_code(self, service_files, capsys):
        bad = service_files / "bad.jsonl"
        bad.write_text('{"id": "r1", "database": "missing", "edges": [["x", "a", "y"]]}\n')
        code = main(["batch", str(bad)])
        assert code == 1
        line = json.loads(capsys.readouterr().out.strip())
        assert line["ok"] is False and "unknown database" in line["error"]

    def test_batch_stats_flag(self, service_files, capsys):
        code = main(
            [
                "batch",
                str(service_files / "requests.jsonl"),
                "--database", f"g={service_files / 'g.edges'}",
                "--stats",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "[service stats]" in err and "shard g" in err

    def test_bad_database_declaration(self, service_files, capsys):
        code = main(["batch", str(service_files / "requests.jsonl"), "--database", "oops"])
        assert code == 1
        assert "NAME=PATH" in capsys.readouterr().err

    def test_bad_numeric_options_error_cleanly(self, service_files, capsys):
        code = main(["batch", str(service_files / "requests.jsonl"), "--concurrency", "0"])
        assert code == 1
        assert "--concurrency" in capsys.readouterr().err


class TestCliCompact:
    def test_compact_then_batch_over_the_snapshot(self, service_files, capsys):
        snapshot = service_files / "g.rgsnap"
        assert main(["compact", str(service_files / "g.edges"), str(snapshot)]) == 0
        assert "snapshot" in capsys.readouterr().out
        code = main(
            [
                "batch",
                str(service_files / "requests.jsonl"),
                "--database", f"g={snapshot}",
                "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert [line["id"] for line in lines] == ["r1", "r2", "r3"]
        assert all(line["ok"] for line in lines)
        assert lines[1]["tuples"] == [["n1", "n2"], ["n2", "n3"]]
        # The snapshot shard was declared lazily and cold-loaded on first use.
        assert "loads=1" in captured.err and "pending=0" in captured.err

    def test_compact_rejects_binary_junk_input(self, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x00\xff\x00 junk")
        code = main(["compact", str(junk), str(tmp_path / "out.rgsnap")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCliServe:
    def test_serve_loop_round_trip(self, service_files, capsys):
        arguments = build_parser().parse_args(
            ["serve", "--database", f"g={service_files / 'g.edges'}"]
        )
        stream = StringIO((service_files / "requests.jsonl").read_text(encoding="utf-8"))
        assert command_serve(arguments, in_stream=stream) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        by_id = {line["id"]: line for line in lines}
        assert set(by_id) == {"r1", "r2", "r3"}
        assert all(line["ok"] for line in by_id.values())
        assert by_id["r2"]["tuples"] == [["n1", "n2"], ["n2", "n3"]]

    def test_malformed_request_envelope_keeps_id_for_correlation(self, service_files, capsys):
        bad = service_files / "conflict.jsonl"
        bad.write_text(
            '{"id": "c1", "database": "g", "edges": [["x", "a", "y"]], '
            '"output": ["x"], "boolean": true}\n'
        )
        code = main(["batch", str(bad), "--database", f"g={service_files / 'g.edges'}"])
        assert code == 1
        line = json.loads(capsys.readouterr().out.strip())
        assert line["ok"] is False
        assert line["id"] == "c1" and line["database"] == "g"
        assert "boolean" in line["error"]

    def test_serve_emits_error_envelopes_for_garbage(self, service_files, capsys):
        arguments = build_parser().parse_args(
            ["serve", "--database", f"g={service_files / 'g.edges'}"]
        )
        stream = StringIO("this is not json\n")
        assert command_serve(arguments, in_stream=stream) == 0
        line = json.loads(capsys.readouterr().out.strip())
        assert line["ok"] is False and "invalid JSON" in line["error"]


class TestCliEvaluateStats:
    def test_evaluate_stats_flag(self, service_files, capsys):
        code = main(
            [
                "evaluate",
                str(service_files / "g.edges"),
                "--edge", "x a+ y",
                "--output", "x", "y",
                "--stats",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "[cache stats]" in output
        assert "nfa_tables" in output and "totals" in output
