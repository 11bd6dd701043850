"""Tests for the workload scenario registry (PR 10).

The registry's contract is threefold: the same frozen config always
realises to the byte-identical graphs and request stream (seed
determinism), configs survive a JSON round trip unchanged, and unknown
family/mix/pattern names fail loudly at construction time — a typo cannot
silently benchmark the wrong scenario.  Every registered scenario also
replays through a live service without a failed request.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.service import LatencyReport, QueryService, TraceRecord, replay
from repro.workloads import (
    ARRIVAL_PATTERNS,
    GRAPH_FAMILIES,
    QUERY_MIXES,
    REGISTRY,
    WorkloadConfig,
    WorkloadConfigError,
    get_scenario,
    realise,
    scaled,
    scenario_names,
)


def edge_triples(db):
    return sorted((str(s), str(l), str(t)) for s, l, t in db.edges)


@pytest.fixture()
def small_config():
    return WorkloadConfig(
        name="unit",
        graph_family="scale-free",
        scale=12,
        query_mix="hot-key-skew",
        arrival_pattern="poisson",
        num_requests=12,
        shards=2,
        seed=3,
    )


class TestSeedDeterminism:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_every_scenario_realises_byte_identically(self, name):
        config = get_scenario(name)
        first, second = realise(config), realise(config)
        assert [shard_name for shard_name, _ in first.databases] == [
            shard_name for shard_name, _ in second.databases
        ]
        for (_, db_a), (_, db_b) in zip(first.databases, second.databases):
            assert edge_triples(db_a) == edge_triples(db_b)
        # The stream is compared as canonical JSONL — byte-identical, not
        # merely structurally equal.
        assert first.request_lines() == second.request_lines()
        assert [t.offset_s for t in first.requests] == [
            t.offset_s for t in second.requests
        ]

    def test_different_seeds_change_the_realisation(self, small_config):
        other = dataclasses.replace(small_config, seed=small_config.seed + 1)
        assert edge_triples(realise(small_config).databases[0][1]) != edge_triples(
            realise(other).databases[0][1]
        )

    def test_offsets_are_sorted_and_non_negative(self):
        for name in scenario_names():
            workload = realise(get_scenario(name))
            offsets = [timed.offset_s for timed in workload.requests]
            assert offsets == sorted(offsets)
            assert all(offset >= 0 for offset in offsets)

    def test_requests_round_robin_all_shards(self, small_config):
        workload = realise(small_config)
        shard_names = {name for name, _ in workload.databases}
        assert len(shard_names) == small_config.shards
        assert {t.request.database for t in workload.requests} == shard_names

    def test_request_ids_are_unique_and_attributable(self, small_config):
        workload = realise(small_config)
        ids = [timed.request.request_id for timed in workload.requests]
        assert len(set(ids)) == len(ids)
        assert all(request_id.startswith("unit.") for request_id in ids)

    def test_hot_key_mix_duplicates_fingerprints(self):
        workload = realise(get_scenario("scale-free-hotkey"))
        unique = {
            (t.request.database, json.dumps(t.request.spec.to_payload(), sort_keys=True))
            for t in workload.requests
        }
        assert len(unique) < len(workload.requests) / 2

    def test_long_tail_mix_is_all_unique(self):
        workload = realise(get_scenario("scale-free-longtail"))
        unique = {
            json.dumps(t.request.spec.to_payload(), sort_keys=True)
            for t in workload.requests
        }
        assert len(unique) == len(workload.requests)

    def test_build_registry_registers_every_shard(self, small_config):
        workload = realise(small_config)
        registry = workload.build_registry()
        for name, _db in workload.databases:
            assert registry.get(name).db is not None


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_every_registered_config_round_trips(self, name):
        config = get_scenario(name)
        assert WorkloadConfig.from_json(config.to_json()) == config

    def test_round_tripped_config_realises_identically(self, small_config):
        clone = WorkloadConfig.from_json(small_config.to_json())
        assert realise(clone).request_lines() == realise(small_config).request_lines()

    def test_unknown_fields_rejected(self, small_config):
        payload = {**small_config.to_payload(), "surprise": 1}
        with pytest.raises(WorkloadConfigError, match="surprise"):
            WorkloadConfig.from_payload(payload)

    def test_missing_fields_rejected(self, small_config):
        payload = small_config.to_payload()
        del payload["graph_family"]
        with pytest.raises(WorkloadConfigError, match="graph_family"):
            WorkloadConfig.from_payload(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(WorkloadConfigError, match="JSON"):
            WorkloadConfig.from_json("{not json")

    def test_non_object_payload_rejected(self):
        with pytest.raises(WorkloadConfigError):
            WorkloadConfig.from_payload(["not", "a", "mapping"])


class TestLoudFailures:
    def test_unknown_graph_family(self):
        with pytest.raises(WorkloadConfigError, match="unknown graph family"):
            WorkloadConfig(
                name="bad",
                graph_family="small-world",
                scale=8,
                query_mix="hot-key-skew",
                arrival_pattern="uniform",
            )

    def test_unknown_query_mix(self):
        with pytest.raises(WorkloadConfigError, match="unknown query mix"):
            WorkloadConfig(
                name="bad",
                graph_family="random",
                scale=8,
                query_mix="all-hot",
                arrival_pattern="uniform",
            )

    def test_unknown_arrival_pattern(self):
        with pytest.raises(WorkloadConfigError, match="unknown arrival pattern"):
            WorkloadConfig(
                name="bad",
                graph_family="random",
                scale=8,
                query_mix="hot-key-skew",
                arrival_pattern="diurnal",
            )

    def test_error_lists_the_known_names(self):
        with pytest.raises(WorkloadConfigError, match="scale-free"):
            WorkloadConfig(
                name="bad",
                graph_family="nope",
                scale=8,
                query_mix="hot-key-skew",
                arrival_pattern="uniform",
            )

    @pytest.mark.parametrize("field,value", [
        ("scale", 0),
        ("num_requests", -1),
        ("shards", 0),
        ("rate", 0.0),
        ("name", ""),
    ])
    def test_invalid_parameters_rejected(self, small_config, field, value):
        with pytest.raises(WorkloadConfigError):
            dataclasses.replace(small_config, **{field: value})

    def test_get_scenario_unknown_name_is_loud(self):
        with pytest.raises(WorkloadConfigError, match="unknown workload scenario"):
            get_scenario("no-such-scenario")


class TestRegistryContents:
    def test_every_family_mix_and_pattern_is_exercised(self):
        families = {config.graph_family for config in REGISTRY.values()}
        mixes = {config.query_mix for config in REGISTRY.values()}
        patterns = {config.arrival_pattern for config in REGISTRY.values()}
        assert families == set(GRAPH_FAMILIES)
        assert mixes == set(QUERY_MIXES)
        assert patterns == set(ARRIVAL_PATTERNS)

    def test_scenario_names_sorted_and_consistent(self):
        assert scenario_names() == sorted(REGISTRY)
        for name in scenario_names():
            assert get_scenario(name).name == name

    def test_scaled_renames_and_overrides(self):
        base = get_scenario("service-dedup-smoke")
        shrunk = scaled(base, num_requests=8)
        assert shrunk.num_requests == 8
        assert shrunk.name == "service-dedup-smoke@num_requests8"
        assert shrunk.graph_family == base.graph_family

    def test_scaled_explicit_name_wins(self):
        base = get_scenario("service-dedup-smoke")
        named = scaled(base, num_requests=8, name="tiny")
        assert named.name == "tiny"

    def test_scaled_rejects_unknown_fields(self):
        with pytest.raises(WorkloadConfigError):
            scaled(get_scenario("service-dedup-smoke"), nodes=4)


class TestScenarioReplay:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_replays_without_failures(self, name):
        config = get_scenario(name)
        workload = realise(scaled(config, num_requests=min(16, config.num_requests)))
        records = [
            TraceRecord(offset_s=timed.offset_s, request=timed.request)
            for timed in workload.requests
        ]

        async def run():
            async with QueryService(
                workload.build_registry(), concurrency=2, max_pending=len(records)
            ) as service:
                return await replay(service, records, speedup=1000)

        replayed, wall_s = asyncio.run(run())
        report = LatencyReport.from_replay(replayed, wall_s)
        assert report.requests == len(records)
        assert report.failed == 0, [
            item.result.error for item in replayed if not item.result.ok
        ]
