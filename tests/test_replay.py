"""Tests for trace capture and replay (PR 10).

The record→replay loop must be lossless: a stream served with
``serve --record`` and replayed through a live service — on either
evaluation tier — reproduces byte-identical answers.  ``--speedup``
compresses the recorded timing monotonically, and truncated or corrupt
traces fail with a clean, line-attributed error rather than a stack trace.
"""

import asyncio
import dataclasses
import json
import time
from io import StringIO

import pytest

from repro.cli import build_parser, command_replay, command_serve, main
from repro.graphdb.generators import scale_free_graph
from repro.graphdb.io import save_edge_list
from repro.graphdb.storage import save_snapshot
from repro.service import (
    LatencyReport,
    QueryService,
    TraceFormatError,
    TraceRecord,
    load_trace,
    replay,
)
from repro.service.trace import percentile, scheduled_offsets


@pytest.fixture()
def recorded(tmp_path, capsys):
    """A graph file, a snapshot of it, and a trace recorded by ``serve``."""
    db = scale_free_graph(14, seed=5)
    graph_path = tmp_path / "g.edges"
    save_edge_list(db, graph_path)
    snapshot_path = tmp_path / "g.rgsnap"
    save_snapshot(db, snapshot_path)
    requests = [
        {"id": "sync", "database": "g",
         "edges": [["x", "w{a|b}", "y"], ["y", "&w", "z"]], "boolean": True},
        {"id": "pairs", "database": "g",
         "edges": [["x", "(a|b)*c", "y"]], "output": ["x", "y"]},
        {"id": "bounded", "database": "g",
         "edges": [["x", "w{(a|b)+}&w", "y"]], "boolean": True, "image_bound": 2},
        {"id": "pairs-again", "database": "g",
         "edges": [["x", "(a|b)*c", "y"]], "output": ["x", "y"]},
    ]
    trace_path = tmp_path / "trace.jsonl"
    arguments = build_parser().parse_args(
        ["serve", "--database", f"g={graph_path}", "--record", str(trace_path)]
    )
    stream = StringIO("\n".join(json.dumps(line) for line in requests) + "\n")
    assert command_serve(arguments, in_stream=stream) == 0
    capsys.readouterr()  # drain the serve responses
    return tmp_path


class TestRecording:
    def test_trace_carries_payload_offset_shard_and_answer(self, recorded):
        records = load_trace(str(recorded / "trace.jsonl"))
        assert len(records) == 4
        assert {record.request.request_id for record in records} == {
            "sync", "pairs", "bounded", "pairs-again",
        }
        for record in records:
            assert record.offset_s >= 0
            assert record.shard == "g"
            assert record.answer is not None and record.answer["ok"] is True
        by_id = {record.request.request_id: record for record in records}
        assert by_id["pairs"].answer["tuples"]  # output query recorded tuples
        assert "tuples" not in by_id["sync"].answer

    def test_unparsable_lines_are_not_recorded(self, tmp_path, capsys):
        db = scale_free_graph(8, seed=1)
        save_edge_list(db, tmp_path / "g.edges")
        trace_path = tmp_path / "trace.jsonl"
        arguments = build_parser().parse_args(
            ["serve", "--database", f"g={tmp_path / 'g.edges'}",
             "--record", str(trace_path)]
        )
        stream = StringIO(
            "garbage line\n"
            + json.dumps({"id": "ok", "database": "g",
                          "edges": [["x", "a", "y"]], "boolean": True}) + "\n"
        )
        assert command_serve(arguments, in_stream=stream) == 0
        capsys.readouterr()
        records = load_trace(str(trace_path))
        assert [record.request.request_id for record in records] == ["ok"]

    def test_record_round_trips_through_json(self, recorded):
        for record in load_trace(str(recorded / "trace.jsonl")):
            assert TraceRecord.from_json(record.to_json()) == record


class TestReplayLossless:
    def test_thread_tier_reproduces_recorded_answers(self, recorded, capsys):
        code = main(
            ["replay", str(recorded / "trace.jsonl"),
             "--database", f"g={recorded / 'g.edges'}", "--speedup", "100"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "4/4 matched" in captured.out
        assert "p50" in captured.out and "p95" in captured.out and "p99" in captured.out

    def test_process_tier_reproduces_recorded_answers(self, recorded, capsys):
        code = main(
            ["replay", str(recorded / "trace.jsonl"),
             "--database", f"g={recorded / 'g.rgsnap'}",
             "--workers", "1", "--speedup", "100"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "4/4 matched" in captured.out
        assert "process tier" in captured.out

    def test_mismatched_answers_fail_the_replay(self, recorded, tmp_path, capsys):
        records = load_trace(str(recorded / "trace.jsonl"))
        tampered = []
        for record in records:
            if record.request.request_id == "sync":
                answer = dict(record.answer)
                answer["boolean"] = not answer["boolean"]
                record = dataclasses.replace(record, answer=answer)
            tampered.append(record)
        bad_trace = tmp_path / "tampered.jsonl"
        bad_trace.write_text(
            "\n".join(record.to_json() for record in tampered) + "\n",
            encoding="utf-8",
        )
        code = main(
            ["replay", str(bad_trace),
             "--database", f"g={recorded / 'g.edges'}", "--speedup", "100"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "answer mismatch" in captured.err
        assert "3/4 matched" in captured.out

    def test_no_verify_skips_the_comparison(self, recorded, tmp_path, capsys):
        records = load_trace(str(recorded / "trace.jsonl"))
        answer = dict(records[0].answer)
        answer["boolean"] = not answer["boolean"]
        records[0] = dataclasses.replace(records[0], answer=answer)
        bad_trace = tmp_path / "tampered.jsonl"
        bad_trace.write_text(
            "\n".join(record.to_json() for record in records) + "\n",
            encoding="utf-8",
        )
        code = main(
            ["replay", str(bad_trace),
             "--database", f"g={recorded / 'g.edges'}",
             "--speedup", "100", "--no-verify"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "answer mismatch" not in captured.err

    def test_json_report_artifact(self, recorded, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["replay", str(recorded / "trace.jsonl"),
             "--database", f"g={recorded / 'g.edges'}",
             "--speedup", "100", "--json", str(report_path)]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["requests"] == 4 and payload["mismatched"] == 0
        assert payload["speedup"] == 100.0 and payload["pool"] == "thread"
        for quantile in ("p50", "p95", "p99"):
            assert quantile in payload["latency_s"]
            assert quantile in payload["queue_wait_s"]


class TestSpeedup:
    def make_records(self, offsets):
        from repro.service import QueryRequest, QuerySpec

        spec = QuerySpec(edges=(("x", "a", "y"),))
        return [
            TraceRecord(
                offset_s=offset,
                request=QueryRequest(database="g", spec=spec, request_id=f"r{i}"),
            )
            for i, offset in enumerate(offsets)
        ]

    def test_speedup_compresses_offsets_monotonically(self):
        records = self.make_records([0.0, 0.4, 1.0, 2.5])
        for faster, slower in ((10.0, 2.0), (100.0, 10.0)):
            fast = scheduled_offsets(records, faster)
            slow = scheduled_offsets(records, slower)
            # Order preserved, every offset strictly tighter at the higher
            # compression (except the zero origin).
            assert fast == sorted(fast)
            assert all(f <= s for f, s in zip(fast, slow))
            assert all(f < s for f, s in zip(fast[1:], slow[1:]))

    def test_speedup_one_is_the_identity(self):
        records = self.make_records([0.0, 0.25, 0.75])
        assert scheduled_offsets(records, 1.0) == [0.0, 0.25, 0.75]

    def test_non_positive_speedup_rejected(self):
        records = self.make_records([0.0])
        with pytest.raises(TraceFormatError, match="speedup"):
            scheduled_offsets(records, 0.0)
        with pytest.raises(TraceFormatError, match="speedup"):
            scheduled_offsets(records, -2.0)

    def test_replay_honours_compressed_pacing(self, tmp_path):
        """A 2-second recorded span replays in well under a second at 100x."""
        db = scale_free_graph(8, seed=2)
        registry_records = self.make_records([0.0, 1.0, 2.0])
        from repro.service import DatabaseRegistry

        registry = DatabaseRegistry()
        registry.register("g", db)
        service = QueryService(registry, concurrency=2, max_pending=8)

        async def run():
            async with service:
                return await replay(service, registry_records, speedup=100.0)

        start = time.perf_counter()
        replayed, wall_s = asyncio.run(run())
        elapsed = time.perf_counter() - start
        assert all(item.result.ok for item in replayed)
        # 2 s of recorded pacing compressed 100x: the replay must finish far
        # sooner than the original span (generous bound for noisy runners).
        assert elapsed < 1.5
        assert wall_s <= elapsed


    def test_pacing_lateness_counts_in_the_latency(self):
        """A loop that wakes late for a record charges the wait to it.

        The loop is blocked for 0.3 s right after the first submission, so
        the second record (scheduled at 0.05 s) goes out about 0.25 s late.
        Its envelope's ``total_s`` starts at that late submission; the
        replay latency starts at the schedule and must include the wait.
        """
        from repro.service import DatabaseRegistry

        registry = DatabaseRegistry()
        registry.register("g", scale_free_graph(8, seed=2))
        service = QueryService(registry, concurrency=2, max_pending=8)
        records = self.make_records([0.0, 0.05])
        blocked_s = 0.3

        async def run():
            async with service:
                asyncio.get_running_loop().call_soon(time.sleep, blocked_s)
                return await replay(service, records)

        replayed, wall_s = asyncio.run(run())
        late = replayed[1]
        assert late.result.ok
        assert late.latency_s >= blocked_s - 0.05
        assert late.latency_s > late.result.total_s
        report = LatencyReport.from_replay(replayed, wall_s)
        assert report.latency_max_s >= blocked_s - 0.05


class TestCorruptTraces:
    def test_corrupt_json_line_is_attributed(self, recorded, tmp_path):
        lines = (recorded / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        lines.insert(1, "{truncated")
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceFormatError, match=r"corrupt\.jsonl:2"):
            load_trace(str(bad))

    def test_truncated_record_is_attributed(self, tmp_path):
        bad = tmp_path / "half.jsonl"
        bad.write_text('{"offset_s": 0.1}\n', encoding="utf-8")
        with pytest.raises(TraceFormatError, match="request"):
            load_trace(str(bad))

    def test_negative_offset_rejected(self, tmp_path):
        bad = tmp_path / "neg.jsonl"
        bad.write_text(
            json.dumps({"offset_s": -1.0, "request": {
                "database": "g", "edges": [["x", "a", "y"]], "boolean": True}})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(TraceFormatError, match="offset"):
            load_trace(str(bad))

    def test_empty_trace_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(TraceFormatError, match="no records"):
            load_trace(str(empty))

    def test_cli_reports_corrupt_traces_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        code = main(["replay", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "corrupt.jsonl:1" in captured.err

    def test_cli_rejects_non_positive_speedup(self, recorded, capsys):
        code = main(
            ["replay", str(recorded / "trace.jsonl"),
             "--database", f"g={recorded / 'g.edges'}", "--speedup", "0"]
        )
        assert code == 1
        assert "speedup" in capsys.readouterr().err

    def test_records_resorted_by_offset(self, recorded, tmp_path):
        records = load_trace(str(recorded / "trace.jsonl"))
        shuffled = list(reversed(records))
        out = tmp_path / "shuffled.jsonl"
        out.write_text(
            "\n".join(record.to_json() for record in shuffled) + "\n",
            encoding="utf-8",
        )
        reloaded = load_trace(str(out))
        offsets = [record.offset_s for record in reloaded]
        assert offsets == sorted(offsets)


class TestLatencyReport:
    def test_percentile_nearest_rank(self):
        samples = [0.01 * (i + 1) for i in range(100)]
        assert percentile(samples, 50) == pytest.approx(0.50)
        assert percentile(samples, 95) == pytest.approx(0.95)
        assert percentile(samples, 99) == pytest.approx(0.99)
        assert percentile([0.7], 99) == pytest.approx(0.7)

    def test_report_render_mentions_all_quantiles(self, recorded, capsys):
        records = load_trace(str(recorded / "trace.jsonl"))
        from repro.service import DatabaseRegistry
        from repro.graphdb.io import load_database

        registry = DatabaseRegistry()
        registry.register("g", load_database(recorded / "g.edges"))
        service = QueryService(registry, concurrency=2, max_pending=8)

        async def run():
            async with service:
                return await replay(service, records, speedup=100.0)

        replayed, wall_s = asyncio.run(run())
        report = LatencyReport.from_replay(replayed, wall_s)
        assert report.matched == len(records)
        text = report.render()
        for token in ("p50", "p95", "p99", "queue wait", "req/s"):
            assert token in text
