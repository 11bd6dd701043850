"""Trace capture and replay: record a live request stream, re-run it later.

``repro serve --record trace.jsonl`` captures every served request as one
JSON line — the request payload, its arrival offset (seconds since the
serve loop started), the shard that answered it, and the answer itself::

    {"offset_s": 0.0421, "shard": "social",
     "request": {"database": "social", "edges": [["x", "(a|b)*c", "y"]], ...},
     "answer": {"ok": true, "boolean": null, "tuples": [["n1", "n3"]]}}

``repro replay trace.jsonl`` re-runs a captured stream against a live
:class:`~repro.service.service.QueryService` (thread or process tier),
honouring the original inter-arrival timing (``--speedup F`` divides every
offset by ``F``), verifying each replayed answer against the recorded one,
and reporting the latency distribution — p50/p95/p99 of the latency from
each record's scheduled arrival, queue wait, and throughput — through
:class:`LatencyReport`.

Records are written at *completion* time (answers arrive out of order), so
the file order is completion order; :func:`load_trace` re-sorts by arrival
offset.  A truncated or corrupt line raises :class:`TraceFormatError` with
its line number instead of hanging or silently skipping.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple

from repro.core.errors import ReproError
from repro.service.requests import QueryRequest, ServiceResult
from repro.service.service import QueryService


class TraceFormatError(ReproError):
    """Raised when a trace line cannot be parsed or validated."""


def answer_payload(result: ServiceResult) -> Dict[str, Any]:
    """The canonical, JSON-native comparable answer of one envelope.

    Telemetry (timing, cache counters, dedup flags) is deliberately
    excluded — two runs of the same request must compare equal.  Tuples
    are emitted as sorted lists of lists, matching what a JSON round trip
    of the envelope itself would produce.
    """
    if not result.ok:
        return {"ok": False, "error": result.error}
    payload: Dict[str, Any] = {"ok": True, "boolean": result.boolean}
    if result.tuples is not None:
        payload["tuples"] = [list(row) for row in result.tuples]
    return payload


@dataclass(frozen=True)
class TraceRecord:
    """One captured request: arrival offset, payload, shard and answer."""

    offset_s: float
    request: QueryRequest
    shard: Optional[str] = None
    answer: Optional[Dict[str, Any]] = None

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "offset_s": round(self.offset_s, 6),
            "request": self.request.to_payload(),
        }
        if self.shard is not None:
            payload["shard"] = self.shard
        if self.answer is not None:
            payload["answer"] = self.answer
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: object) -> "TraceRecord":
        if not isinstance(payload, dict):
            raise TraceFormatError(
                f"trace record must be a JSON object, got {type(payload).__name__}"
            )
        offset = payload.get("offset_s")
        if not isinstance(offset, (int, float)) or isinstance(offset, bool):
            raise TraceFormatError(
                f"trace record needs a numeric 'offset_s', got {offset!r}"
            )
        if not math.isfinite(float(offset)) or float(offset) < 0:
            raise TraceFormatError(
                f"'offset_s' must be finite and non-negative, got {offset!r}"
            )
        request_payload = payload.get("request")
        if not isinstance(request_payload, dict):
            raise TraceFormatError("trace record needs a 'request' object")
        try:
            request = QueryRequest.from_payload(request_payload)
        except ReproError as error:
            raise TraceFormatError(f"invalid recorded request: {error}") from error
        shard = payload.get("shard")
        if shard is not None and not isinstance(shard, str):
            raise TraceFormatError(f"'shard' must be a string, got {shard!r}")
        answer = payload.get("answer")
        if answer is not None and not isinstance(answer, dict):
            raise TraceFormatError(f"'answer' must be an object, got {answer!r}")
        return cls(
            offset_s=float(offset), request=request, shard=shard, answer=answer
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceRecord":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"invalid trace JSON: {error}") from error
        return cls.from_payload(payload)


class TraceWriter:
    """Streams trace records to a text handle, one JSON line each.

    Lines are flushed as they are written, so an interrupted ``serve``
    leaves a replayable prefix (at worst one final truncated line, which
    :func:`load_trace` rejects loudly rather than mis-replaying).
    """

    def __init__(self, handle: IO[str]) -> None:
        self._handle = handle
        self.recorded = 0

    def record(
        self,
        offset_s: float,
        request: QueryRequest,
        result: Optional[ServiceResult] = None,
    ) -> None:
        record = TraceRecord(
            offset_s=offset_s,
            request=request,
            shard=None if result is None else result.database,
            answer=None if result is None else answer_payload(result),
        )
        self._handle.write(record.to_json() + "\n")
        self._handle.flush()
        self.recorded += 1


def load_trace(path: str) -> List[TraceRecord]:
    """Parse a trace file into records sorted by arrival offset.

    Corrupt input — invalid JSON (including a line truncated by a killed
    recorder), a non-object line, a bad offset or an unparsable request —
    raises :class:`TraceFormatError` naming the offending line, so a bad
    trace fails before any request is submitted rather than hanging the
    replay loop midway.
    """
    records: List[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                records.append(TraceRecord.from_json(stripped))
            except TraceFormatError as error:
                raise TraceFormatError(f"{path}:{number}: {error}") from None
    if not records:
        raise TraceFormatError(f"trace file {path} contains no records")
    records.sort(key=lambda record: record.offset_s)
    return records


def scheduled_offsets(
    records: Sequence[TraceRecord], speedup: float
) -> List[float]:
    """The replay submission times: original offsets compressed by ``speedup``.

    Monotone in both arguments: offsets never reorder under compression,
    and a larger ``speedup`` never schedules any request later.
    """
    if not speedup > 0:
        raise TraceFormatError(f"speedup must be positive, got {speedup!r}")
    return [record.offset_s / speedup for record in records]


@dataclass
class ReplayedRequest:
    """One replayed record with its fresh envelope and verification verdict.

    ``matched`` is ``None`` when the record carried no recorded answer to
    verify against.  ``latency_s`` runs from the record's *scheduled*
    arrival to its completion, so a pacing loop that falls behind its
    schedule shows in the latency, not only in the envelope's ``total_s``
    (which starts at the late submission).
    """

    record: TraceRecord
    result: ServiceResult
    matched: Optional[bool]
    latency_s: float


async def replay(
    service: QueryService,
    records: Sequence[TraceRecord],
    *,
    speedup: float = 1.0,
) -> Tuple[List[ReplayedRequest], float]:
    """Re-run ``records`` against a running service with original timing.

    Each request is submitted when the wall clock reaches its compressed
    arrival offset (backpressure, not load-shedding, on queue pressure —
    a replay must preserve the request set).  Completions are stamped on
    the loop clock, and each request's latency is measured from its
    scheduled arrival.  Returns the replayed requests in offset order plus
    the replay wall-clock in seconds.
    """
    offsets = scheduled_offsets(records, speedup)
    loop = asyncio.get_running_loop()
    started = loop.time()

    async def submit(record: TraceRecord) -> Tuple[ServiceResult, float]:
        result = await service.submit(record.request, overflow="wait")
        return result, loop.time()

    tasks: List["asyncio.Task[Tuple[ServiceResult, float]]"] = []
    for record, offset in zip(records, offsets):
        delay = offset - (loop.time() - started)
        if delay > 0:
            # lint-allow: RA101 (asyncio.sleep yields the loop rather than blocking it; honouring the recorded arrival pacing is the point of replay)
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(submit(record)))
    completions = await asyncio.gather(*tasks)
    wall_s = loop.time() - started
    replayed = []
    for record, offset, (result, finished) in zip(records, offsets, completions):
        matched: Optional[bool] = None
        if record.answer is not None:
            matched = answer_payload(result) == record.answer
        replayed.append(
            ReplayedRequest(
                record=record,
                result=result,
                matched=matched,
                latency_s=finished - (started + offset),
            )
        )
    return replayed, wall_s


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample set."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class LatencyReport:
    """The latency-distribution summary of one replay (or served stream).

    All latencies in seconds: ``latency_*`` summarise per-request latency
    from the scheduled arrival to the completion (so the pacing loop's own
    lateness counts), ``queue_wait_*`` the admission-to-evaluation wait.
    ``matched``/``mismatched`` count verification against recorded answers
    (both 0 when the trace carried none).
    """

    requests: int
    ok: int
    failed: int
    deduplicated: int
    matched: int
    mismatched: int
    wall_s: float
    throughput_rps: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_max_s: float
    queue_wait_p50_s: float
    queue_wait_p95_s: float
    queue_wait_p99_s: float

    @classmethod
    def from_replay(
        cls, replayed: Sequence[ReplayedRequest], wall_s: float
    ) -> "LatencyReport":
        if not replayed:
            raise ValueError("cannot summarise an empty replay")
        latencies = [item.latency_s for item in replayed]
        waits = [item.result.queue_wait_s for item in replayed]
        return cls(
            requests=len(replayed),
            ok=sum(1 for item in replayed if item.result.ok),
            failed=sum(1 for item in replayed if not item.result.ok),
            deduplicated=sum(1 for item in replayed if item.result.deduplicated),
            matched=sum(1 for item in replayed if item.matched is True),
            mismatched=sum(1 for item in replayed if item.matched is False),
            wall_s=wall_s,
            throughput_rps=len(replayed) / wall_s if wall_s > 0 else float("inf"),
            latency_p50_s=percentile(latencies, 50),
            latency_p95_s=percentile(latencies, 95),
            latency_p99_s=percentile(latencies, 99),
            latency_max_s=max(latencies),
            queue_wait_p50_s=percentile(waits, 50),
            queue_wait_p95_s=percentile(waits, 95),
            queue_wait_p99_s=percentile(waits, 99),
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "failed": self.failed,
            "deduplicated": self.deduplicated,
            "matched": self.matched,
            "mismatched": self.mismatched,
            "wall_s": round(self.wall_s, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_s": {
                "p50": round(self.latency_p50_s, 6),
                "p95": round(self.latency_p95_s, 6),
                "p99": round(self.latency_p99_s, 6),
                "max": round(self.latency_max_s, 6),
            },
            "queue_wait_s": {
                "p50": round(self.queue_wait_p50_s, 6),
                "p95": round(self.queue_wait_p95_s, 6),
                "p99": round(self.queue_wait_p99_s, 6),
            },
        }

    def render(self, title: str = "replay") -> str:
        """A small human-readable report (what ``repro replay`` prints)."""

        def ms(value: float) -> str:
            return f"{value * 1000:.2f} ms"

        lines = [f"[{title}]"]
        lines.append(
            f"requests   : {self.requests} ({self.ok} ok, {self.failed} failed, "
            f"{self.deduplicated} deduplicated)"
        )
        if self.matched or self.mismatched:
            lines.append(
                f"answers    : {self.matched}/{self.matched + self.mismatched} matched"
            )
        lines.append(
            f"wall       : {self.wall_s:.3f} s ({self.throughput_rps:.0f} req/s)"
        )
        lines.append(
            "latency    : "
            f"p50 {ms(self.latency_p50_s)}  p95 {ms(self.latency_p95_s)}  "
            f"p99 {ms(self.latency_p99_s)}  max {ms(self.latency_max_s)}"
        )
        lines.append(
            "queue wait : "
            f"p50 {ms(self.queue_wait_p50_s)}  p95 {ms(self.queue_wait_p95_s)}  "
            f"p99 {ms(self.queue_wait_p99_s)}"
        )
        return "\n".join(lines)
