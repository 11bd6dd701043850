"""The query service façade: admission → broker → worker pool → envelope.

:class:`QueryService` wires a :class:`~repro.service.registry.DatabaseRegistry`,
a :class:`~repro.service.broker.QueryBroker` and an
:class:`~repro.service.workers.EvaluationWorkerPool` into one object with a
small async API::

    registry = DatabaseRegistry()
    registry.load("social", "social.edges")
    async with QueryService(registry, concurrency=4) as service:
        result = await service.submit(request)          # one request
        results = await service.run_batch(requests)     # ordered batch

Admission-time validation happens *before* a queue slot is consumed: the
database reference is resolved, the xregexes parsed, and
:func:`repro.engine.engine.can_evaluate` consulted — an unservable request
(unknown shard, syntax error, unrestricted CXRPQ without an image bound or
oracle opt-in) comes back as an ``ok=false`` envelope immediately instead of
failing deep inside a worker.  All evaluation routes through the fragment
dispatcher :func:`repro.engine.engine.evaluate`, so the service layer is a
pure scheduler: for every request it returns exactly the
``EvaluationResult`` contents a direct call would have produced.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Iterable, List, Optional, Union

from repro.core.alphabet import Alphabet
from repro.core.errors import ReproError
from repro.engine.engine import can_evaluate
from repro.service.broker import AdmissionQueueFull, QueryBroker
from repro.service.procpool.pool import ProcessEvaluationPool
from repro.service.registry import DatabaseRegistry, RegisteredDatabase
from repro.service.requests import QueryRequest, RequestFormatError, ServiceResult
from repro.service.workers import EvaluationWorkerPool


class QueryService:
    """An asyncio query-serving layer over the shared evaluation kernel."""

    def __init__(
        self,
        registry: Optional[DatabaseRegistry] = None,
        *,
        concurrency: int = 2,
        max_pending: int = 256,
        batch_size: int = 8,
        dedup: bool = True,
        use_threads: bool = True,
        pool: str = "thread",
        lease_s: float = 30.0,
        restart_budget: Optional[int] = None,
        alphabet: Optional[Alphabet] = None,
    ):
        if pool not in ("thread", "process"):
            raise ValueError(f"pool must be 'thread' or 'process', got {pool!r}")
        self.registry = registry if registry is not None else DatabaseRegistry(alphabet)
        self._broker_options = dict(
            max_pending=max_pending, batch_size=batch_size, dedup=dedup
        )
        self._pool_kind = pool
        self._pool_options = dict(concurrency=concurrency, use_threads=use_threads)
        self._concurrency = concurrency
        self._lease_s = lease_s
        self._restart_budget = restart_budget
        self._broker: Optional[QueryBroker] = None
        self._pool: Optional[Union[EvaluationWorkerPool, ProcessEvaluationPool]] = None
        self._running = False
        # Serialises first-use path loads: without it two concurrent
        # requests for the same unregistered path would both load and the
        # second registration would orphan the first's generation.
        self._load_lock = asyncio.Lock()
        self.completed = 0
        self.failed = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Create the broker and spawn the worker tier (loop required).

        ``pool="thread"`` spawns the in-process asyncio tier;
        ``pool="process"`` spawns ``concurrency`` worker *processes* pulling
        from a claim queue (see :mod:`repro.service.procpool`) — same broker,
        same envelopes, GIL-free kernel throughput.
        """
        if self._running:
            raise RuntimeError("the query service is already running")
        self._broker = QueryBroker(**self._broker_options)
        if self._pool_kind == "process":
            self._pool = ProcessEvaluationPool(
                self._broker,
                self.registry,
                workers=self._concurrency,
                lease_s=self._lease_s,
                restart_budget=self._restart_budget,
            )
        else:
            self._pool = EvaluationWorkerPool(
                self._broker, self.registry, **self._pool_options
            )
        self._pool.start()
        self._running = True

    async def close(self) -> None:
        """Stop admission, drain queued work, and join the workers.

        The broker/worker counters stay readable through :meth:`stats`
        after the shutdown (the CLI prints them post-run).
        """
        if not self._running:
            return
        self._running = False
        self._broker.close()
        await self._pool.join()

    async def __aenter__(self) -> "QueryService":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- submission --------------------------------------------------------------

    async def submit(
        self, request: QueryRequest, *, overflow: str = "raise"
    ) -> ServiceResult:
        """Evaluate one request and return its response envelope.

        Admission failures that describe the *request* (unknown database,
        malformed query, unservable semantics, evaluation errors) come back
        as ``ok=false`` envelopes.  Queue *capacity* is different:
        ``overflow="raise"`` sheds load by raising
        :class:`~repro.service.broker.AdmissionQueueFull`, while
        ``overflow="wait"`` applies backpressure and blocks until a slot
        frees up.
        """
        if not self.running:
            raise ReproError("the query service is not running (use 'async with')")
        if overflow not in ("raise", "wait"):
            raise ValueError(f"overflow must be 'raise' or 'wait', got {overflow!r}")
        submitted = time.perf_counter()
        try:
            entry = self.registry.peek(request.database)
            if entry is None:
                # First use of a path reference: the disk load must not
                # block the event loop (admission and in-flight completions
                # keep draining while the file parses on a thread).
                async with self._load_lock:
                    entry = self.registry.peek(request.database)
                    if entry is None:
                        entry = await asyncio.to_thread(
                            self.registry.resolve, request.database
                        )
            query = request.spec.to_query()
            if not can_evaluate(
                query, generic_path_bound=request.spec.generic_path_bound
            ):
                raise RequestFormatError(
                    "the query is not servable: it is neither vstar-free nor "
                    "image-bounded; set 'image_bound' or 'generic_path_bound'"
                )
        except ReproError as error:
            self.failed += 1
            return ServiceResult.failure(request, error)
        while True:
            try:
                ticket, deduplicated = self._broker.submit(
                    request, entry, query, shedding=overflow == "raise"
                )
                break
            except AdmissionQueueFull:
                if overflow == "raise":
                    raise
                await self._broker.wait_for_room()
            except ReproError as error:
                # E.g. the broker closed while this submission waited for
                # room: keep the envelope contract (one result per request)
                # instead of aborting a whole gathered batch.
                self.failed += 1
                return ServiceResult.failure(request, error)
        try:
            evaluation = await asyncio.shield(ticket.future)
        except Exception as error:  # evaluation failures become envelopes
            self.failed += 1
            envelope = ServiceResult.failure(request, error)
            envelope.deduplicated = deduplicated
            envelope.total_s = time.perf_counter() - submitted
            return envelope
        self.completed += 1
        finished = time.perf_counter()
        started = ticket.started_at if ticket.started_at is not None else finished
        envelope = ServiceResult(
            database=entry.name,
            ok=True,
            request_id=request.request_id,
            boolean=evaluation.boolean,
            deduplicated=deduplicated,
            queue_wait_s=max(0.0, started - submitted),
            evaluation_s=ticket.evaluation_s,
            total_s=finished - submitted,
            cache_hits=ticket.cache_hits,
            cache_misses=ticket.cache_misses,
            database_version=entry.version,
            exhaustive=evaluation.exhaustive,
        )
        if request.spec.output_variables:
            envelope.tuples = sorted(evaluation.tuples, key=repr)
        return envelope

    async def submit_line(
        self, line: str, *, overflow: str = "raise"
    ) -> ServiceResult:
        """Parse one JSONL request line and submit it (parse errors → envelope).

        Even for malformed requests the envelope carries whatever ``id`` and
        ``database`` the line did contain, so clients can correlate the
        rejection with the request they sent.
        """
        try:
            request = QueryRequest.from_json(line)
        except ReproError as error:
            self.failed += 1
            database, request_id = "?", None
            try:
                payload = json.loads(line)
            except (TypeError, ValueError):
                payload = None
            if isinstance(payload, dict):
                database = str(payload.get("database", "?"))
                raw_id = payload.get("id")
                request_id = None if raw_id is None else str(raw_id)
            return ServiceResult(
                database=database, ok=False, error=str(error), request_id=request_id
            )
        return await self.submit(request, overflow=overflow)

    async def run_batch(
        self, requests: Iterable[QueryRequest]
    ) -> List[ServiceResult]:
        """Evaluate many requests concurrently; results in input order.

        Submissions apply backpressure (``overflow="wait"``), so a batch
        far larger than ``max_pending`` streams through the bounded queue
        instead of being rejected.
        """
        tasks = [
            asyncio.create_task(self.submit(request, overflow="wait"))
            for request in requests
        ]
        return list(await asyncio.gather(*tasks))

    async def run_batch_lines(self, lines: Iterable[str]) -> List[ServiceResult]:
        """`run_batch` over raw JSONL lines (parse errors become envelopes)."""
        tasks = [
            asyncio.create_task(self.submit_line(line, overflow="wait"))
            for line in lines
        ]
        return list(await asyncio.gather(*tasks))

    # -- live-graph refresh ------------------------------------------------------

    async def refresh(
        self, name: str, *, path: Optional[str] = None, fmt: Optional[str] = None
    ) -> "RegisteredDatabase":
        """Rebuild shard ``name`` in the background and swap it in atomically.

        The next generation is loaded on a thread
        (:meth:`DatabaseRegistry.begin_refresh` re-reads the shard's source —
        typically a ``.rgsnap`` file that ``repro ingest`` has appended
        deltas to), while the event loop keeps admitting and completing
        requests against the current generation.  The swap retires the old
        generation rather than evicting it, so batches already in flight
        finish against the graph they were admitted to.
        """
        pending = await asyncio.to_thread(
            self.registry.begin_refresh, name, path, fmt
        )
        return self.registry.swap(pending)

    # -- inspection --------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Broker, worker and per-shard registry/cache telemetry."""
        report: Dict[str, object] = {
            "pool": self._pool_kind,
            "broker": self._broker.stats() if self._broker else {},
            "workers": self._pool.stats() if self._pool else {},
            "registry": self.registry.stats(),
            "completed": self.completed,
            "failed": self.failed,
        }
        if isinstance(self._pool, ProcessEvaluationPool):
            # One cache_stats() report per worker process; the renderer
            # aggregates them (sum counters, max capacities).
            report["worker_caches"] = self._pool.worker_cache_stats()
        return report


def serve_batch(
    requests: Iterable[QueryRequest],
    registry: Optional[DatabaseRegistry] = None,
    **options,
) -> List[ServiceResult]:
    """Synchronous convenience: run a batch through a fresh service.

    Spins up an event loop, a :class:`QueryService` with ``options`` and
    tears both down again — a one-call path for scripts and tests.
    """

    async def run() -> List[ServiceResult]:
        async with QueryService(registry, **options) as service:
            return await service.run_batch(requests)

    return asyncio.run(run())
