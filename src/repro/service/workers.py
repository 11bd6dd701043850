"""The evaluation worker pool: database-affine batch execution.

Workers pull per-shard batches from the :class:`~repro.service.broker.QueryBroker`
and run them through :func:`repro.engine.engine.evaluate`.  Two properties
keep the kernel's caches both *hot* and *safe*:

* **database affinity** — a batch contains tickets of exactly one shard, so
  a worker executes a run of queries against one warm
  :class:`~repro.graphdb.cache.ReachabilityIndex` before touching another
  shard (no cross-shard cache thrash inside a batch);
* **per-shard serialisation** — the index's caches are not thread-safe, so
  every batch runs under its shard's :class:`asyncio.Lock`, held across the
  :func:`asyncio.to_thread` dispatch.  Two workers can evaluate *different*
  shards concurrently, but one shard is never raced.

CPU-bound kernel calls are dispatched through ``asyncio.to_thread`` (which
copies the caller's :mod:`contextvars` context, so the reference-arm switch
``csr_kernel_disabled`` propagates into the worker thread); the event loop
stays responsive for admission and telemetry while a batch crunches.
``use_threads=False`` runs batches inline on the loop — useful for
deterministic tests and micro-benchmarks.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from repro.engine.engine import evaluate
from repro.engine.results import EvaluationResult
from repro.graphdb.cache import reachability_index
from repro.service.broker import QueryBroker, Ticket
from repro.service.registry import (
    DatabaseEvictedError,
    DatabaseRegistry,
    RegisteredDatabase,
)


class EvaluationWorkerPool:
    """``concurrency`` asyncio workers draining the broker, shard-affine."""

    def __init__(
        self,
        broker: QueryBroker,
        registry: DatabaseRegistry,
        *,
        concurrency: int = 2,
        use_threads: bool = True,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        self._broker = broker
        self._registry = registry
        self._concurrency = concurrency
        self._use_threads = use_threads
        self._locks: Dict[str, asyncio.Lock] = {}
        self._tasks: List[asyncio.Task] = []
        # counters (batch counts live on the broker, which owns the batching)
        self.evaluations = 0
        self.evicted = 0
        self.errors = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._tasks:
            raise RuntimeError("the worker pool is already running")
        self._tasks = [
            asyncio.create_task(self._worker(index), name=f"repro-service-worker-{index}")
            for index in range(self._concurrency)
        ]

    async def join(self) -> None:
        """Wait for the workers to exit (after ``broker.close()``)."""
        if self._tasks:
            await asyncio.gather(*self._tasks)
            self._tasks = []

    # -- the worker loop ---------------------------------------------------------

    async def _worker(self, index: int) -> None:
        while True:
            item = await self._broker.next_batch()
            if item is None:
                return
            shard, tickets = item
            await self._run_batch(shard, tickets)

    def _shard_lock(self, shard: str) -> asyncio.Lock:
        lock = self._locks.get(shard)
        if lock is None:
            lock = self._locks[shard] = asyncio.Lock()
        return lock

    async def _run_batch(self, shard: str, tickets: List[Ticket]) -> None:
        async with self._shard_lock(shard):
            # A batch is keyed by shard *name*, so after a re-registration or
            # a generation swap it can mix tickets of several generations:
            # check liveness per ticket, not per batch, or a request admitted
            # against the current registration would be spuriously failed
            # because it was batched behind an older-generation ticket.
            live: List[Ticket] = []
            for ticket in tickets:
                if self._registry.is_serviceable(ticket.entry):
                    live.append(ticket)
                    continue
                self._finish(
                    ticket,
                    exception=DatabaseEvictedError(
                        f"database {ticket.entry.name!r} (generation "
                        f"{ticket.entry.generation}) was evicted before evaluation"
                    ),
                )
                self.evicted += 1
            if not live:
                return
            # Serviceable tickets can span two generations (the retired one
            # plus the current one, across a swap): evaluate each generation's
            # run against the entry it was admitted to, so in-flight work
            # finishes on the graph it saw at admission time.
            groups: List[List[Ticket]] = []
            for ticket in live:
                if groups and groups[-1][0].entry.generation == ticket.entry.generation:
                    groups[-1].append(ticket)
                else:
                    groups.append([ticket])
            for group in groups:
                entry = group[0].entry
                if self._use_threads:
                    outcomes = await asyncio.to_thread(self._evaluate_batch, entry, group)
                else:
                    outcomes = self._evaluate_batch(entry, group)
                for ticket, (result, exception) in zip(group, outcomes):
                    self._finish(ticket, result=result, exception=exception)

    def _evaluate_batch(
        self, entry: RegisteredDatabase, tickets: List[Ticket]
    ) -> List[Tuple[Optional[EvaluationResult], Optional[BaseException]]]:
        """Evaluate one shard batch (possibly on a worker thread).

        The per-shard lock is held by the caller for the whole call, so this
        is the only code touching ``entry.db``'s caches at this moment.
        Telemetry (evaluation time, cache-hit deltas) is recorded directly
        on the tickets; futures are resolved back on the event loop.
        """
        index = reachability_index(entry.db)
        outcomes: List[Tuple[Optional[EvaluationResult], Optional[BaseException]]] = []
        for ticket in tickets:
            started = time.perf_counter()
            ticket.started_at = started
            hits_before, misses_before = index.hits, index.misses
            try:
                result = evaluate(
                    ticket.query,
                    entry.db,
                    generic_path_bound=ticket.generic_path_bound,
                    boolean_short_circuit=ticket.query.is_boolean,
                )
                exception: Optional[BaseException] = None
            except Exception as error:  # deliberate: deliver into the future
                result, exception = None, error
            ticket.evaluation_s = time.perf_counter() - started
            ticket.cache_hits = index.hits - hits_before
            ticket.cache_misses = index.misses - misses_before
            outcomes.append((result, exception))
        return outcomes

    def _finish(
        self,
        ticket: Ticket,
        result: Optional[EvaluationResult] = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        self._broker.ticket_done(ticket)
        if ticket.future.cancelled():
            return
        if exception is not None:
            # Evictions are counted separately (they are expected, safe
            # rejections, not evaluation failures).
            if not isinstance(exception, DatabaseEvictedError):
                self.errors += 1
            ticket.future.set_exception(exception)
        else:
            self.evaluations += 1
            ticket.future.set_result(result)

    def stats(self) -> Dict[str, int]:
        return {
            "concurrency": self._concurrency,
            "evaluations": self.evaluations,
            "evicted": self.evicted,
            "errors": self.errors,
        }
