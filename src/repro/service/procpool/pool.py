"""The event-loop adapter: broker tickets in, claim-queue items out.

:class:`ProcessEvaluationPool` presents the same surface as the in-process
:class:`~repro.service.workers.EvaluationWorkerPool` (``start()``, ``await
join()``, ``stats()``), so :class:`~repro.service.service.QueryService`
swaps tiers behind its ``pool="process"`` switch without the broker or the
envelope layer noticing.  Internally it is a translation layer:

* a drain task pulls broker batches on the event loop and converts each
  live ticket into a :class:`~repro.service.procpool.messages.WorkItem` —
  the shard travels as its *snapshot path* and, in the item id, the
  database version the ticket was admitted against (each worker mmap-loads
  its own handle of that generation; the OS page cache shares the bytes),
  the query as its canonical fingerprint payload (round-trips through the
  parser), and the asyncio future stays here, keyed by item id;
* supervisor callbacks hop completions back onto the loop with
  ``call_soon_threadsafe``, where the ticket's future is resolved exactly
  like the in-process tier resolves it — same telemetry fields, same
  envelope shape.

Tickets whose shard is not file-backed (``source == "<memory>"``) fail
fast with :class:`ProcessPoolError`: a worker process cannot reach an
object that lives in the parent's heap, and shipping it would violate the
RA107 boundary contract.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Dict, List, Optional, Set, Tuple, cast

from repro.core.errors import ReproError
from repro.engine.results import EvaluationResult, Node
from repro.service.broker import QueryBroker, Ticket
from repro.service.procpool.messages import (
    CacheReport,
    ItemId,
    WorkItem,
    WorkResult,
)
from repro.service.procpool.supervisor import (
    ProcessPoolBrokenError,
    ProcessPoolSupervisor,
)
from repro.service.registry import DatabaseEvictedError, DatabaseRegistry
from repro.service.requests import QuerySpec


class ProcessPoolError(ReproError):
    """Raised into requests the process tier cannot run (or cannot finish)."""


class ProcessEvaluationPool:
    """``workers`` processes draining the broker through a claim queue.

    Loop-confined like the broker: every mutable attribute is touched only
    from the event-loop thread (supervisor callbacks cross over via
    ``call_soon_threadsafe``), so no lock discipline is needed here.
    """

    def __init__(
        self,
        broker: QueryBroker,
        registry: DatabaseRegistry,
        *,
        workers: int = 2,
        lease_s: float = 30.0,
        restart_budget: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._broker = broker
        self._registry = registry
        self._workers = workers
        self._supervisor = ProcessPoolSupervisor(
            workers=workers,
            on_complete=self._on_complete,
            on_failed=self._on_failed,
            lease_s=lease_s,
            restart_budget=restart_budget,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_task: Optional["asyncio.Task[None]"] = None
        self._idle: Optional[asyncio.Event] = None
        self._inflight: Dict[ItemId, Ticket] = {}
        self._seq = 0
        #: Fault-injection hook: a positive value rides on every WorkItem as
        #: ``debug_sleep_s``, parking workers between claim and evaluation so
        #: crash tests get a deterministic claimed-but-uncompleted window.
        self._debug_item_sleep_s = 0.0
        # counters (mirroring EvaluationWorkerPool's, plus pool failures)
        self.evaluations = 0
        self.evicted = 0
        self.errors = 0
        self.pool_failures = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._drain_task is not None:
            raise RuntimeError("the process pool is already running")
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._supervisor.start()
        self._drain_task = asyncio.create_task(
            self._drain(), name="repro-procpool-drain"
        )

    async def join(self) -> None:
        """Drain the broker, wait for in-flight items, stop the workers."""
        if self._drain_task is not None:
            await self._drain_task
            self._drain_task = None
        if self._idle is not None:
            await self._idle.wait()
        # stop() joins the dispatcher thread and the worker processes —
        # blocking work, so it runs on a thread, not the event loop.
        await asyncio.to_thread(self._supervisor.stop)

    # -- the drain task ----------------------------------------------------------

    async def _drain(self) -> None:
        while True:
            batch = await self._broker.next_batch()
            if batch is None:
                return
            _shard, tickets = batch
            for ticket in tickets:
                self._submit(ticket)

    def _submit(self, ticket: Ticket) -> None:
        entry = ticket.entry
        if not self._registry.is_serviceable(entry):
            self.evicted += 1
            self._finish(
                ticket,
                exception=DatabaseEvictedError(
                    f"database {entry.name!r} (generation {entry.generation}) "
                    "was evicted before evaluation"
                ),
            )
            return
        if entry.source == "<memory>" or not os.path.exists(entry.source):
            self._finish(
                ticket,
                exception=ProcessPoolError(
                    f"shard {entry.name!r} is not file-backed "
                    f"(source {entry.source!r}): the process tier can only "
                    "serve snapshot/file-backed shards that worker processes "
                    "can load themselves"
                ),
            )
            return
        # The ticket key's fingerprint component *is* the query in wire
        # form — canonical edge expressions round-trip through the parser,
        # so the worker re-parses to exactly the query admitted here.
        spec = QuerySpec(*cast(Tuple[Any, ...], ticket.key[3])).to_payload()
        self._seq += 1
        item_id: ItemId = (
            entry.name,
            entry.generation,
            entry.version,
            repr(ticket.key[3]),
            self._seq,
        )
        item = WorkItem(
            item_id=item_id,
            shard=entry.name,
            path=entry.source,
            fmt=None,
            spec=spec,
            debug_sleep_s=self._debug_item_sleep_s,
        )
        self._inflight[item_id] = ticket
        assert self._idle is not None
        self._idle.clear()
        if not self._supervisor.offer(item):
            del self._inflight[item_id]
            if not self._inflight:
                self._idle.set()
            self.pool_failures += 1
            self._finish(
                ticket,
                exception=ProcessPoolBrokenError(
                    "the process pool cannot accept work (broken or stopping)"
                ),
            )

    # -- completion (supervisor callbacks hop onto the loop) -----------------------

    def _on_complete(self, result: WorkResult) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._finish_result, result)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def _on_failed(self, item_id: ItemId, reason: str) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._finish_failure, item_id, reason)
        except RuntimeError:
            pass

    def _finish_result(self, result: WorkResult) -> None:
        ticket = self._inflight.pop(result.item_id, None)
        if ticket is None:
            return  # e.g. failed as broken moments before the zombie answered
        if not self._inflight:
            assert self._idle is not None
            self._idle.set()
        ticket.evaluation_s = result.evaluation_s
        # perf_counter() is not comparable across processes; anchor the
        # evaluation window to its observed end on this clock instead.
        ticket.started_at = time.perf_counter() - result.evaluation_s
        ticket.cache_hits = result.cache_hits
        ticket.cache_misses = result.cache_misses
        if not result.ok:
            self._finish(
                ticket,
                exception=ReproError(result.error or "worker evaluation failed"),
            )
            return
        tuples: Set[Tuple[Node, ...]]
        if result.tuples is not None:
            tuples = set(result.tuples)
        elif result.boolean:
            tuples = {()}
        else:
            tuples = set()
        self._finish(
            ticket,
            result=EvaluationResult(tuples=tuples, exhaustive=result.exhaustive),
        )

    def _finish_failure(self, item_id: ItemId, reason: str) -> None:
        ticket = self._inflight.pop(item_id, None)
        if ticket is None:
            return
        if not self._inflight:
            assert self._idle is not None
            self._idle.set()
        self.pool_failures += 1
        self._finish(ticket, exception=ProcessPoolBrokenError(reason))

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
            if not isinstance(exception, DatabaseEvictedError):
                self.errors += 1
            ticket.future.set_exception(exception)
        else:
            self.evaluations += 1
            ticket.future.set_result(result)

    # -- inspection --------------------------------------------------------------

    def worker_pids(self) -> List[int]:
        """The live worker process ids (fault-injection tests kill these)."""
        return self._supervisor.worker_pids()

    def worker_cache_stats(self) -> List[CacheReport]:
        """Latest per-worker ``cache_stats()`` reports (one dict per worker)."""
        return self._supervisor.worker_cache_stats()

    def stats(self) -> Dict[str, int]:
        report: Dict[str, int] = {
            "concurrency": self._workers,
            "evaluations": self.evaluations,
            "evicted": self.evicted,
            "errors": self.errors,
            "pool_failures": self.pool_failures,
        }
        report.update(self._supervisor.stats())
        return report
