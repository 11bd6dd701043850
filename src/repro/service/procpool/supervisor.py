"""The process-pool supervisor: spawn, monitor, requeue, respawn.

One dispatcher thread multiplexes every worker pipe (plus each process
sentinel and a self-notify pipe) through
:func:`multiprocessing.connection.wait` — deliberately *not* a shared
``multiprocessing.Queue``: a worker SIGKILL'd while holding a shared
queue's write lock would wedge every other worker, while per-worker pipes
fail independently (a dead worker's pipe just EOFs).  The dispatcher:

* answers :class:`ClaimRequest` messages by claiming from the
  :class:`~repro.service.procpool.claims.ClaimQueue` (shard-affinity
  aware) or parking the worker until work arrives;
* turns :class:`WorkResult` messages into completion events, delivering
  first completions to the ``on_complete`` callback and dropping
  duplicates;
* detects worker death by pipe EOF, process sentinel or exit code,
  requeues the dead worker's claimed-but-uncompleted items, and respawns
  a replacement while the restart budget lasts;
* expires lease deadlines, requeueing items claimed by stuck workers.

When the budget is exhausted *and* no workers remain, the pool is
**broken**: everything outstanding is drained and failed through
``on_failed`` (and marked completed, so a zombie's late result cannot
resurrect an already-failed item), and further offers are refused.

Callbacks run on the dispatcher thread; the
:class:`~repro.service.procpool.pool.ProcessEvaluationPool` adapter hops
them back onto the event loop.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Callable, Dict, List, Optional, Tuple

import threading

from repro.core.errors import ReproError
from repro.service.procpool.claims import ClaimQueue
from repro.service.procpool.messages import (
    CacheReport,
    ClaimRequest,
    ItemId,
    Message,
    WorkerShutdown,
    WorkerStats,
    WorkItem,
    WorkResult,
)
from repro.service.procpool.worker import worker_main


class ProcessPoolBrokenError(ReproError):
    """Raised into requests when the pool has no workers left to run them."""


@dataclass
class _WorkerHandle:
    """Parent-side view of one worker process (dispatcher-thread owned)."""

    worker_id: int
    process: "multiprocessing.process.BaseProcess"
    conn: Connection = field(repr=False)
    loaded: Tuple[str, ...] = ()
    draining: bool = False


class ProcessPoolSupervisor:
    """N worker processes over one claim queue, restart-budgeted.

    The supervisor is crossed by threads — offers and stats arrive from
    the event loop while the dispatcher thread owns the protocol — so the
    mutable maps and counters follow the RA102 lock discipline.  Worker
    handles themselves are only *mutated* by the dispatcher.
    """

    def __init__(
        self,
        *,
        workers: int,
        on_complete: Callable[[WorkResult], None],
        on_failed: Callable[[ItemId, str], None],
        lease_s: float = 30.0,
        restart_budget: Optional[int] = None,
        start_method: str = "spawn",
        poll_interval_s: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._workers = workers
        self._on_complete = on_complete
        self._on_failed = on_failed
        self._restart_budget = (
            2 * workers if restart_budget is None else restart_budget
        )
        if self._restart_budget < 0:
            raise ValueError("restart_budget must be non-negative")
        self._poll_interval_s = poll_interval_s
        self._ctx = multiprocessing.get_context(start_method)
        self.claims = ClaimQueue(lease_s=lease_s)
        self._notify_recv, self._notify_send = self._ctx.Pipe(duplex=False)
        # Re-entrant: _spawn() takes the lock itself and is also called from
        # sections that already hold it (the registry uses the same idiom).
        self._lock = threading.RLock()
        self._handles: Dict[int, _WorkerHandle] = {}  # guarded-by: _lock
        self._parked: List[int] = []  # guarded-by: _lock
        self._worker_caches: Dict[int, CacheReport] = {}  # guarded-by: _lock
        self._worker_seq = 0  # guarded-by: _lock
        self._spawned = 0  # guarded-by: _lock
        self._deaths = 0  # guarded-by: _lock
        self._respawns = 0  # guarded-by: _lock
        self._closing = False  # guarded-by: _lock
        self._broken = False  # guarded-by: _lock
        self._thread: Optional[threading.Thread] = None  # guarded-by: _lock

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("the process-pool supervisor is already running")
            for _ in range(self._workers):
                self._spawn()
            thread = threading.Thread(
                target=self._run, name="repro-procpool-supervisor", daemon=True
            )
            self._thread = thread
        thread.start()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Shut the pool down: drain workers, then force-reap stragglers.

        Anything still outstanding (the caller normally waits for its
        futures first, so this is the abort path) is failed through
        ``on_failed``.
        """
        with self._lock:
            self._closing = True
            thread = self._thread
            self._notify_send.send_bytes(b"!")
        if thread is not None:
            thread.join(timeout_s)
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
            self._parked.clear()
        for handle in handles:
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        if thread is not None:
            thread.join(1.0)
        for item in self.claims.drain():
            self._on_failed(item.item_id, "the process pool was stopped")

    # -- submission (event-loop side) ---------------------------------------------

    def offer(self, item: WorkItem) -> bool:
        """Queue one evaluation; ``False`` means the pool cannot take it."""
        with self._lock:
            if self._closing or self._broken:
                return False
            self._notify_send.send_bytes(b"!")
        self.claims.offer(item)
        with self._lock:
            self._notify_send.send_bytes(b"!")
        return True

    # -- the dispatcher thread -----------------------------------------------------

    def _spawn(self) -> None:
        """Spawn one worker process and register its handle."""
        with self._lock:
            self._worker_seq += 1
            worker_id = self._worker_seq
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=worker_main,
                args=(worker_id, child_conn),
                name=f"repro-procpool-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._handles[worker_id] = _WorkerHandle(
                worker_id=worker_id, process=process, conn=parent_conn
            )
            self._spawned += 1

    def _run(self) -> None:
        while True:
            with self._lock:
                closing = self._closing
                handles = list(self._handles.values())
            if closing and not handles:
                return
            waitable: List[object] = [self._notify_recv]
            by_conn: Dict[object, _WorkerHandle] = {}
            by_sentinel: Dict[object, _WorkerHandle] = {}
            for handle in handles:
                waitable.append(handle.conn)
                by_conn[handle.conn] = handle
                waitable.append(handle.process.sentinel)
                by_sentinel[handle.process.sentinel] = handle
            ready = connection_wait(waitable, timeout=self._poll_interval_s)
            now = time.monotonic()
            dead: List[_WorkerHandle] = []
            for obj in ready:
                if obj is self._notify_recv:
                    while self._notify_recv.poll():
                        self._notify_recv.recv_bytes()
                    continue
                handle = by_conn.get(obj)
                if handle is not None:
                    if not self._drain_conn(handle, now):
                        dead.append(handle)
                    continue
                handle = by_sentinel.get(obj)
                if handle is not None:
                    dead.append(handle)
            for handle in handles:
                if handle not in dead and handle.process.exitcode is not None:
                    dead.append(handle)
            for handle in dead:
                self._reap(handle, now)
            self.claims.expire(now)
            self._dispatch(now)
            if closing:
                self._drain_workers()

    def _drain_conn(self, handle: _WorkerHandle, now: float) -> bool:
        """Process every buffered message of ``handle``; ``False`` on EOF."""
        try:
            while handle.conn.poll():
                message = handle.conn.recv()
                self._process_message(handle, message, now)
        except (EOFError, OSError, ValueError):
            # ValueError covers a truncated pickle from a worker killed
            # mid-send; all three mean the pipe is unusable → death path.
            return False
        return True

    def _process_message(
        self, handle: _WorkerHandle, message: object, now: float
    ) -> None:
        if isinstance(message, ClaimRequest):
            handle.loaded = message.loaded
            with self._lock:
                closing = self._closing
            if closing:
                if self._send(handle, WorkerShutdown()):
                    handle.draining = True
                return
            item = self.claims.claim(handle.worker_id, handle.loaded, now)
            if item is not None:
                self._send(handle, item)
            else:
                with self._lock:
                    if handle.worker_id not in self._parked:
                        self._parked.append(handle.worker_id)
        elif isinstance(message, WorkResult):
            if message.worker_cache is not None:
                with self._lock:
                    self._worker_caches[message.worker_id] = message.worker_cache
            if self.claims.complete(message.item_id, message.worker_id):
                self._on_complete(message)
        elif isinstance(message, WorkerStats):
            if message.cache is not None:
                with self._lock:
                    self._worker_caches[message.worker_id] = message.cache
        # unknown messages are ignored: the vocabulary may grow

    def _send(self, handle: _WorkerHandle, message: Message) -> bool:
        try:
            handle.conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            self._reap(handle, time.monotonic())
            return False

    def _dispatch(self, now: float) -> None:
        """Grant pending work to parked workers, hottest caches first."""
        pending_paths = self.claims.pending_paths()
        if not pending_paths:
            return
        with self._lock:
            parked = [
                self._handles[worker_id]
                for worker_id in self._parked
                if worker_id in self._handles
            ]
        # Affinity across workers: offer first to workers that already
        # loaded a shard with pending work (claim() then picks the
        # matching item), so a cold worker does not steal a hot shard.
        parked.sort(
            key=lambda handle: 0 if set(handle.loaded) & pending_paths else 1
        )
        for handle in parked:
            item = self.claims.claim(handle.worker_id, handle.loaded, now)
            if item is None:
                return
            if self._send(handle, item):
                with self._lock:
                    if handle.worker_id in self._parked:
                        self._parked.remove(handle.worker_id)
            # on send failure _send() already reaped the worker, which
            # released the claim back to pending for the next worker

    def _drain_workers(self) -> None:
        """While closing: tell every parked worker to shut down."""
        with self._lock:
            parked = [
                self._handles[worker_id]
                for worker_id in self._parked
                if worker_id in self._handles
            ]
            self._parked.clear()
        for handle in parked:
            if not handle.draining and self._send(handle, WorkerShutdown()):
                handle.draining = True

    def _reap(self, handle: _WorkerHandle, now: float) -> None:
        """A worker died (or its pipe broke): requeue its claims, respawn."""
        with self._lock:
            current = self._handles.get(handle.worker_id)
            if current is not handle:
                return  # already reaped
            del self._handles[handle.worker_id]
            if handle.worker_id in self._parked:
                self._parked.remove(handle.worker_id)
            closing = self._closing
            if not (closing or handle.draining):
                self._deaths += 1
        # Salvage completions the worker sent before dying — a result
        # already in the pipe must not be requeued and re-run for nothing.
        try:
            while handle.conn.poll():
                self._process_message(handle, handle.conn.recv(), now)
        except (EOFError, OSError, ValueError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(0.1)
        self.claims.release_worker(handle.worker_id)
        if closing or handle.draining:
            return
        with self._lock:
            if self._respawns < self._restart_budget:
                self._respawns += 1
                self._spawn()
                return
            alive = bool(self._handles)
            if not alive:
                self._broken = True
        if not alive:
            for item in self.claims.drain():
                self._on_failed(
                    item.item_id,
                    "process pool broken: every worker died and the "
                    f"restart budget ({self._restart_budget}) is exhausted",
                )

    # -- inspection -------------------------------------------------------------

    def worker_pids(self) -> List[int]:
        """The live worker process ids (fault-injection tests kill these)."""
        with self._lock:
            return [
                handle.process.pid
                for handle in self._handles.values()
                if handle.process.pid is not None and handle.process.is_alive()
            ]

    @property
    def broken(self) -> bool:
        with self._lock:
            return self._broken

    def worker_cache_stats(self) -> List[CacheReport]:
        """The latest per-worker cache report of every worker seen so far.

        Idle workers are included: a worker that served no request still
        reports its cache block when it shuts down.
        """
        with self._lock:
            return [
                self._worker_caches[worker_id]
                for worker_id in sorted(self._worker_caches)
            ]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            report = {
                "workers": self._workers,
                "workers_live": len(self._handles),
                "spawned": self._spawned,
                "deaths": self._deaths,
                "respawns": self._respawns,
                "restart_budget": self._restart_budget,
                "broken": int(self._broken),
            }
        report.update(self.claims.stats())
        return report
