"""The worker-process loop: pull, load-lazy, evaluate, report.

``worker_main`` is the target of each supervisor-spawned process.  It
speaks the message vocabulary of :mod:`repro.service.procpool.messages`
over one duplex pipe: send a :class:`ClaimRequest` (advertising the
snapshot paths already loaded, for shard affinity), block until the
supervisor answers with a :class:`WorkItem` or a :class:`WorkerShutdown`,
evaluate, send a :class:`WorkResult`, repeat.

Each worker holds its own ``path → GraphDatabase`` map, loaded on first
use via :func:`repro.graphdb.io.load_database` — for ``.rgsnap`` shards
an mmap whose CSR pages the OS page cache shares across all workers, so
N processes over the same shards cost one copy of the arrays.  The
per-process :mod:`repro.graphdb.cache` machinery then warms exactly like
the in-process tier's, which is why the claim queue's shard affinity
pays: re-claiming a shard you already served hits a hot index.

Crash-safety is the *supervisor's* job — a worker killed at any point
(mid-evaluation, between claim and completion) simply disappears; its
pipe EOF or process sentinel triggers requeue of its claimed items.  The
worker only promises that every completion it reports is a true result
of the named item, so re-delivery after a crash is sound.
"""

from __future__ import annotations

import time
from multiprocessing.connection import Connection
from typing import Dict, Optional, Tuple

from repro.engine.engine import evaluate
from repro.graphdb.cache import cache_stats, reachability_index
from repro.graphdb.database import GraphDatabase
from repro.graphdb.io import load_database
from repro.service.procpool.messages import (
    ClaimRequest,
    WorkerShutdown,
    WorkerStats,
    WorkItem,
    WorkResult,
)
from repro.service.requests import QuerySpec


def _execute(
    worker_id: int, item: WorkItem, databases: Dict[str, GraphDatabase]
) -> WorkResult:
    """Evaluate one claimed item against this process's shard copy."""
    try:
        db = databases.get(item.path)
        if db is None:
            db = load_database(item.path, fmt=item.fmt)
            databases[item.path] = db
        spec = QuerySpec.from_payload(item.spec)
        query = spec.to_query()
    except Exception as error:  # deliberate: failures travel as results
        return WorkResult(
            item_id=item.item_id, worker_id=worker_id, ok=False, error=str(error)
        )
    if item.debug_sleep_s > 0:
        # Fault-injection window: the item is claimed but not completed,
        # exactly where a crash must trigger requeue-and-rerun.
        time.sleep(item.debug_sleep_s)
    index = reachability_index(db)
    hits_before, misses_before = index.hits, index.misses
    started = time.perf_counter()
    try:
        evaluation = evaluate(
            query,
            db,
            generic_path_bound=spec.generic_path_bound,
            boolean_short_circuit=query.is_boolean,
        )
    except Exception as error:
        return WorkResult(
            item_id=item.item_id,
            worker_id=worker_id,
            ok=False,
            error=str(error),
            evaluation_s=time.perf_counter() - started,
            cache_hits=index.hits - hits_before,
            cache_misses=index.misses - misses_before,
            worker_cache=cache_stats(),
        )
    tuples: Optional[Tuple[Tuple[object, ...], ...]] = None
    if spec.output_variables:
        tuples = tuple(sorted(evaluation.tuples, key=repr))
    return WorkResult(
        item_id=item.item_id,
        worker_id=worker_id,
        ok=True,
        boolean=evaluation.boolean,
        tuples=tuples,
        exhaustive=evaluation.exhaustive,
        evaluation_s=time.perf_counter() - started,
        cache_hits=index.hits - hits_before,
        cache_misses=index.misses - misses_before,
        # In a worker process the only registered databases are this
        # worker's shards, so the process-wide aggregate is the per-worker
        # report the supervisor wants.
        worker_cache=cache_stats(),
    )


def worker_main(worker_id: int, conn: Connection) -> None:
    """The pull loop of one worker process (the spawned process's target)."""
    databases: Dict[str, GraphDatabase] = {}
    evaluations = 0
    errors = 0
    try:
        while True:
            try:
                conn.send(
                    ClaimRequest(
                        worker_id=worker_id, loaded=tuple(sorted(databases))
                    )
                )
                message = conn.recv()
            except (EOFError, OSError):
                return  # supervisor is gone; nothing to report to
            if isinstance(message, WorkerShutdown):
                try:
                    conn.send(
                        WorkerStats(
                            worker_id=worker_id,
                            evaluations=evaluations,
                            errors=errors,
                            loaded=tuple(sorted(databases)),
                            cache=cache_stats(),
                        )
                    )
                except (EOFError, OSError):
                    pass
                return
            if not isinstance(message, WorkItem):
                continue  # unknown message: ignore and pull again
            result = _execute(worker_id, message, databases)
            if result.ok:
                evaluations += 1
            else:
                errors += 1
            try:
                conn.send(result)
            except (EOFError, OSError):
                return
    finally:
        conn.close()
