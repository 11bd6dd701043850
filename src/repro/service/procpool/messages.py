"""The picklable message vocabulary of the procpool IPC boundary.

Everything that crosses between the supervisor process and a worker
process — claim requests, granted work, completion events, shutdown and
final telemetry — is one of the frozen dataclasses below, built from
plain values (strings, numbers, tuples, dicts of those).  **Nothing with
process-local identity ever rides in a message**: no live
:class:`~repro.graphdb.database.GraphDatabase`, no asyncio future, no
lock or pipe handle.  A worker names a shard by its *snapshot path* and
loads (mmap, page-cache shared) its own copy; the parent names an
evaluation by its :data:`ItemId` and keeps the future at home.

Lint rule RA107 enforces this contract mechanically: every ``.send()`` /
``.put()`` payload inside ``service/procpool/`` must be a message type
declared in :data:`MESSAGE_TYPES`, and the field annotations here must
stay within the picklable value vocabulary.  Adding a message type means
adding a dataclass *and* listing it in :data:`MESSAGE_TYPES` — the rule
reads that tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple, Union

#: The claim identity of one offered evaluation: (shard name, registration
#: generation, database version, canonical query-fingerprint string, offer
#: sequence).  The first four components are the broker's dedup key — they
#: make a crashed-and-requeued re-run land on the *same* id, so its second
#: completion is a no-op — while the offer sequence keeps two independent
#: submissions of the same query (after the first completed) distinct.
ItemId = Tuple[str, int, int, str, int]

#: A per-worker cache-stats report, in the shape of
#: :func:`repro.graphdb.cache.cache_stats` (cache name → counter dict).
CacheReport = Dict[str, Dict[str, Optional[int]]]


@dataclass(frozen=True)
class ClaimRequest:
    """Worker → supervisor: give me work (pull-based claim).

    ``loaded`` advertises the snapshot paths this worker has already
    mmap-loaded, so the claim queue can prefer work for shards whose
    per-process caches are hot (shard affinity).
    """

    worker_id: int
    loaded: Tuple[str, ...] = ()


@dataclass(frozen=True)
class WorkItem:
    """Supervisor → worker: one claimed evaluation.

    ``spec`` is the wire payload of a
    :class:`~repro.service.requests.QuerySpec` (canonical edge triples,
    output variables, semantics) — the worker re-parses it, which is safe
    because the canonical form round-trips.  ``debug_sleep_s`` is the
    fault-injection hook: a positive value parks the worker between claim
    and evaluation, giving crash tests a deterministic window to SIGKILL
    it while the item is claimed-but-uncompleted.
    """

    item_id: ItemId
    shard: str
    path: str
    fmt: Optional[str]
    spec: Dict[str, Any]
    debug_sleep_s: float = 0.0


@dataclass(frozen=True)
class WorkResult:
    """Worker → supervisor: one completion event.

    Identified by the item id, so completions are idempotent at the claim
    queue — a lease-expired item re-run elsewhere produces a second
    ``WorkResult`` with the same id, which the queue drops.
    ``worker_cache`` is the worker's whole-process
    :func:`~repro.graphdb.cache.cache_stats` snapshot (in a worker
    process the only databases are the ones it loaded, so the aggregate
    *is* the per-worker report).
    """

    item_id: ItemId
    worker_id: int
    ok: bool
    boolean: Optional[bool] = None
    tuples: Optional[Tuple[Tuple[Hashable, ...], ...]] = None
    exhaustive: bool = True
    error: Optional[str] = None
    evaluation_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    worker_cache: Optional[CacheReport] = None


@dataclass(frozen=True)
class WorkerShutdown:
    """Supervisor → worker: stop pulling and exit after a final report."""

    reason: str = "close"


@dataclass(frozen=True)
class WorkerStats:
    """Worker → supervisor: the final telemetry of a graceful shutdown.

    ``cache`` is the worker's whole-process ``cache_stats()`` report.  A
    worker always sends it, also when it loaded no shard (a spawned
    process starts with no indexes, so that is the all-zero report), so
    the supervisor holds one block per worker process.
    """

    worker_id: int
    evaluations: int
    errors: int
    loaded: Tuple[str, ...] = ()
    cache: Optional[CacheReport] = None


#: Every type allowed across the IPC boundary (read by lint rule RA107).
MESSAGE_TYPES: Tuple[type, ...] = (
    ClaimRequest,
    WorkItem,
    WorkResult,
    WorkerShutdown,
    WorkerStats,
)

#: The union of every declared message type — annotate variables that hold
#: "some message" with this so RA107 can see they stay inside the contract.
Message = Union[ClaimRequest, WorkItem, WorkResult, WorkerShutdown, WorkerStats]
