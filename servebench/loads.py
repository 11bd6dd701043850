"""The three workloads: inputs, set-up, load generation, refreshes and checks.

A :class:`Workload` is frozen data.  :class:`Run` realises it for one seed,
starts a :class:`~repro.service.service.QueryService` over the generated
shards, drives request lines through ``submit_line`` and
``ServiceResult.to_json`` the way ``repro serve`` does, and afterwards
checks the answers against :mod:`reference` on the graph generation each
envelope's ``database_version`` names.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import os
import random
import resource
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.graphdb.storage as storage
from repro.graphdb.cache import reachability_index
from repro.graphdb.database import GraphDatabase
from repro.graphdb.delta import EdgeDelta
from repro.service.registry import DatabaseRegistry, RegisteredDatabase
from repro.service.requests import QueryRequest, QuerySpec
from repro.service.service import QueryService
from repro.workloads.registry import get_scenario, realise, scaled

import reference
from tracing import Tracer

#: The ten caches ``cache_stats()`` reports, in its order.
CACHE_NAMES = (
    "pairs", "from", "by_source", "relations", "verdicts",
    "products", "csr", "stats", "nfa_tables", "lazy_rows",
)
CACHE_COUNTERS = ("hits", "misses", "evictions", "entries")

#: Peak memory is read when a load phase has completed this many requests
#: (or at its end), so it measures a fixed amount of work however fast the
#: program gets through it: on the long-tail workload memory grows with
#: every distinct request served.
RSS_AFTER_REQUESTS = 1000

#: Pause before each refresh of the post-run probe.
PROBE_SPACING_S = 0.04

#: Share of a shard's edges one delta removes (and adds again).
DELTA_SHARE = 0.02

#: Distinct requests realised for a closed loop.
POOL_SIZE = 5000


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one registry scenario."""

    name: str
    why: str
    scenario: str
    scale: int
    shards: int
    pool: str
    snapshots: bool
    #: Closed-loop clients; 0 means an open loop at ``rate`` requests/s.
    clients: int = 2
    rate: float = 0.0
    #: Refresh one shard (round-robin) after every this many completed reads
    #: of a load phase; 0 means no refreshes while reads run.
    refresh_every: int = 0
    #: Refreshes made after the load phases, with no reads following them.
    probe_refreshes: int = 0
    #: Check every n-th request of the stream against the reference.
    check_every: int = 1
    #: Send the closed-loop stream in a seeded random order.
    shuffle: bool = False
    #: Stream requests the closed-loop clients send in set-up, untimed.
    warmup_reads: int = 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="longtail-thread",
            why="distinct RPQs with big answers on the thread tier: kernel, joins and serialisation work, caches only miss",
            scenario="scale-free-longtail",
            scale=64,
            shards=8,
            pool="thread",
            snapshots=False,
            # One client: a request's latency is its own service time, and a
            # collector pause or a stolen time slice stalls one request, not
            # two, so the stalls stay well inside the slowest 1%.
            clients=1,
            probe_refreshes=64,
            check_every=4,
            shuffle=True,
            # A server in steady state has served many distinct queries: its
            # heap is grown, and the collector runs full passes less often.
            warmup_reads=800,
        ),
        Workload(
            name="hotkey-process",
            why="Poisson hot-key traffic on two worker processes: admission, dedup, claims and IPC dominate warm evaluations",
            scenario="service-dedup",
            # 40-node graphs keep warm evaluations at about 4 ms, so the two
            # workers stay far from their knee when the host takes CPU away:
            # at 56 nodes (9 ms) a busy neighbour raised p50 by 70%.
            scale=40,
            shards=6,
            pool="process",
            snapshots=True,
            clients=0,
            rate=80.0,
            probe_refreshes=48,
        ),
        Workload(
            name="mixed-refresh",
            why="one template per engine path beside a writer that appends deltas and refreshes: normal form, sync products, image enumeration, re-warming",
            scenario="temporal-mixed",
            scale=24,
            # Nine shards (prime to the four templates, so every shard sees
            # every template): one 24-node graph can cost twice another, and
            # with three shards a seed's graphs moved throughput by 30%.
            shards=9,
            pool="thread",
            snapshots=True,
            # One reader, as on longtail-thread: a second one only adds its
            # share of the interpreter lock to each read and each refresh;
            # with two, the refresh median moved between 24 and 46 ms.
            clients=1,
            refresh_every=24,
        ),
    )
}


@dataclass
class Sample:
    """What one request left behind: its telemetry and a digest of its answer."""

    index: int
    shard: str
    spec: QuerySpec
    end: float
    latency_s: float
    late_s: float
    ok: bool
    boolean: Optional[bool]
    count: int
    digest: int
    deduplicated: bool
    queue_wait_s: float
    evaluation_s: float
    cache_lookups: int
    version: Optional[int]
    error: Optional[str]


@dataclass
class Phase:
    """One measured stretch of load and the counters it moved."""

    started: float
    ended: float
    samples: List[Sample]
    broker: Dict[str, int]
    pool: Dict[str, int]
    caches: Dict[str, Dict[str, int]]

    @property
    def completed(self) -> List[Sample]:
        return [sample for sample in self.samples if sample.ok]

    @property
    def throughput(self) -> float:
        return len(self.completed) / max(self.ended - self.started, 1e-9)


def answer_digest(tuples: Optional[Sequence[Sequence[Any]]]) -> Tuple[int, int]:
    """Size and hash of an answer set, so no answer has to be kept whole."""
    answers = frozenset(tuple(row) for row in tuples or ())
    return len(answers), hash(answers)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its live worker processes."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024.0


class Shard:
    """One shard as the benchmark sees it: its graph per version, file and deltas."""

    def __init__(self, name: str, db: GraphDatabase, path: Optional[str]) -> None:
        self.name = name
        self.db = db
        self.path = path
        edges = [(edge.source, edge.label, edge.target) for edge in db.edges]
        self.current = reference.Graph(db.nodes, edges)
        # A snapshot's version counts its delta segments; an in-memory
        # database's version counts its mutations.
        self.graphs: Dict[int, reference.Graph] = {
            0 if path is not None else db.version: self.current
        }
        self.labels = sorted({label for _source, label, _target in edges})

    def make_delta(self, rng: random.Random, share: float) -> EdgeDelta:
        """About ``share`` of the edges removed and as many random edges added."""
        occurrences = sorted(
            triple for triple, count in self.current.edges.items() for _ in range(count)
        )
        size = max(1, round(share * len(occurrences)))
        nodes = sorted(self.current.nodes)
        return EdgeDelta(
            additions=[
                (rng.choice(nodes), rng.choice(self.labels), rng.choice(nodes))
                for _ in range(size)
            ],
            removals=rng.sample(occurrences, size),
        )

    def commit(self, delta: EdgeDelta, version: Optional[int]) -> None:
        """Advance to the next generation; ``version`` is set when reads may see it."""
        self.current = self.current.after(delta.additions, delta.removals)
        if version is not None:
            self.graphs[version] = self.current


class CacheLedger:
    """Cache counters summed over every generation a thread-tier shard served.

    A generation's index is watched from the moment it serves; when a swap
    displaces it, its final counters are settled and the index let go.
    """

    def __init__(self) -> None:
        self._live: Dict[int, Any] = {}
        self._settled = {name: Counter() for name in CACHE_NAMES}

    def watch(self, entry: RegisteredDatabase) -> None:
        self._live[entry.generation] = reachability_index(entry.db)

    def settle(self, entry: RegisteredDatabase) -> None:
        index = self._live.pop(entry.generation, None)
        if index is not None:
            stats = index.stats()
            for name in CACHE_NAMES:
                self._settled[name].update(
                    {key: stats[name][key] for key in ("hits", "misses", "evictions")}
                )

    def totals(self) -> Dict[str, Dict[str, int]]:
        totals = {name: Counter(counters) for name, counters in self._settled.items()}
        for index in self._live.values():
            stats = index.stats()
            for name in CACHE_NAMES:
                totals[name].update({key: stats[name][key] for key in CACHE_COUNTERS})
        return {name: {key: totals[name][key] for key in CACHE_COUNTERS} for name in CACHE_NAMES}


def worker_cache_totals(reports: Sequence[Dict[str, Dict[str, Optional[int]]]]) -> Dict[str, Dict[str, int]]:
    """Per-cache counters summed over worker-process reports."""
    return {
        name: {key: sum(int(report[name][key] or 0) for report in reports) for key in CACHE_COUNTERS}
        for name in CACHE_NAMES
    }


class Run:
    """One workload and one seed: set-up, load phases, refreshes and checks."""

    def __init__(self, workload: Workload, seed: int, workdir: str, tracer: Optional[Tracer] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.samples: List[Sample] = []
        self.refresh_s: List[float] = []
        self.ledger = CacheLedger()
        self.shards: Dict[str, Shard] = {}
        self.stream: List[Tuple[float, QueryRequest, str]] = []
        self.service: Optional[QueryService] = None
        self.live: Dict[str, RegisteredDatabase] = {}
        self.retired: Dict[str, RegisteredDatabase] = {}
        self.next_index = 0
        self.completed_reads = 0
        self.refreshes_made = 0
        self.swaps = 0
        self.last_swap: Dict[str, int] = {}
        self.inflight: Counter = Counter()
        self.refresh_due = asyncio.Event()
        self.rss_mib: Optional[float] = None
        self.phase_completed = 0

    # -- set-up ------------------------------------------------------------------

    def realise(self, seconds: float) -> None:
        """Generate the shards (as snapshots where the workload wants them) and the stream."""
        workload = self.workload
        base = get_scenario(workload.scenario)
        # An open loop needs its schedule; a closed loop a fixed pool that
        # its clients do not run through, so the mix does not depend on
        # the run's length.
        count = int(workload.rate * seconds * 1.25) if workload.clients == 0 else max(
            POOL_SIZE, int(160 * seconds)
        )
        realised = realise(
            scaled(
                base,
                scale=workload.scale,
                shards=workload.shards,
                num_requests=count + 64,
                seed=self.seed,
                rate=workload.rate or base.rate,
            )
        )
        for name, db in realised.databases:
            path = None
            if workload.snapshots:
                path = os.path.join(self.workdir, f"{name}.rgsnap")
                storage.save_snapshot(db, path)
            self.shards[name] = Shard(name, db, path)
        self.stream = [
            (timed.offset_s, timed.request, timed.request.to_json())
            for timed in realised.requests
        ]
        if workload.shuffle:
            # The long-tail mix lengthens its code words with the request
            # index; a seeded order gives every stretch of the run the same
            # mix, however far into the stream a run gets.
            self.rng.shuffle(self.stream)

    def start(self) -> QueryService:
        registry = DatabaseRegistry()
        for shard in self.shards.values():
            if shard.path is not None:
                entry = registry.load(shard.name, shard.path)
            else:
                entry = registry.register(shard.name, shard.db)
            self.live[shard.name] = entry
            if self.workload.pool == "thread":
                self.ledger.watch(entry)
        self.service = QueryService(registry, concurrency=2, pool=self.workload.pool)
        self.service.start()
        return self.service

    def warmup_requests(self) -> List[QueryRequest]:
        """Every (shard, query) pair of a repeating stream once, else one probe per shard."""
        distinct: Dict[Tuple[str, QuerySpec], QueryRequest] = {}
        for _offset, request, _line in self.stream:
            distinct.setdefault((request.database, request.spec), request)
        if len(distinct) < len(self.stream):
            return list(distinct.values())
        # A stream that never repeats has nothing to warm but each shard's
        # CSR and statistics: use a pattern the stream does not contain.
        return [
            QueryRequest.from_payload(
                {"id": f"warmup.{name}", "database": name,
                 "edges": [["x", "a", "y"]], "output": ["x", "y"]}
            )
            for name in sorted(self.shards)
        ]

    async def warmup(self) -> None:
        await asyncio.gather(
            *(
                self.send(-1 - position, request, request.to_json(), "warmup", time.perf_counter())
                for position, request in enumerate(self.warmup_requests())
            )
        )

        async def reader() -> None:
            while self.next_index < self.workload.warmup_reads:
                index = self.next_index
                self.next_index += 1
                _offset, request, line = self.stream[index]
                await self.send(index, request, line, "warmup", time.perf_counter())

        await asyncio.gather(*(reader() for _ in range(self.workload.clients)))

    # -- one request ---------------------------------------------------------------

    async def send(self, index: int, request: QueryRequest, line: str, phase: str, scheduled: float) -> None:
        assert self.service is not None
        sent = time.perf_counter()
        epoch = self.swaps
        self.inflight[epoch] += 1
        try:
            traced = self.tracer is not None and phase == "traced"
            with self.tracer.request(index) if traced else nullcontext():
                envelope = await self.service.submit_line(line, overflow="wait")
                envelope.to_json()
            done = time.perf_counter()
        finally:
            self.inflight[epoch] -= 1
        count, digest = answer_digest(envelope.tuples)
        self.samples.append(
            Sample(
                index=index,
                shard=request.database,
                spec=request.spec,
                end=done,
                latency_s=done - scheduled,
                late_s=sent - scheduled,
                ok=envelope.ok,
                boolean=envelope.boolean,
                count=count,
                digest=digest,
                deduplicated=envelope.deduplicated,
                queue_wait_s=envelope.queue_wait_s,
                evaluation_s=envelope.evaluation_s,
                cache_lookups=envelope.cache_hits + envelope.cache_misses,
                version=envelope.database_version,
                error=envelope.error,
            )
        )
        if phase != "warmup" and envelope.ok:
            self.phase_completed += 1
            if self.phase_completed == RSS_AFTER_REQUESTS:
                self.rss_mib = peak_rss_mib()

    # -- load phases ---------------------------------------------------------------

    def cache_totals(self) -> Dict[str, Dict[str, int]]:
        assert self.service is not None
        if self.workload.pool == "thread":
            return self.ledger.totals()
        return worker_cache_totals(self.service.stats().get("worker_caches", []))

    async def phase(self, name: str, seconds: float) -> Phase:
        """Run load for ``seconds``, then wait for every request it sent."""
        assert self.service is not None
        stats = self.service.stats()
        broker, pool, caches = dict(stats["broker"]), dict(stats["workers"]), self.cache_totals()
        first = len(self.samples)
        self.phase_completed = 0
        self.rss_mib = None
        started = time.perf_counter()
        if self.workload.clients:
            stop = asyncio.Event()
            tasks = [
                asyncio.create_task(self.client(name, started + seconds, stop))
                for _ in range(self.workload.clients)
            ]
            if self.workload.refresh_every:
                tasks.append(asyncio.create_task(self.writer(stop)))
            await asyncio.gather(*tasks)
        else:
            await self.open_loop(name, started, seconds)
        samples = self.samples[first:]
        if self.rss_mib is None:
            self.rss_mib = peak_rss_mib()
        stats = self.service.stats()
        caches_after = self.cache_totals()
        return Phase(
            started=started,
            ended=max([started] + [sample.end for sample in samples]),
            samples=samples,
            broker={key: value - broker.get(key, 0) for key, value in stats["broker"].items()},
            pool={key: value - pool.get(key, 0) for key, value in stats["workers"].items()},
            caches={
                cache: {
                    key: caches_after[cache][key] - (0 if key == "entries" else caches[cache][key])
                    for key in CACHE_COUNTERS
                }
                for cache in CACHE_NAMES
            },
        )

    async def client(self, phase: str, deadline: float, stop: asyncio.Event) -> None:
        """One closed-loop client: the next request goes out when the last returns."""
        while time.perf_counter() < deadline:
            index = self.next_index
            self.next_index += 1
            _offset, request, line = self.stream[index % len(self.stream)]
            await self.send(index, request, line, phase, time.perf_counter())
            self.completed_reads += 1
            if self.workload.refresh_every and self.completed_reads % self.workload.refresh_every == 0:
                self.refresh_due.set()
        stop.set()
        self.refresh_due.set()

    async def open_loop(self, phase: str, started: float, seconds: float) -> None:
        """Send the stream's requests at their offsets, shifted to this phase."""
        base = self.stream[self.next_index][0]
        tasks = []
        while self.next_index < len(self.stream):
            offset, request, line = self.stream[self.next_index]
            if offset - base >= seconds:
                break
            index = self.next_index
            self.next_index += 1
            scheduled = started + (offset - base)
            delay = scheduled - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(self.send(index, request, line, phase, scheduled)))
        await asyncio.gather(*tasks)

    # -- refreshes ---------------------------------------------------------------------

    async def writer(self, stop: asyncio.Event) -> None:
        """Refresh one shard, round-robin, after every ``refresh_every`` reads."""
        names = sorted(self.shards)
        while not stop.is_set():
            await self.refresh_due.wait()
            self.refresh_due.clear()
            while not stop.is_set() and self.refreshes_made < self.completed_reads // self.workload.refresh_every:
                await self.refresh_snapshot(names[self.refreshes_made % len(names)], reads_follow=True)
                self.refreshes_made += 1

    async def refresh_snapshot(self, name: str, reads_follow: bool) -> None:
        """Append a delta to the shard's file, then refresh and swap it in."""
        assert self.service is not None
        shard = self.shards[name]
        # The swap below displaces the generation the previous swap of this
        # shard retired: let everything admitted before that swap finish, so
        # the displaced generation's cache counters are final when settled.
        since = self.last_swap.get(name, 0)
        while any(count for epoch, count in self.inflight.items() if epoch < since):
            await asyncio.sleep(0.001)
        delta = shard.make_delta(self.rng, DELTA_SHARE)
        started = time.perf_counter()
        # A small appending write: done on the loop, so a thread's wait for
        # the interpreter lock does not count as append time.
        storage.append_delta(shard.path, delta)
        entry = await self.service.refresh(name)
        self.refresh_s.append(time.perf_counter() - started)
        shard.commit(delta, entry.version if reads_follow else None)
        self.swapped(name, entry)

    def refresh_in_memory(self, name: str) -> None:
        """The in-memory refresh path: edit a copy, then begin_refresh(db=...) and swap."""
        assert self.service is not None
        shard = self.shards[name]
        registry = self.service.registry
        delta = shard.make_delta(self.rng, DELTA_SHARE)
        started = time.perf_counter()
        db = self.live[name].db.copy()
        for source, label, target in delta.removals:
            db.remove_edge(source, label, target)
        for source, label, target in delta.additions:
            db.add_edge(source, label, target)
        entry = registry.swap(registry.begin_refresh(name, db=db))
        self.refresh_s.append(time.perf_counter() - started)
        shard.commit(delta, None)
        self.swapped(name, entry)

    def swapped(self, name: str, entry: RegisteredDatabase) -> None:
        displaced = self.retired.pop(name, None)
        if displaced is not None:
            self.ledger.settle(displaced)
        self.retired[name] = self.live[name]
        self.live[name] = entry
        if self.workload.pool == "thread":
            self.ledger.watch(entry)
        self.swaps += 1
        self.last_swap[name] = self.swaps

    async def probe(self) -> None:
        """Refreshes after the load phases; no read follows them.

        They are spaced out so that their median samples the machine over
        seconds, as the load phases do, rather than over one short burst.
        """
        names = sorted(self.shards)
        for turn in range(self.workload.probe_refreshes):
            await asyncio.sleep(PROBE_SPACING_S)
            name = names[turn % len(names)]
            if self.shards[name].path is not None:
                await self.refresh_snapshot(name, reads_follow=False)
            else:
                self.refresh_in_memory(name)

    # -- checks ----------------------------------------------------------------------

    def check_answers(self) -> List[str]:
        """Compare checked answers with the reference; return the mismatches."""
        expected: Dict[Tuple[str, int, QuerySpec], Tuple[bool, int, int]] = {}
        problems: List[str] = []
        for sample in self.samples:
            if not sample.ok or sample.index % self.workload.check_every:
                continue
            key = (sample.shard, sample.version, sample.spec)
            if key not in expected:
                answers = reference.answer(
                    self.shards[sample.shard].graphs[sample.version],
                    sample.spec.edges,
                    sample.spec.output_variables,
                    sample.spec.image_bound,
                )
                expected[key] = (bool(answers), *answer_digest(answers))
            boolean, count, digest = expected[key]
            if sample.spec.output_variables:
                agrees = (sample.boolean, sample.count, sample.digest) == (boolean, count, digest)
            else:
                agrees = sample.boolean == boolean
            if not agrees:
                problems.append(
                    f"request {sample.index} on {sample.shard}@{sample.version}: "
                    f"got {sample.count} tuples/{sample.boolean}, expected {count}/{boolean}"
                )
        return problems

    def check_cache_totals(self, totals: Dict[str, Dict[str, int]]) -> Optional[str]:
        """Envelope cache lookups of the evaluations that ran must equal the caches' own totals."""
        from_envelopes = sum(
            sample.cache_lookups for sample in self.samples if sample.ok and not sample.deduplicated
        )
        from_caches = sum(totals[name]["hits"] + totals[name]["misses"] for name in CACHE_NAMES)
        if from_envelopes != from_caches:
            return f"envelopes count {from_envelopes} cache lookups, the caches count {from_caches}"
        return None
