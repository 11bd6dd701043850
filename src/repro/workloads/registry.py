"""The declarative workload registry: one frozen config per scenario.

Every perf claim in this repository used to rest on hand-rolled loops in
individual bench scripts.  The registry replaces those loops with *named,
frozen scenario configs* — graph family × scale × query mix × arrival
pattern × seed — that realise deterministically::

    from repro.workloads import get_scenario, realise

    workload = realise(get_scenario("scale-free-hotkey"))
    registry = workload.build_registry()        # DatabaseRegistry of shards
    for timed in workload.requests:             # (arrival offset, request)
        ...

The same config object always realises to the byte-identical graph(s) and
request stream (asserted in ``tests/test_registry.py``), configs round-trip
through JSON (``WorkloadConfig.to_json`` / ``from_json``), and unknown
family/mix/pattern names fail loudly at construction time with
:class:`WorkloadConfigError` — a typo cannot silently benchmark the wrong
scenario.

**Graph families** (:data:`GRAPH_FAMILIES`): ``random`` (uniform
multigraph), ``scale-free`` (preferential attachment, degree-skewed hubs),
``temporal-layered`` (tick-stamped copies of a base entity set),
``deep-chain`` (the planner-adversarial chain + hub family) and
``dense-cluster`` (dense communities behind rare bridge edges).

**Query mixes** (:data:`QUERY_MIXES`): ``hot-key-skew`` (a small template
pool drawn with Zipf-like weights — heavy duplication, the dedup/warm-cache
regime), ``long-tail-unique`` (structurally distinct single-edge patterns
with output variables — every request does fresh kernel work) and
``mixed-fragments`` (a rotation across the engine dispatcher: classical
CRPQ, string-variable synchronisation, vstar-free with output,
image-bounded).

**Arrival patterns** (:data:`ARRIVAL_PATTERNS`): ``uniform`` (evenly
spaced), ``poisson`` (exponential inter-arrival) and ``burst`` (clustered
volleys) — offsets in seconds from the stream start, consumed by
``repro replay`` and the latency benchmarks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Tuple

from repro.core.alphabet import Alphabet
from repro.core.errors import ReproError
from repro.graphdb.database import GraphDatabase
from repro.graphdb.generators import (
    deep_chain,
    dense_cluster_graph,
    random_graph,
    scale_free_graph,
    temporal_layered_graph,
)
from repro.service.requests import QueryRequest, QuerySpec


class WorkloadConfigError(ReproError):
    """Raised for unknown family/mix/pattern names or invalid parameters."""


#: The shared workload alphabet: every family generates over ``abc``.
_SYMBOLS = "abc"

#: Offsets are rounded so a config's request stream is byte-stable through
#: JSON (floats re-parse exactly at 6 decimals of seconds — microseconds).
_OFFSET_DECIMALS = 6


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------


def _stringified_nodes(db: GraphDatabase) -> GraphDatabase:
    """A copy of ``db`` with every node name forced to a string.

    The registry contract is string node names throughout (the on-disk
    formats keep identifiers as strings, so snapshot-backed and in-memory
    shards of the same scenario answer byte-identically).
    """
    copy = GraphDatabase(db.alphabet())
    for node in db.nodes:
        copy.add_node(str(node))
    for source, label, target in db.edges:
        copy.add_edge(str(source), label, str(target))
    return copy


def _random_family(scale: int, seed: int) -> GraphDatabase:
    db = random_graph(
        scale,
        int(scale * 2.2),
        Alphabet(_SYMBOLS),
        seed=seed,
        ensure_connected=True,
    )
    return _stringified_nodes(db)


def _scale_free_family(scale: int, seed: int) -> GraphDatabase:
    return scale_free_graph(scale, Alphabet(_SYMBOLS), seed=seed)


def _temporal_family(scale: int, seed: int) -> GraphDatabase:
    return temporal_layered_graph(scale, alphabet=Alphabet(_SYMBOLS), seed=seed)


def _deep_chain_family(scale: int, seed: int) -> GraphDatabase:
    return deep_chain(max(2, scale), seed=seed)


def _dense_cluster_family(scale: int, seed: int) -> GraphDatabase:
    return dense_cluster_graph(scale, alphabet=Alphabet(_SYMBOLS), seed=seed)


GRAPH_FAMILIES: Dict[str, Callable[[int, int], GraphDatabase]] = {
    "random": _random_family,
    "scale-free": _scale_free_family,
    "temporal-layered": _temporal_family,
    "deep-chain": _deep_chain_family,
    "dense-cluster": _dense_cluster_family,
}


# ---------------------------------------------------------------------------
# Query mixes
# ---------------------------------------------------------------------------

#: The hot-key template pool: the cache-heavy string-variable queries the
#: serving benchmarks have always used, plus an image-bounded interpretation
#: — a small set drawn with heavy skew, so a handful of fingerprints carry
#: most of the traffic (the dedup / warm-cache regime).
_HOT_KEY_POOL: Tuple[QuerySpec, ...] = (
    QuerySpec(edges=(("x", "w{a|b}", "y"), ("y", "&w", "z"))),
    QuerySpec(edges=(("x", "w{a|b}c*", "y"), ("y", "&w|c", "z"))),
    QuerySpec(edges=(("x", "(a|b)*c", "y"),), output_variables=("x",)),
    QuerySpec(edges=(("x", "w{(a|b)+}&w", "y"),), image_bound=2),
)

#: The mixed-fragments rotation: one template per engine path of the
#: dispatcher (classical CRPQ with output, string-variable synchronisation,
#: vstar-free with output, image-bounded).
_MIXED_FRAGMENT_POOL: Tuple[QuerySpec, ...] = (
    QuerySpec(edges=(("x", "(a|b)*c", "y"),), output_variables=("x", "y")),
    QuerySpec(edges=(("x", "w{a|b}", "y"), ("y", "&w", "z"))),
    QuerySpec(
        edges=(("x", "w{a|b}c*", "y"), ("y", "&w|c", "z")),
        output_variables=("x", "z"),
    ),
    QuerySpec(edges=(("x", "w{(a|b)+}&w", "y"),), image_bound=2),
)


def _zipf_index(rng: "_Rng", size: int) -> int:
    """A Zipf-skewed index in ``[0, size)``: rank ``r`` with weight 1/(r+1)²."""
    weights = [1.0 / (rank + 1) ** 2 for rank in range(size)]
    total = sum(weights)
    roll = rng.random() * total
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if roll < cumulative:
            return index
    return size - 1


def _hot_key_mix(rng: "_Rng", count: int) -> List[QuerySpec]:
    return [_HOT_KEY_POOL[_zipf_index(rng, len(_HOT_KEY_POOL))] for _ in range(count)]


def _long_tail_mix(rng: "_Rng", count: int) -> List[QuerySpec]:
    """Structurally distinct single-edge patterns — unique fingerprints.

    Each request embeds a distinct base-3 code word (index written over
    ``a``/``b``/``c``), wrapped in one of a few star shells, so no two
    requests in the stream share a fingerprint: neither dedup nor a warm
    relation cache can stand in for kernel throughput.
    """
    shells = ("{word}(a|b|c)*", "(a|b|c)*{word}", "{word}(a|b)*c?")
    specs: List[QuerySpec] = []
    for index in range(count):
        digits: List[str] = []
        remainder = index
        while True:
            digits.append(_SYMBOLS[remainder % 3])
            remainder //= 3
            if remainder == 0:
                break
        word = "".join(reversed(digits)).rjust(3, _SYMBOLS[0])
        shell = shells[rng.randrange(len(shells))]
        specs.append(
            QuerySpec(
                edges=(("x", shell.format(word=word), "y"),),
                output_variables=("x", "y"),
            )
        )
    return specs


def _mixed_fragments_mix(rng: "_Rng", count: int) -> List[QuerySpec]:
    return [_MIXED_FRAGMENT_POOL[index % len(_MIXED_FRAGMENT_POOL)] for index in range(count)]


QUERY_MIXES: Dict[str, Callable[["_Rng", int], List[QuerySpec]]] = {
    "hot-key-skew": _hot_key_mix,
    "long-tail-unique": _long_tail_mix,
    "mixed-fragments": _mixed_fragments_mix,
}


# ---------------------------------------------------------------------------
# Arrival patterns
# ---------------------------------------------------------------------------


def _uniform_arrivals(rng: "_Rng", count: int, rate: float) -> List[float]:
    return [index / rate for index in range(count)]


def _poisson_arrivals(rng: "_Rng", count: int, rate: float) -> List[float]:
    offsets: List[float] = []
    clock = 0.0
    for _ in range(count):
        offsets.append(clock)
        clock += rng.expovariate(rate)
    return offsets


def _burst_arrivals(rng: "_Rng", count: int, rate: float) -> List[float]:
    """Volleys of 8 near-simultaneous arrivals, spaced at the mean rate."""
    burst = 8
    offsets = []
    for index in range(count):
        volley, position = divmod(index, burst)
        offsets.append(volley * (burst / rate) + position * 1e-4)
    return offsets


ARRIVAL_PATTERNS: Dict[str, Callable[["_Rng", int, float], List[float]]] = {
    "uniform": _uniform_arrivals,
    "poisson": _poisson_arrivals,
    "burst": _burst_arrivals,
}


# ---------------------------------------------------------------------------
# The config object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadConfig:
    """One frozen benchmark scenario: everything needed to realise it.

    ``scale`` is the node count per shard (interpreted by the graph
    family), ``shards`` the number of independently seeded graphs the
    request stream round-robins over, ``rate`` the mean arrival rate in
    requests/second.  Instances validate on construction — an unknown
    ``graph_family``/``query_mix``/``arrival_pattern`` raises
    :class:`WorkloadConfigError` immediately.
    """

    name: str
    graph_family: str
    scale: int
    query_mix: str
    arrival_pattern: str
    num_requests: int = 64
    rate: float = 400.0
    shards: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.graph_family not in GRAPH_FAMILIES:
            raise WorkloadConfigError(
                f"unknown graph family {self.graph_family!r} "
                f"(known: {', '.join(sorted(GRAPH_FAMILIES))})"
            )
        if self.query_mix not in QUERY_MIXES:
            raise WorkloadConfigError(
                f"unknown query mix {self.query_mix!r} "
                f"(known: {', '.join(sorted(QUERY_MIXES))})"
            )
        if self.arrival_pattern not in ARRIVAL_PATTERNS:
            raise WorkloadConfigError(
                f"unknown arrival pattern {self.arrival_pattern!r} "
                f"(known: {', '.join(sorted(ARRIVAL_PATTERNS))})"
            )
        for attribute in ("scale", "num_requests", "shards"):
            value = getattr(self, attribute)
            if not isinstance(value, int) or value < 1:
                raise WorkloadConfigError(
                    f"'{attribute}' must be a positive integer, got {value!r}"
                )
        if not self.rate > 0:
            raise WorkloadConfigError(f"'rate' must be positive, got {self.rate!r}")
        if not self.name:
            raise WorkloadConfigError("a workload config needs a non-empty name")

    # -- JSON round trip ---------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "graph_family": self.graph_family,
            "scale": self.scale,
            "query_mix": self.query_mix,
            "arrival_pattern": self.arrival_pattern,
            "num_requests": self.num_requests,
            "rate": self.rate,
            "shards": self.shards,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "WorkloadConfig":
        if not isinstance(payload, Mapping):
            raise WorkloadConfigError(
                f"workload config must be a JSON object, got {payload!r}"
            )
        known = {
            "name",
            "graph_family",
            "scale",
            "query_mix",
            "arrival_pattern",
            "num_requests",
            "rate",
            "shards",
            "seed",
        }
        unknown = set(payload) - known
        if unknown:
            raise WorkloadConfigError(
                f"unknown workload config field(s): {', '.join(sorted(map(str, unknown)))}"
            )
        missing = {"name", "graph_family", "scale", "query_mix", "arrival_pattern"} - set(
            payload
        )
        if missing:
            raise WorkloadConfigError(
                f"workload config missing field(s): {', '.join(sorted(missing))}"
            )
        try:
            return cls(**{str(key): value for key, value in payload.items()})  # type: ignore[arg-type]
        except TypeError as error:
            raise WorkloadConfigError(f"invalid workload config: {error}") from error

    @classmethod
    def from_json(cls, text: str) -> "WorkloadConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise WorkloadConfigError(f"invalid workload config JSON: {error}") from error
        return cls.from_payload(payload)


# ---------------------------------------------------------------------------
# Realisation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimedRequest:
    """One request of a realised stream plus its arrival offset in seconds."""

    offset_s: float
    request: QueryRequest


@dataclass(frozen=True)
class RealizedWorkload:
    """A scenario made concrete: shard graphs plus the timed request stream."""

    config: WorkloadConfig
    #: ``(shard name, graph)`` pairs, one per shard, independently seeded.
    databases: Tuple[Tuple[str, GraphDatabase], ...]
    requests: Tuple[TimedRequest, ...]

    def build_registry(self) -> "DatabaseRegistry":
        """A fresh :class:`~repro.service.registry.DatabaseRegistry` of the shards."""
        from repro.service.registry import DatabaseRegistry

        registry = DatabaseRegistry()
        for name, db in self.databases:
            registry.register(name, db)
        return registry

    def request_lines(self) -> List[str]:
        """The stream as canonical JSONL lines (what ``repro serve`` reads)."""
        return [timed.request.to_json() for timed in self.requests]


class _Rng:
    """A minimal deterministic PRNG (xorshift64*) used for realisation.

    ``random.Random`` documents cross-version stability only for
    ``random()`` itself; realised workloads must be byte-identical across
    the CI interpreter matrix (3.10–3.12), so the registry carries its own
    tiny generator with exactly the three draws the mixes need.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = (seed * 2654435761 + 1) & 0xFFFFFFFFFFFFFFFF

    def _next(self) -> int:
        state = self._state
        state ^= (state >> 12) & 0xFFFFFFFFFFFFFFFF
        state = (state ^ (state << 25)) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 27
        self._state = state
        return (state * 2685821657736338717) & 0xFFFFFFFFFFFFFFFF

    def random(self) -> float:
        return (self._next() >> 11) / float(1 << 53)

    def randrange(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("randrange bound must be positive")
        return self._next() % bound

    def expovariate(self, rate: float) -> float:
        roll = self.random()
        # Guard the log: random() may return exactly 0.0.
        return -math.log(1.0 - roll) / rate if roll < 1.0 else 1.0 / rate


def realise(config: WorkloadConfig) -> RealizedWorkload:
    """Build the scenario's graphs and timed request stream, deterministically.

    The same config object always yields a byte-identical result: graphs
    are seeded per shard from ``config.seed``, query specs and arrival
    offsets from an independent stream-level PRNG, and offsets are rounded
    to microseconds so the stream survives a JSON round trip unchanged.
    """
    family = GRAPH_FAMILIES[config.graph_family]
    databases = tuple(
        (f"shard{index}", family(config.scale, config.seed + index))
        for index in range(config.shards)
    )
    rng = _Rng(config.seed * 7919 + 17)
    specs = QUERY_MIXES[config.query_mix](rng, config.num_requests)
    offsets = ARRIVAL_PATTERNS[config.arrival_pattern](
        rng, config.num_requests, config.rate
    )
    requests = tuple(
        TimedRequest(
            offset_s=round(offset, _OFFSET_DECIMALS),
            request=QueryRequest(
                database=databases[index % len(databases)][0],
                spec=spec,
                request_id=f"{config.name}.{index}",
            ),
        )
        for index, (offset, spec) in enumerate(zip(offsets, specs))
    )
    return RealizedWorkload(config=config, databases=databases, requests=requests)


# ---------------------------------------------------------------------------
# The registry of named scenarios
# ---------------------------------------------------------------------------

#: Every named scenario, frozen.  servebench and the tests refer to these
#: by name; ad-hoc configs can still be constructed directly.
REGISTRY: Dict[str, WorkloadConfig] = {
    config.name: config
    for config in (
        # Degree-skewed hubs under heavily duplicated traffic: the
        # dedup/warm-cache serving regime.
        WorkloadConfig(
            name="scale-free-hotkey",
            graph_family="scale-free",
            scale=64,
            query_mix="hot-key-skew",
            arrival_pattern="poisson",
            num_requests=64,
            shards=2,
            seed=11,
        ),
        # The same skewed graphs under all-unique queries: pure kernel
        # throughput, no dedup to hide behind.
        WorkloadConfig(
            name="scale-free-longtail",
            graph_family="scale-free",
            scale=64,
            query_mix="long-tail-unique",
            arrival_pattern="uniform",
            num_requests=48,
            shards=2,
            seed=12,
        ),
        # Tick-layered temporal joins across the full engine dispatcher.
        WorkloadConfig(
            name="temporal-mixed",
            graph_family="temporal-layered",
            scale=48,
            query_mix="mixed-fragments",
            arrival_pattern="uniform",
            num_requests=48,
            shards=2,
            seed=13,
        ),
        # The planner-adversarial family under bursty unique traffic.
        WorkloadConfig(
            name="deep-chain-longtail",
            graph_family="deep-chain",
            scale=64,
            query_mix="long-tail-unique",
            arrival_pattern="burst",
            num_requests=32,
            shards=1,
            seed=14,
        ),
        # Dense communities behind rare bridges, hot-key traffic in volleys.
        WorkloadConfig(
            name="dense-cluster-hotkey",
            graph_family="dense-cluster",
            scale=48,
            query_mix="hot-key-skew",
            arrival_pattern="burst",
            num_requests=64,
            shards=2,
            seed=15,
        ),
        # The serving scenarios: many uniform shards, heavily duplicated
        # hot-key traffic (servebench's hotkey-process workload and the
        # dedup test in tests/test_service.py realise them).
        WorkloadConfig(
            name="service-dedup",
            graph_family="random",
            scale=56,
            query_mix="hot-key-skew",
            arrival_pattern="poisson",
            num_requests=72,
            shards=6,
            seed=23,
        ),
        WorkloadConfig(
            name="service-dedup-smoke",
            graph_family="random",
            scale=30,
            query_mix="hot-key-skew",
            arrival_pattern="poisson",
            num_requests=36,
            shards=4,
            seed=23,
        ),
    )
}


def scenario_names() -> List[str]:
    """Every registered scenario name, sorted."""
    return sorted(REGISTRY)


def get_scenario(name: str) -> WorkloadConfig:
    """The frozen config registered under ``name`` (loud on unknown names)."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise WorkloadConfigError(
            f"unknown workload scenario {name!r} "
            f"(known: {', '.join(scenario_names())})"
        ) from None


def scaled(config: WorkloadConfig, **overrides: object) -> WorkloadConfig:
    """A copy of ``config`` with fields overridden (e.g. a smoke-sized run).

    Renames the scenario by suffixing the overridden fields unless an
    explicit ``name`` override is given, so realised artifacts stay
    attributable to their base scenario.
    """
    if "name" not in overrides:
        suffix = ".".join(
            f"{key}{value}" for key, value in sorted(overrides.items())
        )
        overrides = {**overrides, "name": f"{config.name}@{suffix}"}
    try:
        return replace(config, **overrides)  # type: ignore[arg-type]
    except TypeError as error:
        raise WorkloadConfigError(f"invalid override: {error}") from error


__all__ = [
    "ARRIVAL_PATTERNS",
    "GRAPH_FAMILIES",
    "QUERY_MIXES",
    "REGISTRY",
    "RealizedWorkload",
    "TimedRequest",
    "WorkloadConfig",
    "WorkloadConfigError",
    "get_scenario",
    "realise",
    "scaled",
    "scenario_names",
]
