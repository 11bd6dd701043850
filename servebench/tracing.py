"""Spans recorded from outside the program, by patching its layer entry points.

:class:`Tracer` replaces each entry point named in :data:`ENTRY_POINTS` with
a wrapper, at the place its caller looks the name up (a class attribute, or
the module global a caller imported), and restores the originals on
:meth:`Tracer.uninstall`.  Every call records a span: id, layer, start, end,
busy time, parent span, request id and evaluation id.  A layer's self time
is its busy time minus the busy time of its child spans; a generator's busy
time is the time spent inside its resumptions.

Spans of one evaluation share an evaluation id.  The id is handed out when
the broker admits a request without deduplicating it, and a deduplicated
request is linked to the evaluation it attached to, so every request span
names the evaluation that answered it.  Spans live in memory until
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.engine.bounded
import repro.engine.crpq
import repro.engine.engine
import repro.engine.simple
import repro.engine.vsf
import repro.graphdb.storage
import repro.service.registry
import repro.service.service
import repro.service.workers
from repro.graphdb.cache import LazyRelation, ReachabilityIndex, SynchronisationProduct
from repro.service.broker import QueryBroker
from repro.service.registry import DatabaseRegistry
from repro.service.requests import QueryRequest, QuerySpec, ServiceResult

#: ``(owner, attribute, layer, counter)``: the owner is the class or module
#: the caller looks the attribute up on; ``counter`` (optional) counts calls
#: (or, for generators, yielded items) under its own name.
ENTRY_POINTS: Tuple[Tuple[Any, str, str, Optional[str]], ...] = (
    (QueryRequest, "from_json", "requests.parse", None),
    (QuerySpec, "to_query", "requests.parse", None),
    (ServiceResult, "to_json", "requests.serialise", None),
    (repro.service.service, "can_evaluate", "engine.classify", None),
    (repro.service.workers, "evaluate", "engine.evaluate", "engine.evaluations"),
    (repro.engine.vsf, "normal_form", "normal_form", "normal_form.calls"),
    (repro.engine.vsf, "evaluate_simple_components", "vsf", "vsf.combinations"),
    (repro.engine.engine, "evaluate_bounded", "bounded", None),
    (repro.engine.bounded, "instantiate_query", "bounded", "bounded.instantiations"),
    (repro.engine.crpq, "join_morphisms", "joins", "joins.morphisms"),
    (repro.engine.simple, "join_morphisms", "joins", "joins.morphisms"),
    (ReachabilityIndex, "relation", "relations", None),
    (LazyRelation, "targets_of", "relations", "relations.row_calls"),
    (LazyRelation, "sources_of", "relations", "relations.row_calls"),
    (LazyRelation, "__contains__", "relations", None),
    (LazyRelation, "pairs", "relations", None),
    (ReachabilityIndex, "group_product", "sync", None),
    (SynchronisationProduct, "shortest_word", "sync", "sync.calls"),
    (repro.graphdb.storage, "save_snapshot", "storage.compact", "storage.compact.calls"),
    (repro.service.registry, "load_database", "storage.load", "storage.load.calls"),
    (repro.graphdb.storage, "append_delta", "delta.append", "delta.append.calls"),
    (DatabaseRegistry, "begin_refresh", "registry.refresh", "registry.refresh.calls"),
    (DatabaseRegistry, "swap", "registry.swap", "registry.swap.calls"),
)

#: Entry points that are generator functions: their span covers every
#: resumption, and their counter counts the items they yield.
GENERATORS = {"joins"}


class Span:
    """One call of one layer entry point (or every resumption of one generator)."""

    __slots__ = (
        "span", "layer", "counter", "parent", "start", "end", "busy", "child",
        "request", "evaluation", "items",
    )

    def __init__(self, span: int, layer: str, counter: Optional[str], parent: Optional["Span"]) -> None:
        self.span = span
        self.layer = layer
        self.counter = counter
        self.parent = parent
        self.start = self.end = self.busy = self.child = 0.0
        self.request = parent.request if parent is not None else -1
        self.evaluation = parent.evaluation if parent is not None else -1
        self.items = 1


class Tracer:
    """Patches the layer entry points and keeps one :class:`Span` per call.

    The hot path only links and appends span objects (``list.append`` is
    atomic, so worker threads need no lock); :meth:`aggregate` totals self
    times and counts afterwards.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._evaluations = itertools.count(1)
        self._current: ContextVar[Optional[Span]] = ContextVar("servebench_span", default=None)
        self._originals: List[Tuple[Any, str, Any]] = []
        # id(query) -> evaluation id; the query objects are kept alive so
        # an id is never reused while the tracer can still look it up.
        self._evaluation_of: Dict[int, int] = {}
        self._queries: List[Any] = []

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            return
        for owner, attribute, layer, counter in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                patched: Any = classmethod(self._wrap(original.__func__, layer, counter))
            elif isinstance(original, property):
                patched = property(self._wrap(original.fget, layer, counter))
            elif layer in GENERATORS:
                patched = self._wrap_generator(original, layer, counter)
            elif layer == "engine.evaluate":
                patched = self._wrap_evaluation(original, layer, counter)
            else:
                patched = self._wrap(original, layer, counter)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, patched)
        original_submit = QueryBroker.__dict__["submit"]
        self._originals.append((QueryBroker, "submit", original_submit))
        setattr(QueryBroker, "submit", self._wrap_admission(original_submit))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals = []

    # -- span bookkeeping -----------------------------------------------------------

    def _open(self, layer: str, counter: Optional[str]) -> Tuple[Span, Any]:
        span = Span(next(self._ids), layer, counter, self._current.get())
        return span, self._current.set(span)

    def _close(self, span: Span, start: float, end: float, busy: float) -> None:
        span.start, span.end, span.busy = start, end, busy
        if span.parent is not None:
            span.parent.child += busy
        self.spans.append(span)

    def _wrap(self, function: Callable, layer: str, counter: Optional[str]) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            span, token = self._open(layer, counter)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                self._close(span, start, end, end - start)

        return traced

    def _wrap_evaluation(self, function: Callable, layer: str, counter: Optional[str]) -> Callable:
        def traced(query: Any, *args: Any, **kwargs: Any) -> Any:
            span, token = self._open(layer, counter)
            span.evaluation = self._evaluation_of.get(id(query), -1)
            start = time.perf_counter()
            try:
                return function(query, *args, **kwargs)
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                self._close(span, start, end, end - start)

        return traced

    def _wrap_generator(self, function: Callable, layer: str, counter: Optional[str]) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            span = Span(next(self._ids), layer, counter, self._current.get())
            span.items = 0
            inner = function(*args, **kwargs)
            first: Optional[float] = None
            last = 0.0
            busy = 0.0
            try:
                while True:
                    start = time.perf_counter()
                    if first is None:
                        first = start
                    token = self._current.set(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._current.reset(token)
                        last = time.perf_counter()
                        busy += last - start
                    span.items += 1
                    yield item
            finally:
                inner.close()
                self._close(span, first if first is not None else last, last, busy)

        return traced

    def _wrap_admission(self, function: Callable) -> Callable:
        def traced(broker: Any, request: Any, entry: Any, query: Any, **kwargs: Any) -> Any:
            ticket, deduplicated = function(broker, request, entry, query, **kwargs)
            if deduplicated:
                evaluation = self._evaluation_of.get(id(ticket.query), -1)
            else:
                evaluation = next(self._evaluations)
                self._evaluation_of[id(ticket.query)] = evaluation
                self._queries.append(ticket.query)
            span = self._current.get()
            while span is not None and span.layer != "request":
                span = span.parent
            if span is not None:
                span.evaluation = evaluation
            return ticket, deduplicated

        return traced

    @contextmanager
    def request(self, index: int) -> Iterator[None]:
        """The root span of one request, from its send to its serialised envelope."""
        span, token = self._open("request", None)
        span.request = index
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self._close(span, start, end, end - start)

    # -- results --------------------------------------------------------------------

    def aggregate(self, first: int = 0, last: Optional[int] = None) -> Tuple[Counter, Counter]:
        """Self seconds per layer and totals per counter, over ``spans[first:last]``.

        A request span's own time is waiting, not work, so it is left out.
        """
        self_s: Counter = Counter()
        counts: Counter = Counter()
        for span in self.spans[first:last]:
            if span.layer != "request":
                self_s[span.layer] += span.busy - span.child
            if span.counter is not None:
                counts[span.counter] += span.items
        return self_s, counts

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line (header first)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tlayer\tstart_s\tend_s\tbusy_s\tparent\trequest\tevaluation\n")
            handle.writelines(
                f"{span.span}\t{span.layer}\t{span.start:.6f}\t{span.end:.6f}\t{span.busy:.6f}\t"
                f"{span.parent.span if span.parent is not None else 0}\t{span.request}\t{span.evaluation}\n"
                for span in list(self.spans)
            )
