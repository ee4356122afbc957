"""Outside-in span tracer for the benchmark's traced run.

The engine is never edited for measurement.  Instead, :func:`install`
replaces the public entry point of each layer (a module-level function
or a class attribute) with a wrapper that records one span per call:
name, start, end, parent span and query id.  Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines at the end of the run.

A layer's self time is its spans' duration minus the part covered by
their child spans, so the self times of every span under one benchmark
operation add up to that operation's traced duration.

Besides timing, two wrappers capture values the counters need and do so
whether or not timing is active: the plan estimates ``CostModel.annotate``
returns, and the ``ParallelSearcher`` whose transport counters a batch
moved.  Timing is off until :attr:`Tracer.active` is set, so a pool
worker forked while it is off never records spans.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        #: ``(index, name, start, end, parent_index, query_id)`` per span,
        #: appended when the span closes.  Tuples of atoms drop out of the
        #: garbage collector's tracking, so a long trace adds no GC work.
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, float]] = []
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []
        self.active = False
        self.query_id = 0
        self.last_estimates = None
        self.last_searcher = None

    # -- recording -------------------------------------------------------
    def enter(self) -> None:
        self._stack.append((self._next, time.perf_counter()))
        self._next += 1

    def exit(self, name: str) -> None:
        end = time.perf_counter()
        index, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((index, name, start, end, parent, self.query_id))

    def timed(self, name: str, func):
        """``func`` with one span recorded per call while active."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            self.enter()
            try:
                return func(*args, **kwargs)
            finally:
                self.exit(name)

        return wrapper

    def timed_generator(self, name: str, func):
        """``func`` returning an iterator whose every ``next()`` is a span."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return _TimedIterator(self, name, func(*args, **kwargs))

        return wrapper

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (self seconds, inclusive seconds, calls)."""
        covered: dict[int, float] = {}
        for __, ___, start, end, parent, ____ in self.spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + end - start
        totals: dict[str, list] = {}
        for index, name, start, end, __, ___ in self.spans:
            entry = totals.setdefault(name, [0.0, 0.0, 0])
            entry[0] += end - start - covered.get(index, 0.0)
            entry[1] += end - start
            entry[2] += 1
        return {name: tuple(entry) for name, entry in totals.items()}

    def write(self, path) -> None:
        """Dump the spans as JSON lines, in the order they opened."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, name, start, end, parent, query_id in sorted(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "query": query_id,
                        }
                    )
                )
                handle.write("\n")


class _TimedIterator:
    __slots__ = ("_tracer", "_name", "_source")

    def __init__(self, tracer: Tracer, name: str, source) -> None:
        self._tracer = tracer
        self._name = name
        self._source = iter(source)

    def __iter__(self):
        return self

    def __next__(self):
        if not self._tracer.active:
            return next(self._source)
        self._tracer.enter()
        try:
            return next(self._source)
        finally:
            self._tracer.exit(self._name)

    def close(self) -> None:
        close = getattr(self._source, "close", None)
        if close is not None:
            close()


def install() -> Tracer:
    """Wrap each layer's public entry point; returns the shared tracer."""
    from repro.core import engine as engine_module
    from repro.core import executor as executor_module
    from repro.core import search as search_module
    from repro.core.connections import Connection
    from repro.core.ranking import ClosenessRanker
    from repro.core.search import JoiningNetwork
    from repro.durable.wal import WriteAheadLog
    from repro.graph.csr import FrozenGraph
    from repro.live.result_cache import ResultCache
    from repro.planner import dispatch as dispatch_module
    from repro.planner.cost import CostModel
    from repro.scale import parallel as parallel_module

    tracer = Tracer()
    engine_cls = engine_module.KeywordSearchEngine

    def method(cls, attribute: str, name: str) -> None:
        tracer.patch(cls, attribute, tracer.timed(name, cls.__dict__[attribute]))

    def function(module, attribute: str, name: str) -> None:
        tracer.patch(module, attribute, tracer.timed(name, getattr(module, attribute)))

    function(engine_module, "match_keywords", "matching")
    function(engine_module, "plan_query", "plan")
    function(engine_module, "apply_changeset", "live.apply")
    method(FrozenGraph, "distances_block", "csr.prefetch")
    for module in (executor_module, search_module):
        for attribute in ("csr_enumerate_simple_paths", "csr_enumerate_joining_trees"):
            tracer.patch(
                module,
                attribute,
                tracer.timed_generator("csr.kernel", getattr(module, attribute)),
            )
    method(Connection, "__init__", "connections.materialise")
    method(JoiningNetwork, "__init__", "connections.materialise")
    method(ClosenessRanker, "score", "ranking.score")
    method(ResultCache, "lookup", "result_cache")
    method(ResultCache, "store", "result_cache")
    method(WriteAheadLog, "append", "wal.append")
    method(engine_cls, "query_cost", "planner.route")
    function(dispatch_module, "route_by_cost", "planner.route")
    function(parallel_module, "revive_result", "parallel.revive")

    open_func = engine_cls.__dict__["open"].__func__
    tracer.patch(engine_cls, "open", classmethod(tracer.timed("snapshot.open", open_func)))

    annotate = tracer.timed("plan", CostModel.__dict__["annotate"])

    def capture_annotate(self, plan):
        annotated = annotate(self, plan)
        tracer.last_estimates = annotated.estimates
        return annotated

    tracer.patch(CostModel, "annotate", capture_annotate)

    run = tracer.timed("parallel.run", parallel_module.ParallelSearcher.__dict__["run"])

    def capture_run(self, *args, **kwargs):
        tracer.last_searcher = self
        return run(self, *args, **kwargs)

    tracer.patch(parallel_module.ParallelSearcher, "run", capture_run)
    return tracer
