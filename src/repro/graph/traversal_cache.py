"""Engine-owned traversal state shared across queries.

One :class:`TraversalCache` is owned by
:class:`~repro.core.engine.KeywordSearchEngine` and dropped by
``rebuild()``.  It holds the compiled
:class:`~repro.graph.csr.FrozenGraph` every ``csr`` query runs on, and
the counters benchmarks read to observe distance-row reuse and
enumeration volume.  The cache never observes database mutations on its
own: callers either rebuild, or route mutations through
``engine.apply`` — the live-update subsystem (:mod:`repro.live`) then
calls :meth:`TraversalCache.apply_changeset`, which patches the
compiled graph in place.

:class:`SharedStream` is the fan-out the executor's plan sharing builds
on: one enumeration, many consumers.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.data_graph import DataGraph
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["SharedStream", "TraversalCache"]


class SharedStream:
    """Fan one single-pass enumeration out to many consumers.

    Wraps a generator factory; the generator is started lazily on first
    demand and advanced only as far as the furthest consumer has read.
    Every consumer replays the buffered prefix in order, so interleaved
    readers (several queries of a batch walking the same enumeration
    sub-plan) each see the full stream while the underlying enumeration
    runs **once**.  A consumer that stops early (top-k pushdown) leaves
    the stream partially materialised; a later consumer extends it.

    Budget errors are part of the stream: if the source raises (e.g.
    :class:`~repro.errors.SearchLimitError`), the exception is recorded
    after the items already produced and re-raised at the same position
    for every consumer — sharing never changes what any one consumer
    observes.
    """

    __slots__ = (
        "_factory",
        "_source",
        "_buffer",
        "_error",
        "_exhausted",
        "consumers",
    )

    def __init__(self, factory) -> None:
        self._factory = factory
        self._source = None
        self._buffer: list = []
        self._error: Optional[BaseException] = None
        self._exhausted = False
        #: Consumers served so far (observability for benchmarks).
        self.consumers = 0

    @property
    def produced(self) -> int:
        """Items materialised from the underlying enumeration so far."""
        return len(self._buffer)

    def _advance(self) -> bool:
        """Pull one more item from the source; False when finished."""
        if self._exhausted:
            if self._error is not None:
                raise self._error
            return False
        if self._source is None:
            self._source = self._factory()
        try:
            self._buffer.append(next(self._source))
        except StopIteration:
            self._exhausted = True
            self._source = None
            return False
        except BaseException as error:  # replayed for every consumer
            self._exhausted = True
            self._source = None
            self._error = error
            raise
        return True

    def __iter__(self):
        self.consumers += 1
        position = 0
        while True:
            if position < len(self._buffer):
                yield self._buffer[position]
                position += 1
                continue
            if not self._advance():
                return


class TraversalCache:
    """The compiled graph of one :class:`DataGraph`, plus shared counters.

    The compiled graph is built lazily and stays valid exactly as long
    as the data graph does.  ``invalidate()`` drops it; the engine
    replaces the whole cache on ``rebuild()``.  ``hits`` / ``misses``
    count distance-row lookups (the compiled graph records them here),
    ``paths_enumerated`` / ``trees_enumerated`` count kernel output.
    """

    def __init__(
        self, data_graph: DataGraph, vector: Optional[bool] = None
    ) -> None:
        self.data_graph = data_graph
        #: Vector-backend override threaded into the compiled CSR graph
        #: (``None`` = import-time default, ``False`` = force stdlib).
        self.vector = vector
        self._frozen = None
        self.hits = 0
        self.misses = 0
        #: Enumeration counters: paths / joining trees yielded through this
        #: cache.  Benchmarks compare them between pushdown and full runs
        #: to observe how much enumeration early termination skipped.
        self.paths_enumerated = 0
        self.trees_enumerated = 0

    def invalidate(self) -> None:
        """Drop the compiled graph (call after graph changes)."""
        self._frozen = None

    def frozen(self):
        """The compiled :class:`~repro.graph.csr.FrozenGraph` of this
        cache's data graph, built lazily on first demand.

        The CSR kernels run on it; it lives here so one compilation is
        shared by every query, batch and stream the engine answers, and
        so the live-update path (:meth:`apply_changeset`) can patch it
        in place instead of recompiling.
        """
        if self._frozen is None:
            from repro.graph.csr import FrozenGraph

            with obs_trace.span("csr.compile") as compile_span:
                self._frozen = FrozenGraph(
                    self.data_graph, counters=self, vector=self.vector
                )
                if compile_span is not None:
                    compile_span.tag(backend=self._frozen.backend_name)
            if obs_metrics.ENABLED:
                obs_metrics.REGISTRY.inc("csr.compiles")
        return self._frozen

    def apply_changeset(self, changeset) -> None:
        """Bring the cache up to date with one applied changeset.

        The compiled graph, when built, is *patched* in place
        (tombstone/append + row rebuild) so the next query pays no
        recompilation; an unbuilt one compiles from the patched data
        graph on first demand.
        """
        if self._frozen is not None:
            self._frozen.apply_changeset(changeset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraversalCache(frozen={self._frozen is not None}, "
            f"hits={self.hits}, misses={self.misses})"
        )
