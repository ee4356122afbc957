"""Lazy top-k search with early termination (legacy two-keyword API).

Full enumeration (``find_connections``) materialises every connection up
to the length bound and sorts afterwards — fine for reproduction tests,
wasteful when only the best ``k`` answers matter.  This module's
ranker-lower-bound trick —

    For :class:`~repro.core.ranking.RdbLengthRanker`,
    :class:`~repro.core.ranking.ErLengthRanker` and
    :class:`~repro.core.ranking.ClosenessRanker`, the score of an answer
    is bounded below by a function of its RDB length alone — a path with
    more FK edges can never score better than ``lower_bound(edges)``

— now lives in the query pipeline, generalised to every plan shape:
:func:`~repro.core.plan.lower_bound_for` is the bound table and
:class:`~repro.core.executor.Executor` applies it to pair paths, joining
networks and OR coverage ordering alike.  :func:`top_k_connections` is
kept as the paper-shaped two-keyword entry point and simply compiles to
a single-source plan (pair paths, no single tuples) with a top-k cut;
the result provably equals "enumerate everything, sort, cut at k"
(tested against it).

Enumeration runs on the compiled ``csr`` core by default and can share
the engine's :class:`~repro.graph.traversal_cache.TraversalCache`;
``core="reference"`` is the brute-force escape hatch.  Rankers
without a registered bound (instance ambiguity, combined content
scores) fall back to full enumeration — correctness over speed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.connections import Connection
from repro.core.executor import Executor
from repro.core.matching import KeywordMatch
from repro.core.plan import Cut, Merge, PairPaths, QueryPlan, lower_bound_for
from repro.core.ranking import Ranker
from repro.core.search import SearchLimits
from repro.errors import QueryError
from repro.graph.data_graph import DataGraph
from repro.graph.traversal_cache import TraversalCache

__all__ = ["lower_bound_for", "top_k_connections"]


def top_k_connections(
    data_graph: DataGraph,
    matches: Sequence[KeywordMatch],
    ranker: Ranker,
    k: int,
    limits: SearchLimits = SearchLimits(),
    *,
    core: Optional[str] = None,
    cache: Optional[TraversalCache] = None,
) -> list[tuple[Connection, tuple[float, ...]]]:
    """The best ``k`` connections under ``ranker``, with early termination.

    Equivalent to fully enumerating and sorting (same answers, same order)
    but stops once no unseen path can improve the current top-k.  Two
    keywords only — the paper's query shape; the engine's pipeline serves
    every other shape through the same executor.

    Pass the engine's ``cache`` to reuse its compiled graph across calls;
    ``core="reference"`` enumerates through the brute-force networkx
    core instead (identical answers, no pruning).
    """
    if len(matches) != 2:
        raise QueryError(
            "top_k_connections needs exactly two keywords",
            keywords=[m.keyword for m in matches],
        )
    if k <= 0:
        return []
    if any(match.is_empty for match in matches):
        return []

    matches = tuple(matches)
    plan = QueryPlan(
        keywords=tuple(match.keyword for match in matches),
        semantics="and",
        matches=matches,
        sources=(PairPaths(0, 1, include_single_tuples=False),),
        merge=Merge(coverage_major=False),
        cut=Cut(k),
    )
    executor = Executor(data_graph, core=core, cache=cache)
    return [
        (result.answer, result.score)
        for result in executor.run(plan, ranker, limits)
    ]
