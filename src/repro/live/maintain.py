"""Incremental maintainers: patch derived structures from a changeset.

Given the :class:`~repro.live.changes.ChangeSet` of an applied batch,
these functions bring each derived structure of an engine up to date *in
place* instead of rebuilding it:

* :func:`apply_to_index` — drops postings of removed/updated tuples and
  (re-)indexes updated/added ones through the inverted index's
  incremental hooks; posting order stays identical to a fresh build.
* :func:`apply_to_graph` — removes/adds nodes and FK edges on the data
  graph exactly as construction would, and (via the patch methods)
  invalidates the cached conceptual view and bumps the graph version.
* :func:`apply_to_traversal_cache` — patches the compiled CSR graph in
  place; only distance rows of touched connected components drop.

:func:`affected_tuples` computes the invalidation frontier for the
answer cache: structural changes (node/edge add/remove) taint their
whole connected component — a new edge can create or shorten paths
anywhere in it — while value-only updates taint just the updated tuple,
whose effect is confined to answers containing it (match-set changes are
caught separately by the cache's keyword fingerprints).
"""

from __future__ import annotations

from repro.graph.data_graph import DataGraph
from repro.graph.traversal_cache import TraversalCache
from repro.live.changes import ChangeSet
from repro.relational.database import Database, TupleId
from repro.relational.index import InvertedIndex

__all__ = [
    "apply_to_index",
    "apply_to_graph",
    "apply_to_traversal_cache",
    "apply_to_shard_plan",
    "affected_tuples",
    "apply_changeset",
]


def apply_to_index(
    index: InvertedIndex, database: Database, changeset: ChangeSet
) -> None:
    """Patch the inverted index in place from a changeset."""
    for tid in changeset.tuples_removed:
        index.remove_tuple(tid)
    for tid in changeset.tuples_updated:
        # In-place value update: the store position is unchanged, so the
        # posting position survives the remove/re-add without a scan.
        index.reindex_tuple(database.tuple(tid))
    for tid in changeset.tuples_replaced:
        # Delete-then-reinsert: the tuple moved to the relation tail, so
        # its posting position must be re-derived.
        index.remove_tuple(tid)
        index.add_tuple(database.tuple(tid))
    for tid in changeset.tuples_added:
        index.add_tuple(database.tuple(tid))


def apply_to_graph(
    data_graph: DataGraph, database: Database, changeset: ChangeSet
) -> None:
    """Patch the data graph in place from a changeset.

    Edges are removed before their endpoints disappear and added after
    both endpoints exist, so the graph never holds a dangling edge.
    """
    for edge in changeset.edges_removed:
        data_graph.remove_fk_edge(
            edge.referencing, edge.referenced, edge.foreign_key.name
        )
    for tid in changeset.tuples_removed:
        data_graph.remove_tuple_node(tid)
    for tid in changeset.tuples_added:
        data_graph.add_tuple_node(database.tuple(tid))
    for edge in changeset.edges_added:
        data_graph.add_fk_edge(edge.referencing, edge.referenced, edge.foreign_key)


def apply_to_traversal_cache(cache: TraversalCache, changeset: ChangeSet) -> None:
    """Patch the traversal cache's compiled graph for one batch.

    The compiled CSR graph, when built, is *patched* in place from the
    changeset's edge deltas (tombstone / append / per-row rebuild)
    rather than recompiled; only distance rows of touched components
    drop, and value-only updates leave every row valid.  Run this after
    :func:`apply_to_graph`, since the patched rows are re-read from the
    updated data graph.
    """
    cache.apply_changeset(changeset)


def apply_to_shard_plan(shard_plan, changeset: ChangeSet) -> None:
    """Re-route only the shards a changeset touched.

    Shard assignment is a pure function of connected components, so
    value-only updates change nothing; structural changes reassign
    exactly the affected components (a merged component keeps its lowest
    previous shard, a brand-new one lands on the lightest) and drop only
    the touched shards' extracted graphs.  Run after
    :func:`apply_to_traversal_cache` — the plan reads the *patched*
    compiled graph's components.
    """
    shard_plan.apply_changeset(changeset)


def affected_tuples(
    data_graph: DataGraph, changeset: ChangeSet
) -> frozenset[TupleId]:
    """Tuples whose cached answers a changeset may have invalidated.

    Structural seeds (added/removed tuples, endpoints of added/removed
    edges) expand to their full connected components in the *patched*
    graph — removed nodes seed their former neighbours through the
    removed-edge endpoints, so split-off components are covered too.
    Value-only updated tuples join the set without expansion.
    """
    structural = changeset.structural_tuples()
    affected = set(structural)
    affected.update(changeset.tuples_updated)
    affected.update(changeset.tuples_replaced)
    graph = data_graph.graph
    stack = [tid for tid in structural if tid in graph]
    while stack:
        node = stack.pop()
        for other in graph.neighbors(node):
            if other not in affected:
                affected.add(other)
                stack.append(other)
    return frozenset(affected)


def apply_changeset(
    changeset: ChangeSet,
    database: Database,
    index: InvertedIndex | None = None,
    data_graph: DataGraph | None = None,
    traversal_cache: TraversalCache | None = None,
    shard_plan=None,
) -> None:
    """Apply one changeset to whichever derived structures are given.

    Order matters: the graph is patched before the traversal cache
    (patched CSR rows re-read it) and the shard plan last (it reads the
    patched compiled graph's components).
    """
    if index is not None:
        apply_to_index(index, database, changeset)
    if data_graph is not None:
        apply_to_graph(data_graph, database, changeset)
    if traversal_cache is not None:
        apply_to_traversal_cache(traversal_cache, changeset)
    if shard_plan is not None:
        apply_to_shard_plan(shard_plan, changeset)
