"""Incremental maintainers equal a full rebuild, structure by structure."""

from repro.graph.data_graph import DataGraph
from repro.graph.traversal_cache import TraversalCache
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.live.maintain import (
    affected_tuples,
    apply_changeset,
    apply_to_traversal_cache,
)
from repro.relational.database import TupleId
from repro.relational.index import InvertedIndex


def tid(relation, *key):
    return TupleId(relation, tuple(key))


def graph_signature(data_graph):
    graph = data_graph.graph
    nodes = sorted((str(n), data["relation"]) for n, data in graph.nodes(data=True))
    edges = sorted(
        (str(u), str(v), key, data["foreign_key"].name, str(data["referencing"]))
        for u, v, key, data in graph.edges(keys=True, data=True)
    )
    return nodes, edges


def index_signature(index):
    return {
        token: list(index.postings(token)) for token in index.vocabulary()
    }


BATCH = [
    Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"}),
    Update(tid("DEPARTMENT", "d2"), {"D_DESCRIPTION": "Quantum projects"}),
    Update(tid("DEPENDENT", "t2"), {"ESSN": "e1"}),
    Delete(tid("DEPENDENT", "t1")),
]


class TestMaintainers:
    def test_index_equals_fresh_build(self, company_db):
        index = InvertedIndex(company_db)
        changeset = apply_to_database(company_db, BATCH)
        apply_changeset(changeset, company_db, index=index)
        assert index_signature(index) == index_signature(
            InvertedIndex(company_db)
        )

    def test_index_after_delete_reinsert_equals_fresh_build(self, company_db):
        # A replace moves the tuple to the relation's store tail; its
        # posting position must follow (posting order included).
        index = InvertedIndex(company_db)
        changeset = apply_to_database(
            company_db,
            [
                Delete(tid("DEPENDENT", "t1")),
                Insert("DEPENDENT", {"ID": "t1", "ESSN": "e2",
                                     "DEPENDENT_NAME": "Renamed"}),
            ],
        )
        assert changeset.tuples_replaced == (tid("DEPENDENT", "t1"),)
        apply_changeset(changeset, company_db, index=index)
        assert index_signature(index) == index_signature(
            InvertedIndex(company_db)
        )

    def test_graph_equals_fresh_build(self, company_db):
        data_graph = DataGraph(company_db)
        changeset = apply_to_database(company_db, BATCH)
        apply_changeset(changeset, company_db, data_graph=data_graph)
        assert graph_signature(data_graph) == graph_signature(
            DataGraph(company_db)
        )

    def test_conceptual_view_patched_not_stale(self, company_db):
        data_graph = DataGraph(company_db)
        stale = data_graph.conceptual_graph()
        changeset = apply_to_database(
            company_db,
            [Insert("WORKS_FOR",
                    {"ESSN": "e3", "P_ID": "p1", "HOURS": 5})],
        )
        apply_changeset(changeset, company_db, data_graph=data_graph)
        fresh = data_graph.conceptual_graph()
        assert fresh is not stale
        assert fresh.has_edge(tid("EMPLOYEE", "e3"), tid("PROJECT", "p1"))


class TestTraversalCacheInvalidation:
    """The cache's compiled graph is patched, dropping only stale rows."""

    def test_only_touched_component_maps_drop(self, company_db):
        # Add an isolated department: its component is separate from the
        # main one, so its distance row must survive mutations elsewhere.
        company_db.insert("DEPARTMENT", {"ID": "d9", "D_NAME": "isolated"})
        data_graph = DataGraph(company_db)
        cache = TraversalCache(data_graph)
        frozen = cache.frozen()
        isolated = frozen.node_of(tid("DEPARTMENT", "d9"))
        connected = frozen.node_of(tid("EMPLOYEE", "e1"))
        frozen.distances(isolated)
        frozen.distances(connected)
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT",
                    {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"})],
        )
        apply_changeset(changeset, company_db, data_graph=data_graph)
        apply_to_traversal_cache(cache, changeset)
        assert cache.frozen() is frozen  # patched, not recompiled
        cache.hits = cache.misses = 0
        frozen.distances(isolated)
        assert cache.hits == 1 and cache.misses == 0
        frozen.distances(connected)
        assert cache.misses == 1

    def test_value_only_update_keeps_every_map(self, company_db):
        data_graph = DataGraph(company_db)
        cache = TraversalCache(data_graph)
        frozen = cache.frozen()
        node = frozen.node_of(tid("EMPLOYEE", "e1"))
        frozen.distances(node)
        neighbours = frozen.neighbour_ints(node)
        changeset = apply_to_database(
            company_db,
            [Update(tid("DEPARTMENT", "d1"), {"D_DESCRIPTION": "robotics"})],
        )
        apply_changeset(changeset, company_db, data_graph=data_graph)
        apply_to_traversal_cache(cache, changeset)
        cache.hits = cache.misses = 0
        frozen.distances(node)
        assert cache.hits == 1 and cache.misses == 0
        assert frozen.neighbour_ints(node) is neighbours

    def test_adjacency_dropped_for_endpoints_only(self, company_db):
        data_graph = DataGraph(company_db)
        cache = TraversalCache(data_graph)
        frozen = cache.frozen()
        e1 = frozen.node_of(tid("EMPLOYEE", "e1"))
        e3 = frozen.node_of(tid("EMPLOYEE", "e3"))
        frozen.neighbour_ints(e1)
        e3_neighbours = frozen.neighbour_ints(e3)
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT",
                    {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"})],
        )
        apply_changeset(
            changeset, company_db, data_graph=data_graph, traversal_cache=cache
        )
        assert frozen.neighbour_ints(e3) is e3_neighbours
        # The re-derived row of the edge endpoint sees the new edge.
        others = [frozen.tid_of(other) for other in frozen.neighbour_ints(e1)]
        assert tid("DEPENDENT", "t9") in others


class TestAffectedTuples:
    def test_structural_change_taints_whole_component(self, company_db):
        data_graph = DataGraph(company_db)
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT",
                    {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"})],
        )
        apply_changeset(changeset, company_db, data_graph=data_graph)
        affected = affected_tuples(data_graph, changeset)
        # Everything is one component in the running example.
        assert tid("DEPARTMENT", "d2") in affected
        assert tid("DEPENDENT", "t9") in affected

    def test_value_update_taints_only_the_tuple(self, company_db):
        data_graph = DataGraph(company_db)
        changeset = apply_to_database(
            company_db,
            [Update(tid("DEPARTMENT", "d1"), {"D_DESCRIPTION": "robotics"})],
        )
        apply_changeset(changeset, company_db, data_graph=data_graph)
        affected = affected_tuples(data_graph, changeset)
        assert affected == frozenset({tid("DEPARTMENT", "d1")})

    def test_removed_tuple_still_reported_affected(self, company_db):
        data_graph = DataGraph(company_db)
        changeset = apply_to_database(
            company_db, [Delete(tid("DEPENDENT", "t1"))]
        )
        apply_changeset(changeset, company_db, data_graph=data_graph)
        affected = affected_tuples(data_graph, changeset)
        assert tid("DEPENDENT", "t1") in affected
        assert tid("EMPLOYEE", "e3") in affected
