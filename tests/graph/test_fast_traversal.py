"""The engine's traversal cache and the default core at the search layer.

:class:`~repro.graph.traversal_cache.TraversalCache` holds the compiled
CSR graph every default (``csr``) query runs on.  These tests reach the
compiled graph through the cache — distance rows, their bound, row
order, invalidation, a cache built for another graph — and check that
the search layer's *default* core answers exactly like the reference
core.  The module keeps its original name, from when it tested a
separate pruned core, so its test ids stay stable.
"""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.matching import match_keywords
from repro.core.search import SearchLimits, find_connections, find_joining_networks
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.graph.csr import csr_enumerate_simple_paths
from repro.graph.data_graph import DataGraph
from repro.graph.traversal import _sort_key, enumerate_simple_paths
from repro.graph.traversal_cache import TraversalCache
from repro.relational.database import TupleId


def tid(relation, *key):
    return TupleId(relation, tuple(key))


@pytest.fixture(scope="module")
def planted_synthetic():
    database = generate_company_like(
        SyntheticConfig(
            departments=4,
            projects_per_department=2,
            employees_per_department=5,
            works_on_per_employee=2,
            seed=29,
        )
    )
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 2, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 3, seed=2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION", 2, seed=3)
    return database


@pytest.fixture(scope="module")
def synthetic_graph(planted_synthetic):
    return DataGraph(planted_synthetic)


class TestSearchLayerParity:
    def test_find_connections_company(self, engine):
        matches = engine.match("Smith XML")
        limits = SearchLimits(max_rdb_length=4)
        default = list(find_connections(engine.data_graph, matches, limits))
        brute = list(
            find_connections(
                engine.data_graph, matches, limits, core="reference"
            )
        )
        assert [a.render() for a in default] == [a.render() for a in brute]

    def test_find_joining_networks_synthetic(self, planted_synthetic):
        engine = KeywordSearchEngine(planted_synthetic)
        matches = match_keywords(
            engine.index, ("kwalpha", "kwbeta", "kwgamma")
        )
        limits = SearchLimits(max_tuples=5)
        default = list(
            find_joining_networks(
                engine.data_graph, matches, limits, cache=engine.traversal_cache
            )
        )
        brute = list(
            find_joining_networks(
                engine.data_graph, matches, limits, core="reference"
            )
        )
        assert [(n.tuples, n.keyword_tuples) for n in default] == [
            (n.tuples, n.keyword_tuples) for n in brute
        ]

    def test_engine_results_identical(self, planted_synthetic):
        default = KeywordSearchEngine(planted_synthetic)
        brute = KeywordSearchEngine(planted_synthetic, core="reference")
        assert default.core == "csr"
        for query in ("kwalpha kwbeta", "kwbeta kwgamma", "kwalpha kwgamma"):
            limits = SearchLimits(max_rdb_length=5)
            default_results = default.search(query, limits=limits)
            brute_results = brute.search(query, limits=limits)
            assert [(r.render(), r.score, r.rank) for r in default_results] == [
                (r.render(), r.score, r.rank) for r in brute_results
            ]

    def test_engine_or_semantics_identical(self, company_db):
        default = KeywordSearchEngine(company_db)
        brute = KeywordSearchEngine(company_db, core="reference")
        default_results = default.search("Smith unicorn XML", semantics="or")
        brute_results = brute.search("Smith unicorn XML", semantics="or")
        assert [(r.render(), r.score) for r in default_results] == [
            (r.render(), r.score) for r in brute_results
        ]


class TestTraversalCache:
    def test_expansions_match_graph_order(self, data_graph):
        frozen = TraversalCache(data_graph).frozen()
        node = tid("DEPARTMENT", "d1")
        expected = sorted(
            (
                (other, key)
                for __, other, key in data_graph.graph.edges(node, keys=True)
            ),
            key=lambda item: (_sort_key(item[0]), item[1]),
        )
        row_t, row_k, __, start, end = frozen._row(frozen.node_of(node))
        got = [(frozen.tid_of(row_t[i]), row_k[i]) for i in range(start, end)]
        assert got == expected

    def test_invalidate_clears_everything(self, data_graph):
        cache = TraversalCache(data_graph)
        first = cache.frozen()
        first.distances(first.node_of(tid("EMPLOYEE", "e1")))
        cache.invalidate()
        assert cache._frozen is None
        # The next compilation starts with no distance rows of its own.
        second = cache.frozen()
        assert second is not first
        assert len(second._distances) == 0

    def test_distances_agree_with_networkx(self, synthetic_graph):
        import networkx as nx

        cache = TraversalCache(synthetic_graph)
        frozen = cache.frozen()
        node = sorted(synthetic_graph.graph.nodes, key=str)[0]
        row = frozen.distances(frozen.node_of(node))
        expected = nx.single_source_shortest_path_length(
            synthetic_graph.graph, node
        )
        assert {
            frozen.tid_of(i): row[i]
            for i in range(frozen.capacity)
            if row[i] <= synthetic_graph.number_of_nodes()
        } == expected
        assert (cache.hits, cache.misses) == (0, 1)

    def test_mismatched_cache_is_ignored(self, data_graph, planted_synthetic):
        # A cache built on a different graph must not poison answers.
        other_cache = TraversalCache(DataGraph(planted_synthetic))
        brute = list(
            enumerate_simple_paths(
                data_graph, tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1"), 3
            )
        )
        csr = list(
            csr_enumerate_simple_paths(
                data_graph,
                tid("DEPARTMENT", "d1"),
                tid("EMPLOYEE", "e1"),
                3,
                cache=other_cache,
            )
        )
        assert csr == brute
        assert other_cache.hits == 0 and other_cache.misses == 0
        assert other_cache.paths_enumerated == 0

    def test_distance_maps_are_bounded(self, synthetic_graph):
        cache = TraversalCache(synthetic_graph)
        frozen = cache.frozen()
        frozen.max_distance_maps = 3
        nodes = list(range(5))
        for node in nodes:
            frozen.distances(node)
        assert list(frozen._distances) == nodes[-3:]
        assert cache.misses == 5


class TestInvalidateTuples:
    """Whole-cache invalidation of the compiled graph."""

    def test_full_invalidate_drops_frozen_graph(self, data_graph):
        cache = TraversalCache(data_graph)
        first = cache.frozen()
        assert cache.frozen() is first
        cache.invalidate()
        assert cache._frozen is None
        assert cache.frozen() is not first
