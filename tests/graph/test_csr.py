"""Differential tests: the compiled CSR kernel vs the reference core.

The CSR core's contract is bit-identical output to the brute-force
reference — same paths and trees, same order, same budget errors — plus
one more obligation: an incrementally *patched* ``FrozenGraph`` must
answer exactly like a freshly compiled one.
"""

import itertools

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.matching import match_keywords
from repro.core.search import SearchLimits, find_connections, find_joining_networks
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.errors import QueryError, SearchLimitError
from repro.graph.csr import (
    CORES,
    FrozenGraph,
    csr_enumerate_joining_trees,
    csr_enumerate_simple_paths,
    resolve_core,
)
from repro.graph.data_graph import DataGraph
from repro.graph.traversal import (
    _sort_key,
    enumerate_joining_trees,
    enumerate_simple_paths,
)
from repro.graph.traversal_cache import TraversalCache
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.live.maintain import apply_changeset
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


class TestResolveCore:
    def test_defaults(self):
        assert CORES == ("csr", "reference")
        assert resolve_core() == "csr"
        for core in CORES:
            assert resolve_core(core=core) == core

    def test_unknown_core_rejected(self):
        for core in ("turbo", "fast"):
            with pytest.raises(QueryError) as error:
                resolve_core(core=core)
            assert error.value.context["expected"] == ["csr", "reference"]


class TestFrozenStructure:
    def test_interning_is_sort_key_dense(self, data_graph):
        frozen = FrozenGraph(data_graph)
        tids = sorted(data_graph.graph.nodes, key=_sort_key)
        assert frozen.capacity == len(tids)
        assert frozen.live_count() == len(tids)
        assert [frozen.node_of(t) for t in tids] == list(range(len(tids)))
        assert [frozen.tid_of(i) for i in range(len(tids))] == tids

    def test_csr_arrays_consistent(self, data_graph):
        frozen = FrozenGraph(data_graph)
        assert len(frozen._offsets) == frozen.capacity + 1
        assert frozen._offsets[-1] == len(frozen._targets)
        # Every stored edge appears once per endpoint (undirected).
        assert len(frozen._targets) == 2 * data_graph.number_of_edges()
        assert len(frozen._edge_keys) == len(frozen._targets)
        assert len(frozen._edge_data) == len(frozen._targets)
        assert frozen.nbytes() > 0

    def test_rows_sorted_in_expansion_order(self, data_graph):
        frozen = FrozenGraph(data_graph)
        for node in range(frozen.capacity):
            row_t, row_k, __, start, end = frozen._row(node)
            entries = [
                (_sort_key(frozen.tid_of(row_t[i])), row_k[i])
                for i in range(start, end)
            ]
            assert entries == sorted(entries)

    def test_distances_agree_with_networkx(self, synthetic_graph):
        import networkx as nx

        frozen = FrozenGraph(synthetic_graph)
        node = sorted(synthetic_graph.graph.nodes, key=str)[0]
        source = frozen.node_of(node)
        row = frozen.distances(source)
        expected = nx.single_source_shortest_path_length(
            synthetic_graph.graph, node
        )
        for other, distance in expected.items():
            assert row[frozen.node_of(other)] == distance
        unreachable = [
            i for i in range(frozen.capacity)
            if frozen.tid_of(i) not in expected
        ]
        for i in unreachable:
            assert row[i] > synthetic_graph.number_of_nodes()

    def test_components_partition_reachability(self, data_graph):
        import networkx as nx

        frozen = FrozenGraph(data_graph)
        labels = frozen.components()
        for component in nx.connected_components(nx.Graph(data_graph.graph)):
            ints = {frozen.node_of(t) for t in component}
            assert len({labels[i] for i in ints}) == 1
        # Distinct components get distinct labels.
        count = len(list(nx.connected_components(nx.Graph(data_graph.graph))))
        assert len({labels[i] for i in range(frozen.capacity)}) == count

    def test_distance_rows_are_bounded(self, synthetic_graph):
        frozen = FrozenGraph(synthetic_graph)
        frozen.max_distance_maps = 3
        for node in range(5):
            frozen.distances(node)
        assert len(frozen._distances) == 3


class TestTraversalCache:
    def test_rebuild_replaces_engine_cache(self, company_db):
        engine = KeywordSearchEngine(company_db)
        engine.search("Smith XML")
        old_cache = engine.traversal_cache
        engine.rebuild()
        assert engine.traversal_cache is not old_cache
        assert engine.traversal_cache.data_graph is engine.data_graph

    def test_distance_lookups_count_on_the_cache(self, data_graph):
        cache = TraversalCache(data_graph)
        frozen = cache.frozen()
        frozen.distances(0)
        frozen.distances(0)
        assert (cache.hits, cache.misses) == (1, 1)
        assert (frozen.hits, frozen.misses) == (0, 0)


class TestPathParity:
    def test_company_all_pairs_all_cores(self, data_graph):
        cache = TraversalCache(data_graph)
        nodes = sorted(data_graph.graph.nodes, key=str)
        for source, target in itertools.permutations(nodes, 2):
            brute = list(enumerate_simple_paths(data_graph, source, target, 4))
            csr = list(
                csr_enumerate_simple_paths(
                    data_graph, source, target, 4, cache=cache
                )
            )
            assert csr == brute, (source, target)

    def test_synthetic_sampled_pairs(self, synthetic_graph):
        cache = TraversalCache(synthetic_graph)
        nodes = sorted(synthetic_graph.graph.nodes, key=str)
        for source, target in itertools.permutations(nodes[::7], 2):
            brute = list(enumerate_simple_paths(synthetic_graph, source, target, 5))
            csr = list(
                csr_enumerate_simple_paths(
                    synthetic_graph, source, target, 5, cache=cache
                )
            )
            assert csr == brute, (source, target)

    def test_disconnected_unknown_and_zero_budget(self, data_graph):
        assert list(
            csr_enumerate_simple_paths(
                data_graph, tid("DEPARTMENT", "d3"), tid("EMPLOYEE", "e1"), 5
            )
        ) == []
        assert list(
            csr_enumerate_simple_paths(
                data_graph, tid("EMPLOYEE", "e99"), tid("EMPLOYEE", "e1"), 3
            )
        ) == []
        assert list(
            csr_enumerate_simple_paths(
                data_graph, tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1"), 0
            )
        ) == []

    def test_budget_error_parity(self, data_graph):
        source, target = tid("DEPARTMENT", "d2"), tid("EMPLOYEE", "e2")

        def consume(enumerate_fn):
            yielded = []
            try:
                for path in enumerate_fn(
                    data_graph, source, target, 5, max_paths=1
                ):
                    yielded.append(path)
            except SearchLimitError as error:
                return yielded, error.context
            raise AssertionError("expected SearchLimitError")

        brute_yielded, brute_context = consume(enumerate_simple_paths)
        csr_yielded, csr_context = consume(csr_enumerate_simple_paths)
        assert csr_yielded == brute_yielded
        assert csr_context == brute_context

    def test_mismatched_cache_is_ignored(self, data_graph, planted_synthetic):
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
        assert other_cache._frozen is None  # never compiled for the wrong graph


class TestTreeParity:
    def test_company_required_combos(self, data_graph):
        cache = TraversalCache(data_graph)
        nodes = sorted(data_graph.graph.nodes, key=str)
        for combo in itertools.combinations(nodes[:10], 2):
            brute = list(enumerate_joining_trees(data_graph, list(combo), 5))
            csr = list(
                csr_enumerate_joining_trees(
                    data_graph, list(combo), 5, cache=cache
                )
            )
            assert csr == brute, combo

    def test_three_required_and_synthetic(self, data_graph, synthetic_graph):
        required = [
            tid("DEPARTMENT", "d1"),
            tid("EMPLOYEE", "e1"),
            tid("PROJECT", "p1"),
        ]
        brute = list(enumerate_joining_trees(data_graph, required, 5))
        csr = list(csr_enumerate_joining_trees(data_graph, required, 5))
        assert csr == brute
        cache = TraversalCache(synthetic_graph)
        nodes = sorted(synthetic_graph.graph.nodes, key=str)
        for combo in itertools.combinations(nodes[::9], 2):
            brute = list(enumerate_joining_trees(synthetic_graph, list(combo), 4))
            csr = list(
                csr_enumerate_joining_trees(
                    synthetic_graph, list(combo), 4, cache=cache
                )
            )
            assert csr == brute, combo

    def test_budget_error_parity(self, data_graph):
        required = [tid("DEPARTMENT", "d1")]
        with pytest.raises(SearchLimitError):
            list(
                csr_enumerate_joining_trees(data_graph, required, 6, max_results=2)
            )


class TestSearchLayerParity:
    def test_find_connections_company(self, engine):
        matches = engine.match("Smith XML")
        limits = SearchLimits(max_rdb_length=4)
        csr = list(
            find_connections(
                engine.data_graph, matches, limits, core="csr",
                cache=engine.traversal_cache,
            )
        )
        brute = list(
            find_connections(
                engine.data_graph, matches, limits, core="reference"
            )
        )
        assert [a.render() for a in csr] == [a.render() for a in brute]

    def test_find_joining_networks_synthetic(self, planted_synthetic):
        engine = KeywordSearchEngine(planted_synthetic)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta", "kwgamma"))
        limits = SearchLimits(max_tuples=5)
        csr = list(
            find_joining_networks(
                engine.data_graph, matches, limits, core="csr",
                cache=engine.traversal_cache,
            )
        )
        brute = list(
            find_joining_networks(
                engine.data_graph, matches, limits, core="reference"
            )
        )
        assert [(n.tuples, n.keyword_tuples) for n in csr] == [
            (n.tuples, n.keyword_tuples) for n in brute
        ]

    def test_engine_core_results_identical(self, planted_synthetic):
        engines = {
            core: KeywordSearchEngine(planted_synthetic, core=core)
            for core in CORES
        }
        assert engines["csr"].core == "csr"
        assert engines["reference"].core == "reference"
        for query in ("kwalpha kwbeta", "kwbeta kwgamma", "kwalpha kwgamma"):
            limits = SearchLimits(max_rdb_length=5)
            rendered = {
                core: [
                    (r.render(), r.score, r.rank)
                    for r in engine.search(query, limits=limits)
                ]
                for core, engine in engines.items()
            }
            assert rendered["csr"] == rendered["reference"]

    def test_engine_batch_and_stream_identical(self, planted_synthetic):
        csr = KeywordSearchEngine(planted_synthetic, core="csr",
                                  result_cache_entries=0)
        brute = KeywordSearchEngine(planted_synthetic, core="reference",
                                    result_cache_entries=0)
        limits = SearchLimits(max_rdb_length=4)
        queries = ["kwalpha kwbeta", "kwbeta kwgamma", "kwalpha kwbeta"]
        assert [
            [(r.render(), r.score, r.rank) for r in results]
            for results in csr.search_batch(queries, limits=limits)
        ] == [
            [(r.render(), r.score, r.rank) for r in results]
            for results in brute.search_batch(queries, limits=limits)
        ]
        for query in queries:
            assert [
                (r.render(), r.score, r.rank)
                for r in csr.search_stream(query, limits=limits, top_k=4)
            ] == [
                (r.render(), r.score, r.rank)
                for r in brute.search_stream(query, limits=limits, top_k=4)
            ]

    def test_engine_or_semantics_and_topk(self, company_db):
        csr = KeywordSearchEngine(company_db, core="csr")
        brute = KeywordSearchEngine(company_db, core="reference")
        csr_results = csr.search("Smith unicorn XML", semantics="or")
        brute_results = brute.search("Smith unicorn XML", semantics="or")
        assert [(r.render(), r.score) for r in csr_results] == [
            (r.render(), r.score) for r in brute_results
        ]
        assert [
            (r.render(), r.score)
            for r in csr.search("Smith XML", top_k=3)
        ] == [
            (r.render(), r.score)
            for r in brute.search("Smith XML", top_k=3, pushdown=False)
        ]


def _mutation_rounds():
    """Structural mutation batches covering append, tombstone and edge churn."""
    return [
        [Insert("DEPENDENT", {"ID": "z1", "ESSN": "e1",
                              "DEPENDENT_NAME": "Zoe"})],
        [Insert("WORKS_FOR", {"ESSN": "e2", "P_ID": "p1", "HOURS": 5})],
        [Delete(tid("DEPENDENT", "t1"))],
        [Update(tid("DEPENDENT", "t2"), {"ESSN": "e1"})],
        [
            Delete(tid("DEPENDENT", "z1")),
            Insert("DEPENDENT", {"ID": "z2", "ESSN": "e2",
                                 "DEPENDENT_NAME": "Max"}),
        ],
    ]


def _all_enumerations(data_graph, cache=None, max_edges=4, max_tuples=4):
    """Materialise paths and trees over a node sample (order included)."""
    nodes = sorted(data_graph.graph.nodes, key=str)
    out = []
    for source, target in itertools.permutations(nodes[::3], 2):
        out.append(
            list(
                csr_enumerate_simple_paths(
                    data_graph, source, target, max_edges, cache=cache
                )
            )
        )
    for combo in itertools.combinations(nodes[::4], 2):
        out.append(
            list(
                csr_enumerate_joining_trees(
                    data_graph, list(combo), max_tuples, cache=cache
                )
            )
        )
    return out


class TestIncrementalPatching:
    def test_patched_equals_recompiled(self, company_db):
        graph = DataGraph(company_db)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        _all_enumerations(graph, cache)  # warm distance rows
        for batch in _mutation_rounds():
            changeset = apply_to_database(company_db, batch)
            apply_changeset(
                changeset, company_db, data_graph=graph, traversal_cache=cache
            )
            assert cache.frozen() is frozen  # patched, not recompiled
            patched = _all_enumerations(graph, cache)
            fresh = _all_enumerations(graph, TraversalCache(graph))
            assert patched == fresh
        assert frozen.compactions == 0
        assert frozen._override  # tombstones/appends really went in place

    def test_patch_appends_and_tombstones(self, company_db):
        graph = DataGraph(company_db)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        before = frozen.capacity
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "z9", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Ada"})],
        )
        apply_changeset(
            changeset, company_db, data_graph=graph, traversal_cache=cache
        )
        assert frozen.capacity == before + 1
        assert frozen._ints_sorted is False
        new_node = frozen.node_of(tid("DEPENDENT", "z9"))
        assert new_node == before
        assert frozen.tid_of(new_node) == tid("DEPENDENT", "z9")
        changeset = apply_to_database(company_db, [Delete(tid("DEPENDENT", "z9"))])
        apply_changeset(
            changeset, company_db, data_graph=graph, traversal_cache=cache
        )
        assert frozen.node_of(tid("DEPENDENT", "z9")) is None
        assert frozen.live_count() == before
        # A tombstoned tuple enumerates nothing, exactly like the
        # reference core on the patched graph.
        assert list(
            csr_enumerate_simple_paths(
                graph, tid("DEPENDENT", "z9"), tid("EMPLOYEE", "e1"), 3,
                cache=cache,
            )
        ) == []

    def test_distance_rows_of_untouched_components_survive(self, company_db):
        graph = DataGraph(company_db)
        frozen = FrozenGraph(graph)
        # d3 sits in its own component in the paper instance.
        isolated = frozen.node_of(tid("DEPARTMENT", "d3"))
        connected = frozen.node_of(tid("EMPLOYEE", "e1"))
        frozen.distances(isolated)
        frozen.distances(connected)
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "z8", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Eve"})],
        )
        apply_changeset(changeset, company_db, data_graph=graph)
        dropped = frozen.apply_changeset(changeset)
        assert dropped == 1
        assert isolated in frozen._distances
        assert connected not in frozen._distances

    def test_compaction_threshold_recompiles(self, company_db):
        graph = DataGraph(company_db)
        frozen = FrozenGraph(graph)
        frozen.compaction_threshold = 0.0
        frozen.min_compaction_nodes = 1
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "z7", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Kim"})],
        )
        apply_changeset(changeset, company_db, data_graph=graph)
        frozen.apply_changeset(changeset)
        assert frozen.compactions == 1
        assert not frozen._override
        assert frozen._ints_sorted is True
        tids = sorted(graph.graph.nodes, key=_sort_key)
        assert [frozen.tid_of(i) for i in range(frozen.capacity)] == tids

    def test_engine_apply_patches_instead_of_recompiling(self, company_db):
        engine = KeywordSearchEngine(company_db)
        engine.search("Smith XML")
        frozen = engine.traversal_cache._frozen
        assert frozen is not None
        engine.apply(
            [Insert("DEPENDENT", {"ID": "z6", "ESSN": "e3",
                                  "DEPENDENT_NAME": "kwnew"})]
        )
        assert engine.traversal_cache._frozen is frozen
        fresh = KeywordSearchEngine(engine.database)
        for query in ("Smith XML", "kwnew Wong"):
            assert [
                (r.render(), r.score, r.rank) for r in engine.search(query)
            ] == [
                (r.render(), r.score, r.rank) for r in fresh.search(query)
            ]
