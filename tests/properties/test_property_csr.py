"""Property-based differential tests: the compiled CSR kernel.

Hypothesis drives synthetic database shapes and mutation sequences; on
every instance the CSR core must reproduce the reference core exactly
— paths, joining trees, engine rankings under both semantics, batches —
and an incrementally patched :class:`~repro.graph.csr.FrozenGraph` must
answer exactly like a freshly compiled one.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.matching import match_keywords
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.graph.csr import (
    FrozenGraph,
    csr_enumerate_joining_trees,
    csr_enumerate_simple_paths,
)
from repro.graph.data_graph import DataGraph
from repro.graph.traversal import enumerate_joining_trees, enumerate_simple_paths
from repro.graph.traversal_cache import TraversalCache
from repro.live.changes import Delete, Insert, apply_to_database
from repro.live.maintain import apply_changeset

configs = st.builds(
    SyntheticConfig,
    departments=st.integers(min_value=1, max_value=3),
    projects_per_department=st.integers(min_value=1, max_value=2),
    employees_per_department=st.integers(min_value=1, max_value=4),
    works_on_per_employee=st.integers(min_value=1, max_value=2),
    dependents_per_employee=st.just(0.3),
    seed=st.integers(min_value=0, max_value=50),
)

relaxed = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def planted_engine(config):
    database = generate_company_like(config)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION",
          min(2, database.count("DEPARTMENT")), seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME",
          min(2, database.count("EMPLOYEE")), seed=2)
    return KeywordSearchEngine(database)


class TestDifferentialInvariants:
    @relaxed
    @given(configs)
    def test_paths_identical_to_both_cores(self, config):
        engine = planted_engine(config)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta"))
        cache = TraversalCache(engine.data_graph)
        for source in matches[0].tuple_ids:
            for target in matches[1].tuple_ids:
                if source == target:
                    continue
                brute = list(
                    enumerate_simple_paths(engine.data_graph, source, target, 4)
                )
                csr = list(
                    csr_enumerate_simple_paths(
                        engine.data_graph, source, target, 4, cache=cache
                    )
                )
                assert csr == brute

    @relaxed
    @given(configs)
    def test_trees_identical_to_both_cores(self, config):
        engine = planted_engine(config)
        nodes = sorted(engine.data_graph.graph.nodes, key=str)
        cache = TraversalCache(engine.data_graph)
        for combo in zip(nodes[::5], nodes[1::5]):
            brute = list(
                enumerate_joining_trees(engine.data_graph, list(combo), 4)
            )
            csr = list(
                csr_enumerate_joining_trees(
                    engine.data_graph, list(combo), 4, cache=cache
                )
            )
            assert csr == brute

    @relaxed
    @given(configs, st.sampled_from(["and", "or"]))
    def test_engine_rankings_identical(self, config, semantics):
        database = planted_engine(config).database
        csr = KeywordSearchEngine(database, core="csr")
        reference = KeywordSearchEngine(database, core="reference")
        limits = SearchLimits(max_rdb_length=4, max_tuples=4)
        for query in ("kwalpha kwbeta", "kwalpha"):
            assert [
                (r.render(), r.score, r.rank)
                for r in csr.search(query, limits=limits, semantics=semantics)
            ] == [
                (r.render(), r.score, r.rank)
                for r in reference.search(
                    query, limits=limits, semantics=semantics
                )
            ]

    @relaxed
    @given(configs)
    def test_batch_matches_sequential_search(self, config):
        engine = planted_engine(config)
        queries = ["kwalpha kwbeta", "kwalpha kwbeta", "kwbeta kwalpha"]
        batched = engine.search_batch(queries)
        sequential = [engine.search(query) for query in queries]
        assert [
            [(r.render(), r.score) for r in results] for results in batched
        ] == [
            [(r.render(), r.score) for r in results] for results in sequential
        ]


def _structural_mutations(database, salts):
    """Derive a valid mutation per salt from the current database state."""
    mutations = []
    for counter, salt in enumerate(salts):
        employees = database.tuples("EMPLOYEE")
        if salt % 3 == 2:
            victims = database.tuples("DEPENDENT")
            if victims:
                mutations.append([Delete(victims[salt % len(victims)].tid)])
                apply_to_database(database, mutations[-1])
                continue
        essn = employees[salt % len(employees)].tid.key[0]
        batch = [
            Insert(
                "DEPENDENT",
                {"ID": f"hz{counter}", "ESSN": essn,
                 "DEPENDENT_NAME": f"name{salt % 5}"},
            )
        ]
        apply_to_database(database, batch)
        mutations.append(batch)
    return mutations


class TestPatchedFrozenGraph:
    @relaxed
    @given(
        configs,
        st.lists(st.integers(min_value=0, max_value=1 << 16),
                 min_size=1, max_size=5),
    )
    def test_patched_equals_recompiled(self, config, salts):
        database = generate_company_like(config)
        replay = generate_company_like(config)
        graph = DataGraph(database)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        for batch in _structural_mutations(replay, salts):
            changeset = apply_to_database(database, batch)
            apply_changeset(
                changeset, database, data_graph=graph, traversal_cache=cache
            )
        if frozen.compactions == 0:
            assert cache.frozen() is frozen
        recompiled = FrozenGraph(graph)
        live = cache.frozen()
        assert live.live_count() == recompiled.live_count()
        nodes = sorted(graph.graph.nodes, key=str)
        sample = nodes[:: max(1, len(nodes) // 6)]
        for source in sample:
            for target in sample:
                if source == target:
                    continue
                assert list(
                    csr_enumerate_simple_paths(graph, source, target, 4,
                                               cache=cache)
                ) == list(
                    enumerate_simple_paths(graph, source, target, 4)
                )
        for combo in zip(sample, sample[1:]):
            assert list(
                csr_enumerate_joining_trees(graph, list(combo), 4, cache=cache)
            ) == list(
                enumerate_joining_trees(graph, list(combo), 4)
            )


class TestVectorBlocksIdentical:
    """Multi-source BFS blocks equal per-source scalar rows, always.

    The block sweep on the vector backend (and its scalar fallback)
    must reproduce the one-source reference BFS row for row — on fresh
    graphs and after arbitrary mutation sequences, including tombstoned
    overrides and compaction-triggered recompiles.  When numpy is
    absent both graphs are scalar and the property still holds.
    """

    @relaxed
    @given(configs)
    def test_block_rows_equal_scalar_rows(self, config):
        graph = DataGraph(generate_company_like(config))
        scalar = FrozenGraph(graph, vector=False)
        vector = FrozenGraph(graph)
        sources = list(range(0, vector.capacity, 2))
        block = vector.distances_block(sources)
        for node in sources:
            assert block[node] == scalar.distances(node)
        assert vector.components() == scalar.components()

    @relaxed
    @given(
        configs,
        st.lists(st.integers(min_value=0, max_value=1 << 16),
                 min_size=1, max_size=5),
        st.booleans(),
    )
    def test_block_rows_equal_after_mutations(self, config, salts, compact):
        database = generate_company_like(config)
        replay = generate_company_like(config)
        graph = DataGraph(database)
        scalar = FrozenGraph(graph, vector=False)
        vector = FrozenGraph(graph)
        if compact:  # force the recompile path on some examples
            for frozen in (scalar, vector):
                frozen.compaction_threshold = 0.0
                frozen.min_compaction_nodes = 1
        for batch in _structural_mutations(replay, salts):
            changeset = apply_to_database(database, batch)
            apply_changeset(changeset, database, data_graph=graph)
            scalar.apply_changeset(changeset)
            vector.apply_changeset(changeset)
        assert scalar.compactions == vector.compactions
        sources = list(range(0, vector.capacity, 2))
        block = vector.distances_block(sources)
        for node in sources:
            assert block[node] == scalar.distances(node)
        assert vector.components() == scalar.components()
