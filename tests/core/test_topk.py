"""Unit tests for lazy top-k search with early termination."""

import pytest

from repro.core.connections import Connection
from repro.core.matching import match_keywords
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    InstanceAmbiguityRanker,
    RdbLengthRanker,
    rank_connections,
)
from repro.core.search import SearchLimits, find_connections
from repro.core.topk import lower_bound_for, top_k_connections
from repro.errors import QueryError


@pytest.fixture
def smith_xml(index):
    return match_keywords(index, ("XML", "Smith"))


def full_ranking(data_graph, matches, ranker, limits):
    answers = [
        answer
        for answer in find_connections(
            data_graph, matches, limits, include_single_tuples=False
        )
        if isinstance(answer, Connection)
    ]
    return rank_connections(answers, ranker)


class TestLowerBounds:
    def test_rdb_bound_is_exact(self):
        assert lower_bound_for(RdbLengthRanker(), 3) == (3.0,)

    def test_er_bound_halves(self):
        assert lower_bound_for(ErLengthRanker(), 4) == (2.0,)
        assert lower_bound_for(ErLengthRanker(), 5) == (3.0,)

    def test_closeness_bound(self):
        assert lower_bound_for(ClosenessRanker(), 3) == (0.0, 2.0)

    def test_unbounded_ranker(self):
        assert lower_bound_for(InstanceAmbiguityRanker(), 3) is None

    def test_bounds_are_sound(self, data_graph, smith_xml):
        """No connection may score below its length's lower bound."""
        limits = SearchLimits(max_rdb_length=4)
        for ranker in (RdbLengthRanker(), ErLengthRanker(), ClosenessRanker()):
            for answer in find_connections(
                data_graph, smith_xml, limits, include_single_tuples=False
            ):
                if not isinstance(answer, Connection):
                    continue
                bound = lower_bound_for(ranker, answer.rdb_length)
                assert ranker.score(answer) >= bound


class TestEquivalenceWithFullSort:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 20])
    @pytest.mark.parametrize(
        "ranker",
        [RdbLengthRanker(), ErLengthRanker(), ClosenessRanker(),
         InstanceAmbiguityRanker()],
        ids=lambda r: r.name,
    )
    def test_matches_full_enumeration(self, data_graph, smith_xml, ranker, k):
        limits = SearchLimits(max_rdb_length=4)
        lazy = top_k_connections(data_graph, smith_xml, ranker, k, limits)
        full = full_ranking(data_graph, smith_xml, ranker, limits)[:k]
        assert [(c.render(), s) for c, s in lazy] == [
            (a.render(), s) for a, s in full
        ]

    def test_synthetic_database_equivalence(self, small_synthetic):
        from repro.core.engine import KeywordSearchEngine

        engine = KeywordSearchEngine(small_synthetic)
        # Pick two short-ish names actually present in the data.
        vocabulary = engine.index.vocabulary()
        names = [w for w in vocabulary if w.isalpha()][:2]
        matches = match_keywords(engine.index, tuple(names))
        if any(match.is_empty for match in matches):
            pytest.skip("vocabulary sample not searchable")
        limits = SearchLimits(max_rdb_length=3)
        lazy = top_k_connections(
            engine.data_graph, matches, ClosenessRanker(), 5, limits
        )
        full = full_ranking(
            engine.data_graph, matches, ClosenessRanker(), limits
        )[:5]
        assert [(c.render(), s) for c, s in lazy] == [
            (a.render(), s) for a, s in full
        ]


class TestBasics:
    def test_k_zero(self, data_graph, smith_xml):
        assert top_k_connections(
            data_graph, smith_xml, ClosenessRanker(), 0
        ) == []

    def test_k_larger_than_answers(self, data_graph, smith_xml):
        limits = SearchLimits(max_rdb_length=3)
        results = top_k_connections(
            data_graph, smith_xml, ClosenessRanker(), 100, limits
        )
        assert len(results) == 7

    def test_needs_two_keywords(self, data_graph, index):
        matches = match_keywords(index, ("XML",))
        with pytest.raises(QueryError):
            top_k_connections(data_graph, matches, ClosenessRanker(), 3)

    def test_unmatched_keyword(self, data_graph, index):
        matches = match_keywords(index, ("XML", "unicorn"))
        assert top_k_connections(
            data_graph, matches, ClosenessRanker(), 3
        ) == []

    def test_results_sorted(self, data_graph, smith_xml):
        results = top_k_connections(
            data_graph, smith_xml, ClosenessRanker(), 5,
            SearchLimits(max_rdb_length=4),
        )
        scores = [score for __, score in results]
        assert scores == sorted(scores)


class TestTraversalCoreRouting:
    """Top-k enumerates through the csr core (with an escape hatch)."""

    @pytest.mark.parametrize(
        "ranker",
        [RdbLengthRanker(), ErLengthRanker(), ClosenessRanker()],
        ids=lambda r: r.name,
    )
    def test_slow_core_identical(self, data_graph, smith_xml, ranker):
        limits = SearchLimits(max_rdb_length=4)
        csr = top_k_connections(data_graph, smith_xml, ranker, 5, limits)
        reference = top_k_connections(
            data_graph, smith_xml, ranker, 5, limits, core="reference"
        )
        assert [(c.render(), s) for c, s in csr] == [
            (c.render(), s) for c, s in reference
        ]

    def test_engine_cache_is_reused(self, engine, smith_xml):
        engine.search("Smith XML")  # warm the cache
        hits_before = engine.traversal_cache.hits
        top_k_connections(
            engine.data_graph, smith_xml, ClosenessRanker(), 3,
            SearchLimits(max_rdb_length=4), cache=engine.traversal_cache,
        )
        assert engine.traversal_cache.hits > hits_before

    def test_engine_top_k_uses_pushdown(self, engine):
        """engine.search(top_k=...) rides the pushdown path end to end."""
        engine.search("Smith XML", top_k=2,
                      limits=SearchLimits(max_rdb_length=4))
        assert engine.last_stats.pushdown
        pushdown_candidates = engine.last_stats.candidates
        engine.search("Smith XML", limits=SearchLimits(max_rdb_length=4))
        assert pushdown_candidates < engine.last_stats.candidates
