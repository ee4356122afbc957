"""Differential oracle: bound-ordered pushdown is answer-invisible.

The planner may only change *how hard* the engine works — enumeration
order inside the pushdown heaps, provably-empty units skipped, batches
routed by cost.  Every answer, score and rank of a top-k run must stay
bit-identical to the first k answers of the full-mode ranked list on
the ``reference`` core, across cores, semantics, top-k cuts, shards,
snapshot restore and the worker pool.
"""

from __future__ import annotations

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.datasets.workload import (
    SkewedWorkloadConfig,
    generate_skewed_workload,
)

_LIMITS = SearchLimits(max_rdb_length=4, max_tuples=4)


def snap(results):
    return [(r.render(), r.score, r.rank) for r in results]


def full_first(engine, text, k, semantics="and"):
    """The oracle: the first ``k`` answers of the full-mode ranked list."""
    results = engine.search(text, limits=_LIMITS, semantics=semantics,
                            pushdown=False)
    return snap(results[:k])


def kernel_units(engine) -> int:
    cache = engine.traversal_cache
    return cache.paths_enumerated + cache.trees_enumerated


@pytest.fixture(scope="module")
def skewed():
    """A skewed synthetic database plus its workload queries."""
    database = generate_company_like(
        SyntheticConfig(
            departments=4,
            projects_per_department=2,
            employees_per_department=5,
            works_on_per_employee=2,
            dependents_per_employee=0.5,
            seed=11,
        )
    )
    queries = generate_skewed_workload(
        database,
        SkewedWorkloadConfig(queries=8, keyword_pool=6, max_matches=8,
                             seed=5),
    )
    return database, [query.text for query in queries]


@pytest.fixture(scope="module")
def oracle(skewed):
    database, __ = skewed
    return KeywordSearchEngine(database, core="reference")


@pytest.mark.parametrize("core", ["csr", "reference"])
@pytest.mark.parametrize("semantics", ["and", "or"])
def test_adaptive_matches_static_across_cores(skewed, oracle, core,
                                              semantics):
    database, texts = skewed
    engine = KeywordSearchEngine(database, core=core)
    for text in texts[:4]:
        for top_k in (None, 3):
            expected = full_first(oracle, text, top_k, semantics)
            observed = snap(engine.search(
                text, limits=_LIMITS, top_k=top_k, semantics=semantics))
            assert observed == expected
        # Forced pushdown without a cut drains every heap to the end.
        streamed = snap(engine.search(
            text, limits=_LIMITS, semantics=semantics, pushdown=True))
        assert streamed == full_first(oracle, text, None, semantics)


def test_adaptive_matches_static_with_shards(skewed, oracle):
    database, texts = skewed
    sharded = KeywordSearchEngine(database, shards=3)
    for text in texts:
        assert snap(sharded.search(text, limits=_LIMITS, top_k=5)) \
            == full_first(oracle, text, 5)


def test_adaptive_prunes_and_enumerates_less(skewed):
    """The pushdown leg: fewer kernel enumerations, identical answers."""
    database, texts = skewed
    engine = KeywordSearchEngine(database)
    pruned = 0
    topk_units = full_units = 0
    for text in texts:
        before = kernel_units(engine)
        observed = snap(engine.search(text, limits=_LIMITS, top_k=2))
        pruned += engine.last_stats.pruned
        middle = kernel_units(engine)
        expected = full_first(engine, text, 2)
        topk_units += middle - before
        full_units += kernel_units(engine) - middle
        assert observed == expected
    assert pruned > 0, "skewed workload should skip provably-empty units"
    assert topk_units < full_units


def test_adaptive_matches_static_through_snapshot(skewed, tmp_path):
    database, texts = skewed
    origin = KeywordSearchEngine(database)
    for text in texts[:4]:
        origin.search(text, limits=_LIMITS, top_k=3)
    assert origin.calibration.updates > 0
    path = str(tmp_path / "skewed.snap")
    origin.save(path)

    restored = KeywordSearchEngine.open(path)
    reference = KeywordSearchEngine.open(path, core="reference")
    try:
        for text in texts:
            assert snap(restored.search(text, limits=_LIMITS, top_k=3)) \
                == full_first(reference, text, 3)
    finally:
        restored.close()
        reference.close()


def test_adaptive_matches_static_through_pool(skewed, oracle, tmp_path):
    database, texts = skewed
    origin = KeywordSearchEngine(database)
    origin.save(str(tmp_path / "pool.snap"))
    pooled = KeywordSearchEngine.open(str(tmp_path / "pool.snap"))
    try:
        batch = texts[:6]
        expected = [full_first(oracle, text, 3) for text in batch]
        observed = pooled.search_batch(batch, limits=_LIMITS, top_k=3,
                                       jobs=2)
        assert [snap(results) for results in observed] == expected
    finally:
        pooled.close_pool()
        pooled.close()
