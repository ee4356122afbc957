"""Property: calibration state never changes answer sets.

The calibration table biases cost *estimates* — ordering and routing
inputs only.  Hypothesis injects arbitrary (even wildly wrong)
observations into an engine's table and checks that every answer,
score and rank stays bit-identical to the first k answers of a
pristine ``reference``-core engine's full-mode list, with and without
a top-k cut, under both semantics.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant

_LIMITS = SearchLimits(max_rdb_length=4, max_tuples=4)
_QUERIES = ("kwalpha kwbeta", "kwalpha kwbeta kwgamma", "kwalpha")


def _database(seed: int):
    database = generate_company_like(
        SyntheticConfig(
            departments=2,
            projects_per_department=2,
            employees_per_department=3,
            works_on_per_employee=2,
            dependents_per_employee=0.3,
            seed=seed,
        )
    )
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION",
          min(3, database.count("DEPARTMENT")), seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME",
          min(3, database.count("EMPLOYEE")), seed=2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION",
          min(2, database.count("PROJECT")), seed=3)
    return database


def _snap(results):
    return [(r.render(), r.score, r.rank) for r in results]


observations = st.lists(
    st.tuples(
        st.sampled_from(["paths", "networks"]),
        st.floats(min_value=0.1, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=8,
)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=15),
    injected=observations,
    semantics=st.sampled_from(["and", "or"]),
    top_k=st.sampled_from([None, 2]),
)
def test_calibration_never_changes_answers(seed, injected, semantics, top_k):
    database = _database(seed)
    reference = KeywordSearchEngine(database, core="reference")
    engine = KeywordSearchEngine(database)
    for kind, predicted, observed in injected:
        engine.calibration.observe(kind, predicted, observed)
    for query in _QUERIES:
        full = reference.search(
            query, limits=_LIMITS, semantics=semantics, pushdown=False)
        observed_results = _snap(engine.search(
            query, limits=_LIMITS, top_k=top_k, semantics=semantics))
        assert observed_results == _snap(full[:top_k])


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=15),
    injected=observations,
)
def test_calibration_never_changes_query_cost_validity(seed, injected):
    """query_cost stays finite and positive under any calibration."""
    database = _database(seed)
    engine = KeywordSearchEngine(database)
    for kind, predicted, observed in injected:
        engine.calibration.observe(kind, predicted, observed)
    for query in _QUERIES:
        cost = engine.query_cost(query)
        assert cost >= 1.0
        assert cost < float("inf")
