"""Property-based differential test: the default core vs the reference.

Hypothesis drives synthetic database shapes; on every generated instance
an engine built with default options must rank exactly like one pinned
to the reference core.  The module keeps its original name, from when
it tested a separate pruned core, so its test ids stay stable.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant

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
    def test_engine_ranking_identical(self, config):
        default_engine = planted_engine(config)
        brute_engine = KeywordSearchEngine(
            default_engine.database, core="reference"
        )
        default = default_engine.search("kwalpha kwbeta")
        brute = brute_engine.search("kwalpha kwbeta")
        assert [(r.render(), r.score, r.rank) for r in default] == [
            (r.render(), r.score, r.rank) for r in brute
        ]
