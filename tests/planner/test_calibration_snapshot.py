"""Calibration persistence: the learned table rides the snapshot."""

from __future__ import annotations

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.relational.statistics import DatabaseStatistics


@pytest.fixture
def warmed(company_db):
    """An engine that has observed a few runs."""
    engine = KeywordSearchEngine(company_db)
    for query in ("Smith XML", "Brown CS", "Smith Brown XML"):
        engine.search(query, top_k=3)
    assert engine.calibration.updates > 0
    return engine


def test_search_populates_calibration(warmed):
    table = warmed.calibration.to_dict()
    assert "paths" in table or "networks" in table
    for cell in table.values():
        assert cell["count"] >= 1
        assert cell["predicted"] > 0


def test_snapshot_roundtrips_calibration(warmed, tmp_path):
    path = str(tmp_path / "cal.snap")
    warmed.save(path)
    restored = KeywordSearchEngine.open(path)
    try:
        # The loader is lazy: the table fills on first planner use.
        restored.query_cost("Smith XML")
        assert restored.calibration.to_dict() == warmed.calibration.to_dict()
        for kind in warmed.calibration.to_dict():
            assert restored.calibration.factor(kind) == pytest.approx(
                warmed.calibration.factor(kind))
    finally:
        restored.close()


def test_planning_loads_persisted_calibration(warmed, tmp_path):
    path = str(tmp_path / "cal2.snap")
    warmed.save(path)
    restored = KeywordSearchEngine.open(path)
    try:
        plan, __ = restored._plan("Smith XML", None, "and")
        assert plan.estimates  # annotation forced the lazy load
        assert len(restored.calibration) == len(warmed.calibration)
    finally:
        restored.close()


def test_old_snapshots_without_calibration_restore_empty(company_db,
                                                         tmp_path):
    path = str(tmp_path / "old.snap")
    KeywordSearchEngine(company_db).save(path)  # never searched: no table
    restored = KeywordSearchEngine.open(path)
    try:
        restored.query_cost("Smith XML")
        assert len(restored.calibration) == 0
        assert restored.search("Smith XML", top_k=3)
    finally:
        restored.close()


def test_statistics_dict_roundtrip_keeps_calibration(company_db):
    payload = {"paths": {"predicted": 10.0, "observed": 4.0, "count": 2.0}}
    statistics = DatabaseStatistics(company_db)
    statistics.calibration = payload
    data = statistics.to_dict()
    assert data["calibration"] == payload
    restored = DatabaseStatistics.from_dict(company_db, data)
    assert restored.calibration == payload
    # An empty table serialises to nothing and restores to nothing.
    bare = DatabaseStatistics(company_db).to_dict()
    assert "calibration" not in bare
    assert DatabaseStatistics.from_dict(company_db, bare).calibration == {}
